#include "guard/solver_guard.h"

#include <algorithm>
#include <cmath>
#include <exception>

#include "core/plan_eval.h"
#include "util/logging.h"

namespace slate {

const char* to_string(SolverRung rung) noexcept {
  switch (rung) {
    case SolverRung::kPrimary: return "primary";
    case SolverRung::kFastHeuristic: return "fast-heuristic";
    case SolverRung::kCapacitySplit: return "capacity-split";
    case SolverRung::kHoldLastGood: return "hold-last-good";
  }
  return "?";
}

namespace {

// A plan whose weights are not finite must never reach the data plane —
// RoutingRuleSet::validate cannot catch NaN (every comparison is false).
bool rules_finite(const RoutingRuleSet* rules) {
  if (rules == nullptr) return false;
  bool finite = true;
  rules->for_each([&](ClassId, std::size_t, ClusterId,
                      const RouteWeights& w) {
    for (const double v : w.weights) {
      if (!std::isfinite(v)) finite = false;
    }
  });
  return finite;
}

}  // namespace

SolverGuard::SolverGuard(const Application& app, const Deployment& deployment,
                         const Topology& topology, SolverGuardOptions options)
    : app_(&app),
      deployment_(&deployment),
      topology_(&topology),
      options_(options),
      fast_(app, deployment, topology) {}

bool SolverGuard::accept(const OptimizerResult& result,
                         double elapsed_seconds) const {
  if (!result.ok() || !rules_finite(result.rules.get())) return false;
  return !(options_.wall_budget > 0.0 && elapsed_seconds > options_.wall_budget);
}

SolverGuard::Outcome SolverGuard::solve(
    const RouteOptimizer& primary, const LatencyModel& model,
    const FlatMatrix<double>& demand,
    const std::vector<unsigned>* live_servers, OptimizerCache* cache,
    bool solver_down, bool have_last_good) {
  using Clock = std::chrono::steady_clock;
  auto timed = [&](auto&& run, OptimizerResult& out) {
    const auto t0 = Clock::now();
    bool usable;
    try {
      out = run();
      if (out.status == LpStatus::kIterationLimit && out.rules != nullptr) {
        // Descent/simplex ran out of iterations but still holds a valid
        // improving plan.
        out.status = LpStatus::kOptimal;
      }
      usable = true;
    } catch (const std::exception& e) {
      // A solver blowing up on degenerate input (poisoned demand, empty
      // candidate sets) is exactly what the ladder exists for.
      SLATE_LOG(kWarn) << "solver threw: " << e.what();
      out = OptimizerResult{};
      usable = false;
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return usable && accept(out, elapsed);
  };

  auto settle = [&](OptimizerResult result, SolverRung rung) {
    ++rung_counts_[static_cast<std::size_t>(rung)];
    if (rung != SolverRung::kPrimary) {
      SLATE_LOG(kInfo) << "solver guard: settled on rung "
                       << to_string(rung);
    }
    return Outcome{std::move(result), rung};
  };

  OptimizerResult result;
  if (!solver_down) {
    if (timed(
            [&] {
              return primary.optimize(model, demand, live_servers, cache);
            },
            result)) {
      consecutive_degraded_ = 0;
      return settle(std::move(result), SolverRung::kPrimary);
    }
    if (options_.enabled &&
        timed([&] { return fast_.optimize(model, demand, live_servers); },
              result)) {
      consecutive_degraded_ = 0;
      return settle(std::move(result), SolverRung::kFastHeuristic);
    }
  }
  // Disarmed: rungs 1-2 do not exist and hold is the only fallback.
  if (!options_.enabled) {
    return settle(OptimizerResult{}, SolverRung::kHoldLastGood);
  }

  ++consecutive_degraded_;
  if (have_last_good && consecutive_degraded_ <= options_.hold_fresh_periods) {
    return settle(OptimizerResult{}, SolverRung::kHoldLastGood);
  }

  try {
    result = capacity_split(model, live_servers);
    if (rules_finite(result.rules.get())) {
      return settle(std::move(result), SolverRung::kCapacitySplit);
    }
  } catch (const std::exception& e) {
    SLATE_LOG(kWarn) << "capacity split failed: " << e.what();
  }
  return settle(OptimizerResult{}, SolverRung::kHoldLastGood);
}

OptimizerResult SolverGuard::capacity_split(
    const LatencyModel& model, const std::vector<unsigned>* live_servers) const {
  const std::size_t C = topology_->cluster_count();
  auto rules = std::make_shared<RoutingRuleSet>();

  auto effective_capacity = [&](ServiceId svc, ClusterId c) {
    double cap = deployment_->capacity_rps(svc, c);
    if (cap <= 0.0) {
      // Fall back to servers / mean service time across classes.
      double st = model.default_service_time();
      cap = static_cast<double>(deployment_->servers(svc, c)) /
            std::max(st, 1e-6);
    }
    const double static_servers = deployment_->servers(svc, c);
    if (static_servers > 0.0) {
      cap *= servers_at(*deployment_, live_servers, svc.index(), c.index()) /
             static_servers;
    }
    return std::max(cap, 1e-9);
  };

  for (std::size_t k = 0; k < app_->class_count(); ++k) {
    const CallGraph& graph = app_->traffic_class(ClassId{k}).graph;
    for (std::size_t n = 1; n < graph.node_count(); ++n) {
      const ServiceId svc = graph.node(n).service;
      const ServiceId parent_svc = graph.node(graph.node(n).parent).service;
      const auto candidates = deployment_->clusters_for(svc);
      if (candidates.empty()) continue;
      for (std::size_t i = 0; i < C; ++i) {
        if (!deployment_->is_deployed(parent_svc, ClusterId{i})) continue;
        RouteWeights weights;
        for (const ClusterId j : candidates) {
          double w = effective_capacity(svc, j);
          if (j.index() == i) w *= options_.split_local_bias;
          weights.clusters.push_back(j);
          weights.weights.push_back(w);
        }
        weights.normalize();
        rules->set_rule(ClassId{k}, n, ClusterId{i}, std::move(weights));
      }
    }
  }
  rules->validate();

  OptimizerResult result;
  result.status = LpStatus::kOptimal;
  result.rules = std::move(rules);
  return result;
}

}  // namespace slate

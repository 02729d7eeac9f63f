#include "core/global_controller.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "core/plan_eval.h"
#include "util/logging.h"
#include "workload/demand.h"

namespace slate {

GlobalController::GlobalController(const Application& app,
                                   const Deployment& deployment,
                                   const Topology& topology,
                                   GlobalControllerOptions options)
    : app_(&app),
      deployment_(&deployment),
      topology_(&topology),
      options_(options),
      model_(options.warm_start_model
                 ? LatencyModel::from_application(app, topology.cluster_count())
                 : LatencyModel(app.service_count(), app.class_count(),
                                topology.cluster_count())),
      fitter_(options.fitter),
      optimizer_(app, deployment, topology, options.optimizer),
      solver_guard_(app, deployment, topology, options.guard.solver),
      store_(app.service_count(), app.class_count(), topology.cluster_count(),
             options.sample_capacity),
      demand_(app.class_count(), topology.cluster_count(), 0.0),
      solve_demand_(app.class_count(), topology.cluster_count(), 0.0),
      live_servers_(app.service_count() * topology.cluster_count(), 0),
      last_seen_round_(topology.cluster_count(), 0),
      cluster_stale_(topology.cluster_count(), false),
      drain_scale_(topology.cluster_count(), 1.0) {
  if (options_.initial_model_scale != 1.0) {
    model_.scale_all(options_.initial_model_scale);
  }
  if (options_.guard.admission.enabled) {
    validator_ = std::make_unique<ReportValidator>(
        app.service_count(), app.class_count(), topology.cluster_count(),
        options_.guard.admission);
  }
  if (options_.guard.rollout.enabled) {
    rollout_ = std::make_unique<RuleRollout>(options_.guard.rollout);
  }
  switch (options_.forecast.kind) {
    case ForecastKind::kLast:
    case ForecastKind::kEwma:
    case ForecastKind::kLinear:
    case ForecastKind::kHoltWinters:
      forecaster_ = std::make_unique<DemandForecaster>(
          app.class_count(), topology.cluster_count(), options_.forecast);
      break;
    case ForecastKind::kOracle:
      options_.forecast.validate();
      break;
    case ForecastKind::kNone:
      break;
  }
}

std::size_t GlobalController::stale_clusters() const noexcept {
  std::size_t n = 0;
  for (const bool stale : cluster_stale_) n += stale ? 1 : 0;
  return n;
}

std::size_t GlobalController::stale_periods(ClusterId cluster) const noexcept {
  const std::size_t c = cluster.index();
  if (c >= last_seen_round_.size() || last_seen_round_[c] == 0) return 0;
  return static_cast<std::size_t>(rounds_ - last_seen_round_[c]);
}

void GlobalController::set_drain_scale(ClusterId cluster, double keep) {
  if (!cluster.valid() || cluster.index() >= drain_scale_.size()) return;
  keep = std::clamp(keep, 0.0, 1.0);
  if (drain_scale_[cluster.index()] == keep) return;
  drain_scale_[cluster.index()] = keep;
  capacity_dirty_ = true;
  drain_scaling_active_ = false;
  for (const double s : drain_scale_) {
    if (s < 1.0) drain_scaling_active_ = true;
  }
}

void GlobalController::set_capacity_overlay(const std::vector<unsigned>& overlay) {
  if (capacity_overlay_ == overlay) return;
  capacity_overlay_ = overlay;
  // The effective capacity moved even if demand did not: the next period
  // must actually re-solve so the plan reflects it.
  capacity_dirty_ = true;
}

double GlobalController::planned_servers(ServiceId s, ClusterId c) const {
  return servers_at(*deployment_, &planned_capacity_, s.index(), c.index());
}

const std::vector<unsigned>* GlobalController::capacity_view() {
  // Bi-level overlay first: the coordinator's provisioning-lag-aware counts
  // replace the raw reported ones where set (0 = no override).
  const std::vector<unsigned>* base = &live_servers_;
  if (!capacity_overlay_.empty()) {
    overlaid_live_ = live_servers_;
    const std::size_t n =
        std::min(overlaid_live_.size(), capacity_overlay_.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (capacity_overlay_[i] > 0) overlaid_live_[i] = capacity_overlay_[i];
    }
    base = &overlaid_live_;
  }
  if (!drain_scaling_active_) return base;
  const std::size_t C = topology_->cluster_count();
  const std::size_t S = app_->service_count();
  scaled_live_ = *base;
  for (std::size_t c = 0; c < C; ++c) {
    const double scale = drain_scale_[c];
    if (scale >= 1.0) continue;
    for (std::size_t s = 0; s < S; ++s) {
      // Scale from the live count when reported, else the static
      // deployment; 0 stays 0 (not deployed). Floor at one server so the
      // program stays feasible — the data plane's drain filter, not the
      // solver, performs the final cutoff.
      const double base_servers = servers_at(*deployment_, base, s, c);
      if (base_servers == 0.0) continue;
      scaled_live_[s * C + c] =
          std::max(1u, static_cast<unsigned>(base_servers * scale));
    }
  }
  return &scaled_live_;
}

const FlatMatrix<double>& GlobalController::apply_drain_divert(
    const FlatMatrix<double>& demand) {
  if (!drain_scaling_active_) return demand;
  drain_demand_ = demand;
  const std::size_t C = topology_->cluster_count();
  for (std::size_t c = 0; c < C; ++c) {
    const double keep = drain_scale_[c];
    if (keep >= 1.0) continue;
    for (std::size_t k = 0; k < demand.rows(); ++k) {
      const double diverted = (1.0 - keep) * demand(k, c);
      if (diverted <= 0.0) continue;
      // The front door the data plane diverts to: the nearest entry
      // replica that is not itself evacuating.
      const ClusterId target = topology_->local_or_nearest(
          ClusterId{c},
          deployment_->clusters_for(app_->entry_service(ClassId{k})),
          [&](ClusterId t) {
            return t == ClusterId{c} || drain_scale_[t.index()] <= 0.0;
          });
      if (!target.valid()) continue;  // divert has nowhere to go
      drain_demand_(k, c) -= diverted;
      drain_demand_(k, target.index()) += diverted;
    }
  }
  return drain_demand_;
}

void GlobalController::plan_contingency(const FlatMatrix<double>& solve_demand,
                                        const std::vector<unsigned>* live,
                                        bool exact_plan) {
  const ContingencyOptions& c = options_.contingency;
  ++contingency_evals_;
  const auto worst_margin = [&] {
    return worst_case_margin(*app_, *deployment_, *topology_, model_,
                             solve_demand, *last_result_.rules, live,
                             &contingency_worst_failure_);
  };
  double margin = worst_margin();
  if (exact_plan) {
    const double primary_cap = options_.optimizer.max_utilization;
    // Pad levels are quantized so the padded-solve inputs repeat across
    // periods and ride the contingency warm-start cache.
    std::size_t max_level = 0;
    while (primary_cap - static_cast<double>(max_level + 1) * c.pad_step >=
           c.min_utilization) {
      ++max_level;
    }
    std::size_t level = std::min(pad_level_, max_level);
    auto padded_solve = [&](std::size_t lvl) {
      OptimizerOptions padded = options_.optimizer;
      padded.max_utilization =
          primary_cap - static_cast<double>(lvl) * c.pad_step;
      if (cache_pad_level_ != lvl) {
        // The memo is keyed on solve inputs, not options: a cached plan
        // from another cap must not be served at this one.
        contingency_cache_.memo_valid = false;
        cache_pad_level_ = lvl;
      }
      RouteOptimizer padded_optimizer(*app_, *deployment_, *topology_, padded);
      ++contingency_resolves_;
      return padded_optimizer.optimize(model_, solve_demand, live,
                                       &contingency_cache_);
    };
    while (true) {
      if (level > 0) {
        OptimizerResult padded = padded_solve(level);
        if (!padded.ok()) break;  // keep the plan we have
        last_result_ = std::move(padded);
        margin = worst_margin();
      }
      if (margin <= c.max_post_failure_utilization || level >= max_level) {
        break;
      }
      ++level;
    }
    // Relax one step per period, and only from comfortably inside the cap
    // (hysteresis prevents pad-level flapping at the boundary).
    if (level > 0 &&
        margin < c.max_post_failure_utilization - c.relax_hysteresis) {
      pad_level_ = level - 1;
    } else {
      pad_level_ = level;
    }
  }
  contingency_margin_last_ = margin;
  contingency_margin_worst_ = std::max(contingency_margin_worst_, margin);
}

void GlobalController::ingest(const std::vector<ClusterReport>& reports) {
  for (const auto& report : reports) {
    if (!report.cluster.valid() ||
        report.cluster.index() >= topology_->cluster_count()) {
      continue;  // structurally broken report: nowhere safe to ingest it
    }
    last_seen_round_[report.cluster.index()] = rounds_;
    // Station utilization lookup for this cluster's report.
    std::vector<double> station_util(app_->service_count(), 0.0);
    for (const auto& sm : report.station_metrics) {
      if (!sm.service.valid() || sm.service.index() >= app_->service_count()) {
        continue;
      }
      station_util[sm.service.index()] = sm.utilization;
      live_servers_[sm.service.index() * topology_->cluster_count() +
                    report.cluster.index()] = sm.servers;
    }
    for (const auto& m : report.request_metrics) {
      if (m.completed == 0) continue;
      if (!m.service.valid() || m.service.index() >= app_->service_count() ||
          !m.cls.valid() || m.cls.index() >= app_->class_count()) {
        continue;
      }
      LoadSample sample;
      sample.time = report.period_end;
      sample.rps = m.completion_rps;
      sample.mean_latency = m.mean_latency;
      sample.mean_service_time = m.mean_service_time;
      sample.utilization = station_util[m.service.index()];
      sample.count = m.completed;
      store_.add(m.service, m.cls, report.cluster, sample);
    }
    // Demand EWMA. A chronically noisy reporter (low trust) moves the
    // estimate slowly; a clean one at full smoothing speed.
    double alpha = options_.demand_smoothing;
    if (validator_ != nullptr) alpha *= validator_->trust(report.cluster);
    const std::size_t k_limit =
        std::min(report.ingress_rps.size(), app_->class_count());
    for (std::size_t k = 0; k < k_limit; ++k) {
      double& d = demand_(k, report.cluster.index());
      const double observed = report.ingress_rps[k];
      d = demand_seen_ ? d + alpha * (observed - d) : observed;
    }
  }
  if (!reports.empty()) demand_seen_ = true;

  // Age out clusters we have not heard from for too long: their demand is
  // unobservable, so decay it toward zero instead of optimizing ghost load
  // from silently-stale state. Recovery is automatic on the next report.
  for (std::size_t c = 0; c < topology_->cluster_count(); ++c) {
    if (last_seen_round_[c] == 0) continue;  // never reported yet
    const std::uint64_t missed = rounds_ - last_seen_round_[c];
    if (missed > options_.stale_after_periods) {
      for (std::size_t k = 0; k < app_->class_count(); ++k) {
        double& d = demand_(k, c);
        d *= options_.stale_demand_decay;
        // Snap to exactly zero at the floor: geometric decay alone never
        // reaches it, and a long-dark cluster must not keep attracting
        // ghost-load routing forever.
        if (d < options_.stale_demand_floor) d = 0.0;
      }
      if (!cluster_stale_[c]) {
        cluster_stale_[c] = true;
        SLATE_LOG(kWarn) << "cluster " << c << " stale: no report for "
                         << missed << " periods; decaying its demand";
      }
    } else if (cluster_stale_[c]) {
      cluster_stale_[c] = false;
      SLATE_LOG(kInfo) << "cluster " << c << " reporting again";
    }
  }
}

GlobalController::LiveSignal GlobalController::live_signal(
    const std::vector<ClusterReport>& reports) const {
  LiveSignal sig;
  double weighted_p99 = 0.0;
  for (const auto& report : reports) {
    const double period = std::max(report.period(), 1e-9);
    for (const auto& e : report.e2e) {
      sig.samples += e.count;
      sig.goodput_rps += static_cast<double>(e.count) / period;
      weighted_p99 += static_cast<double>(e.count) * e.p99_latency;
    }
  }
  if (sig.samples > 0) {
    sig.p99 = weighted_p99 / static_cast<double>(sig.samples);
  }
  return sig;
}

std::shared_ptr<const RoutingRuleSet> GlobalController::emit(
    std::shared_ptr<const RoutingRuleSet> rules) {
  current_rules_ = rules;
  ++epoch_seq_;
  return rules;
}

const FlatMatrix<double>& GlobalController::solve_demand_input(double now) {
  if (forecaster_ != nullptr) {
    forecaster_->blend(demand_, &solve_demand_);
    ++forecast_solves_;
    return solve_demand_;
  }
  if (options_.forecast.kind == ForecastKind::kOracle &&
      options_.forecast.oracle_schedule != nullptr) {
    // The pushed rules actuate over (now, now + horizon]; the load they
    // should be sized for is the window mean, which for any smooth profile
    // is the midpoint sample — reading the window END would overshoot a
    // moving demand by half a period.
    const double t = now + 0.5 * options_.forecast.horizon;
    for (std::size_t k = 0; k < solve_demand_.rows(); ++k) {
      for (std::size_t c = 0; c < solve_demand_.cols(); ++c) {
        solve_demand_(k, c) =
            options_.forecast.oracle_schedule->rate_at(ClassId{k}, ClusterId{c}, t);
      }
    }
    ++forecast_solves_;
    return solve_demand_;
  }
  return demand_;
}

std::shared_ptr<const RoutingRuleSet> GlobalController::on_reports(
    const std::vector<ClusterReport>& reports, double now) {
  ++rounds_;

  // 0. Telemetry admission: sanitize a copy before anything downstream
  // sees it — the raw reports stay untouched for the caller.
  const std::vector<ClusterReport>* admitted = &reports;
  std::vector<ClusterReport> sanitized;
  if (validator_ != nullptr) {
    sanitized = reports;
    for (auto& report : sanitized) validator_->admit(report);
    admitted = &sanitized;
  }

  ingest(*admitted);

  // 1b. Forecast bookkeeping runs EVERY round — including rounds that end
  // in a hold — so backtests and seasonal indices stay aligned with
  // wall-clock control periods (a Holt-Winters season is `season` periods
  // of elapsed time, not `season` successful solves).
  if (forecaster_ != nullptr) forecaster_->step(demand_);

  // 2. Guarded rollout, phase 1: canary verdicts against live telemetry,
  // rollback, and freeze bookkeeping.
  bool rollout_hold = false;
  if (rollout_ != nullptr) {
    const LiveSignal sig = live_signal(*admitted);
    RolloutDecision decision =
        rollout_->observe(sig.goodput_rps, sig.p99, sig.samples);
    if (decision.rolled_back) return emit(decision.rules);
    rollout_hold = decision.hold;
  }

  // 3. Refit the latency model from accumulated samples.
  if (!options_.freeze_model) {
    fitter_.fit(store_, *deployment_, model_);
  }

  if (rollout_hold) return nullptr;  // mid-canary or frozen: no actuation

  // 4. Optimize — on the measured demand estimate, the forecast blend, or
  // the oracle's future, depending on the armed forecast mode. The demand
  // check is written non-finite-safe: a poisoned matrix (possible only
  // with admission off) must hold, not solve.
  const FlatMatrix<double>& solve_demand =
      apply_drain_divert(solve_demand_input(now));
  double total_demand = 0.0;
  for (double d : solve_demand.data()) total_demand += d;
  if (!(total_demand > 0.0) || !std::isfinite(total_demand)) return nullptr;

  // 4a. Re-solve gate: once a plan exists, a period whose demand moved less
  // than resolve_tolerance in every cell keeps it — a steady-state workload
  // should not pay a full solve (or churn rules) every control period.
  if (options_.resolve_tolerance > 0.0 && !capacity_dirty_ &&
      current_rules_ != nullptr && current_rules_->size() > 0 &&
      last_solved_demand_.data().size() == solve_demand.data().size() &&
      !solve_demand.data().empty()) {
    double worst = 0.0;
    const std::vector<double>& prev = last_solved_demand_.data();
    const std::vector<double>& cur = solve_demand.data();
    const double floor = std::max(options_.resolve_floor_rps, 1.0);
    for (std::size_t i = 0; i < cur.size(); ++i) {
      // Absolute floor: noise in a cell below the floor is not movement.
      const double scale =
          std::max({std::abs(prev[i]), std::abs(cur[i]), floor});
      worst = std::max(worst, std::abs(cur[i] - prev[i]) / scale);
    }
    if (worst <= options_.resolve_tolerance) {
      ++resolve_skips_;
      return nullptr;  // demand is flat: hold current rules, skip the solve
    }
  }
  last_solved_demand_ = solve_demand;
  capacity_dirty_ = false;
  // Live capacity as the solver should see it (drain scaling applied).
  const std::vector<unsigned>* live = capacity_view();

  // Run the solver ladder, wall-clock it, and classify the rung for the run
  // summary. Measurement only — see SolveTelemetry.
  const auto solve_t0 = std::chrono::steady_clock::now();
  SolverGuard::Outcome outcome = solver_guard_.solve(
      optimizer_, model_, solve_demand, live, &optimizer_cache_, solver_chaos_,
      current_rules_ != nullptr && current_rules_->size() > 0);
  // A hold keeps last-known-good rules and leaves last_result_ as the plan
  // in force (the bi-level coordinator keeps re-pushing it).
  const bool hold = outcome.rung == SolverRung::kHoldLastGood;
  if (!hold) last_result_ = std::move(outcome.result);
  // Warm = the cache did real work this period: either the steady-state
  // memo hit (warm_started) or at least one group's simplex reused the
  // previous period's basis. A group still cold-solves when its old basis
  // is singular for the new coefficients, and a solve that warmed the bulk
  // of the problem should not read as cold in the summary.
  const bool warm = last_result_.warm_started || last_result_.warm_groups > 0;
  std::uint64_t SolveTelemetry::*const arm =
      hold ? &SolveTelemetry::hold
      : outcome.rung == SolverRung::kFastHeuristic ? &SolveTelemetry::fast
      : outcome.rung == SolverRung::kCapacitySplit ? &SolveTelemetry::split
      : warm ? &SolveTelemetry::exact_warm
             : &SolveTelemetry::exact_cold;
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - solve_t0)
                             .count();
  ++solve_telemetry_.solves;
  solve_telemetry_.last_seconds = elapsed;
  solve_telemetry_.max_seconds = std::max(solve_telemetry_.max_seconds, elapsed);
  solve_telemetry_.total_seconds += elapsed;
  ++(solve_telemetry_.*arm);
  if (hold) return nullptr;

  // Record the capacity view this plan was solved against — the bi-level
  // coordinator converts the plan's station utilizations into busy-server
  // loads off it (planned_servers).
  planned_capacity_ = *live;

  // 4b. N-1 headroom: stress-test the plan against each single-cluster
  // failure and re-price with a padded cap until the worst-case reroute
  // fits (docs/resilience.md). Runs before emission so rollout damping
  // steps toward the padded target.
  if (options_.contingency.enabled && last_result_.rules != nullptr) {
    plan_contingency(solve_demand, live,
                     outcome.rung != SolverRung::kCapacitySplit);
  }

  // 5. Emit rules: the raw target, or a damped rollout step toward it
  // (flap detection and canary arming included).
  if (rollout_ == nullptr) return emit(last_result_.rules);
  RolloutDecision decision = rollout_->apply(last_result_.rules);
  if (decision.rules == nullptr) return nullptr;  // flap freeze
  return emit(decision.rules);
}

}  // namespace slate

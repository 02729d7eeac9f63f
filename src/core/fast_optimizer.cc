#include "core/fast_optimizer.h"

#include <algorithm>
#include <cmath>

#include "core/plan_eval.h"
#include "lp/piecewise.h"

namespace slate {
namespace {

// Working state for one optimization run.
struct Descent {
  const Application& app;
  const Deployment& deployment;
  const Topology& topology;
  const LatencyModel& model;
  const FastOptimizerOptions& options;

  std::size_t C, K, S;
  FlatMatrix<double> eff_demand;  // K x C
  // weights[k][n][i * C + j]; rows exist only for n >= 1 and deployed pairs
  // (-1 weight marks "not deployable").
  std::vector<std::vector<std::vector<double>>> weights;
  // Forward-pass outputs.
  std::vector<std::vector<std::vector<double>>> arrivals;  // [k][n][c]
  std::vector<double> utilization;                         // s * C + c
  std::vector<double> servers;                             // s * C + c

  double n_servers(std::size_t s, std::size_t c) const {
    return servers[s * C + c];
  }

  // Recomputes arrivals and utilizations from the weights.
  void forward() {
    for (auto& u : utilization) u = 0.0;
    for (std::size_t k = 0; k < K; ++k) {
      const CallGraph& graph = app.traffic_class(ClassId{k}).graph;
      for (std::size_t n = 0; n < graph.node_count(); ++n) {
        auto& a = arrivals[k][n];
        std::fill(a.begin(), a.end(), 0.0);
        if (n == 0) {
          for (std::size_t c = 0; c < C; ++c) a[c] = eff_demand(k, c);
        } else {
          const std::size_t p = graph.node(n).parent;
          const double mult = graph.node(n).multiplicity;
          for (std::size_t i = 0; i < C; ++i) {
            const double out = arrivals[k][p][i] * mult;
            if (out <= 0.0) continue;
            for (std::size_t j = 0; j < C; ++j) {
              const double w = weights[k][n][i * C + j];
              if (w > 0.0) a[j] += out * w;
            }
          }
        }
        const ServiceId svc = graph.node(n).service;
        for (std::size_t c = 0; c < C; ++c) {
          if (a[c] > 0.0) {
            utilization[svc.index() * C + c] +=
                a[c] * model.service_time(svc, ClassId{k}, ClusterId{c}) /
                n_servers(svc.index(), c);
          }
        }
      }
    }
  }

  // Exact objective at the current weights: compute + queueing + network +
  // weighted egress (latency-seconds per second).
  double objective() const {
    double total = 0.0;
    for (std::size_t s = 0; s < S; ++s) {
      for (std::size_t c = 0; c < C; ++c) {
        const double u = utilization[s * C + c];
        if (u <= 0.0) continue;
        const double n = n_servers(s, c);
        total += n * (u + queue_cost(std::min(u, 0.999)));
      }
    }
    for (std::size_t k = 0; k < K; ++k) {
      const CallGraph& graph = app.traffic_class(ClassId{k}).graph;
      for (std::size_t n = 1; n < graph.node_count(); ++n) {
        const std::size_t p = graph.node(n).parent;
        const double mult = graph.node(n).multiplicity;
        for (std::size_t i = 0; i < C; ++i) {
          const double out = arrivals[k][p][i] * mult;
          if (out <= 0.0) continue;
          for (std::size_t j = 0; j < C; ++j) {
            if (i == j) continue;
            const double w = weights[k][n][i * C + j];
            if (w <= 0.0) continue;
            total += out * w *
                     call_edge_cost(topology, graph.node(n), ClusterId{i},
                                    ClusterId{j}, options.cost_weight);
          }
        }
      }
    }
    return total;
  }

  // Marginal cost of sending one more class-k call of node n to cluster j:
  // the service's compute time there plus the station's queue-cost slope.
  double destination_marginal(std::size_t k, const CallGraph& graph,
                              std::size_t n, std::size_t j) const {
    const ServiceId svc = graph.node(n).service;
    const double st = model.service_time(svc, ClassId{k}, ClusterId{j});
    const double u =
        std::min(utilization[svc.index() * C + j], options.max_utilization);
    return st * (1.0 + queue_cost_derivative(u));
  }
};

}  // namespace

FastRouteOptimizer::FastRouteOptimizer(const Application& app,
                                       const Deployment& deployment,
                                       const Topology& topology,
                                       FastOptimizerOptions options)
    : app_(&app),
      deployment_(&deployment),
      topology_(&topology),
      options_(options) {
  if (!(options_.max_utilization > 0.0 && options_.max_utilization < 1.0)) {
    throw std::invalid_argument(
        "FastRouteOptimizer: max_utilization must be in (0,1)");
  }
  app.validate();
  deployment.validate();
}

OptimizerResult FastRouteOptimizer::optimize(
    const LatencyModel& model, const FlatMatrix<double>& demand,
    const std::vector<unsigned>* live_servers) const {
  const std::size_t C = deployment_->cluster_count();
  const std::size_t K = app_->class_count();
  const std::size_t S = app_->service_count();

  Descent d{*app_, *deployment_, *topology_, model, options_, C, K, S,
            front_door_demand(*app_, *deployment_, *topology_, demand),
            {}, {}, {}, {}};

  d.servers.assign(S * C, 0.0);
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t c = 0; c < C; ++c) {
      if (!deployment_->is_deployed(ServiceId{s}, ClusterId{c})) continue;
      d.servers[s * C + c] = servers_at(*deployment_, live_servers, s, c);
    }
  }

  // Initialize weights: local where deployed, else nearest.
  d.weights.resize(K);
  d.arrivals.resize(K);
  d.utilization.assign(S * C, 0.0);
  for (std::size_t k = 0; k < K; ++k) {
    const CallGraph& graph = app_->traffic_class(ClassId{k}).graph;
    const std::size_t N = graph.node_count();
    d.weights[k].assign(N, {});
    d.arrivals[k].assign(N, std::vector<double>(C, 0.0));
    for (std::size_t n = 1; n < N; ++n) {
      d.weights[k][n].assign(C * C, -1.0);
      const ServiceId svc = graph.node(n).service;
      const ServiceId parent_svc = graph.node(graph.node(n).parent).service;
      const auto candidates = deployment_->clusters_for(svc);
      for (std::size_t i = 0; i < C; ++i) {
        if (!deployment_->is_deployed(parent_svc, ClusterId{i})) continue;
        for (ClusterId j : candidates) d.weights[k][n][i * C + j.index()] = 0.0;
        const ClusterId home =
            topology_->local_or_nearest(ClusterId{i}, candidates);
        d.weights[k][n][i * C + home.index()] = 1.0;
      }
    }
  }

  // --- Descent -------------------------------------------------------------
  d.forward();
  double best = d.objective();
  double step = options_.step;
  std::size_t sweeps = 0;
  bool converged = false;

  for (; sweeps < options_.max_sweeps; ++sweeps) {
    // One sweep: for every knob, move `step` of weight from the costliest
    // used destination to the cheapest one.
    for (std::size_t k = 0; k < K; ++k) {
      const CallGraph& graph = app_->traffic_class(ClassId{k}).graph;
      for (std::size_t n = 1; n < graph.node_count(); ++n) {
        const std::size_t p = graph.node(n).parent;
        for (std::size_t i = 0; i < C; ++i) {
          const double out = d.arrivals[k][p][i] * graph.node(n).multiplicity;
          if (out <= 0.0) continue;
          auto& w = d.weights[k][n];
          // Marginal total cost per destination.
          double best_cost = 0.0, worst_cost = 0.0;
          std::size_t best_j = C, worst_j = C;
          for (std::size_t j = 0; j < C; ++j) {
            if (w[i * C + j] < 0.0) continue;
            double cost = d.destination_marginal(k, graph, n, j);
            if (i != j) {
              cost += call_edge_cost(*topology_, graph.node(n), ClusterId{i},
                                     ClusterId{j}, options_.cost_weight);
            }
            if (best_j == C || cost < best_cost) {
              best_cost = cost;
              best_j = j;
            }
            if (w[i * C + j] > 0.0 && (worst_j == C || cost > worst_cost)) {
              worst_cost = cost;
              worst_j = j;
            }
          }
          if (best_j == C || worst_j == C || best_j == worst_j) continue;
          if (worst_cost - best_cost <= 1e-12) continue;
          const double delta = std::min(step, w[i * C + worst_j]);
          w[i * C + worst_j] -= delta;
          w[i * C + best_j] += delta;
          // Keep utilizations roughly current within the sweep.
          const ServiceId svc = graph.node(n).service;
          const double st_worst =
              model.service_time(svc, ClassId{k}, ClusterId{worst_j});
          const double st_best =
              model.service_time(svc, ClassId{k}, ClusterId{best_j});
          d.utilization[svc.index() * C + worst_j] -=
              out * delta * st_worst / d.n_servers(svc.index(), worst_j);
          d.utilization[svc.index() * C + best_j] +=
              out * delta * st_best / d.n_servers(svc.index(), best_j);
        }
      }
    }
    d.forward();
    const double now = d.objective();
    if (now > best - std::abs(best) * options_.relative_tolerance) {
      if (now > best) {
        // Overshot: halve the step and keep going from the better point.
        step *= 0.5;
        if (step < 1e-3) {
          converged = true;
          break;
        }
      } else {
        converged = true;
        best = now;
        break;
      }
    }
    best = std::min(best, now);
  }

  // --- Package the result ----------------------------------------------------
  OptimizerResult result;
  result.status = converged ? LpStatus::kOptimal : LpStatus::kIterationLimit;
  result.objective = best;
  result.simplex_stats.iterations = sweeps;

  auto rules = std::make_shared<RoutingRuleSet>();
  for (std::size_t k = 0; k < K; ++k) {
    const CallGraph& graph = app_->traffic_class(ClassId{k}).graph;
    for (std::size_t n = 1; n < graph.node_count(); ++n) {
      const ServiceId parent_svc = graph.node(graph.node(n).parent).service;
      for (std::size_t i = 0; i < C; ++i) {
        if (!deployment_->is_deployed(parent_svc, ClusterId{i})) continue;
        RouteWeights rule;
        for (std::size_t j = 0; j < C; ++j) {
          const double w = d.weights[k][n][i * C + j];
          if (w < 0.0) continue;
          rule.clusters.push_back(ClusterId{j});
          rule.weights.push_back(std::max(w, 0.0));
        }
        rule.normalize();
        rules->set_rule(ClassId{k}, n, ClusterId{i}, std::move(rule));
      }
    }
  }
  rules->validate();
  result.rules = std::move(rules);

  // Predicted metrics from the final forward pass.
  double total_demand = 0.0;
  for (double dem : d.eff_demand.data()) total_demand += dem;
  double latency = 0.0, egress = 0.0;
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t c = 0; c < C; ++c) {
      const double u = d.utilization[s * C + c];
      if (d.servers[s * C + c] <= 0.0) continue;
      result.station_plans.push_back(
          StationPlan{ServiceId{s}, ClusterId{c}, u,
                      std::max(0.0, u - options_.max_utilization)});
      latency += d.servers[s * C + c] * (u + queue_cost(std::min(u, 0.999)));
    }
  }
  for (std::size_t k = 0; k < K; ++k) {
    const CallGraph& graph = app_->traffic_class(ClassId{k}).graph;
    for (std::size_t n = 1; n < graph.node_count(); ++n) {
      const std::size_t p = graph.node(n).parent;
      const double mult = graph.node(n).multiplicity;
      for (std::size_t i = 0; i < C; ++i) {
        const double out = d.arrivals[k][p][i] * mult;
        if (out <= 0.0) continue;
        for (std::size_t j = 0; j < C; ++j) {
          if (i == j) continue;
          const double w = d.weights[k][n][i * C + j];
          if (w <= 0.0) continue;
          const ClusterId ci{i}, cj{j};
          latency += out * w *
                     (topology_->one_way_latency(ci, cj) +
                      topology_->one_way_latency(cj, ci));
          egress += out * w *
                    (static_cast<double>(graph.node(n).request_bytes) *
                         topology_->egress_price_per_gb(ci, cj) +
                     static_cast<double>(graph.node(n).response_bytes) *
                         topology_->egress_price_per_gb(cj, ci)) /
                    kBytesPerGb;
        }
      }
    }
  }
  result.predicted_mean_latency =
      total_demand > 0.0 ? latency / total_demand : 0.0;
  result.predicted_egress_dollars_per_sec = egress;
  return result;
}

}  // namespace slate

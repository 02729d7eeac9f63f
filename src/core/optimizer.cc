#include "core/optimizer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/plan_eval.h"
#include "lp/piecewise.h"
#include "util/strfmt.h"

namespace slate {
namespace {

constexpr double kZeroFlow = 1e-9;

// Dense index helpers for the variable maps.
struct VarMaps {
  // x[k][n][i * C + j]; -1 where not deployable. Only nodes n >= 1.
  std::vector<std::vector<std::vector<int>>> x;
  // a[k][n][j]; -1 where child service not deployed at j.
  std::vector<std::vector<std::vector<int>>> a;
  // Station vars, indexed s * C + c; -1 where not deployed.
  std::vector<int> u, o, t;
};

// One independently solvable sub-problem: a set of classes closed under
// service sharing, plus the services they touch (which get station vars).
struct ClassGroup {
  std::vector<std::size_t> classes;   // ascending class ids
  std::vector<std::size_t> services;  // ascending service ids
};

// Partitions classes by shared services (union-find): two classes that
// touch a common service share its capacity rows and must be solved
// jointly; classes with disjoint service sets separate exactly — their
// variables appear in no common constraint and the objective is a sum.
// Groups are ordered by smallest class id; services a class never
// references belong to no group.
std::vector<ClassGroup> partition_classes(const Application& app) {
  const std::size_t K = app.class_count();
  const std::size_t S = app.service_count();
  std::vector<std::size_t> parent(K);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](std::size_t a) {
    while (parent[a] != a) {
      parent[a] = parent[parent[a]];
      a = parent[a];
    }
    return a;
  };

  std::vector<std::size_t> owner(S, K);  // first class touching each service
  for (std::size_t k = 0; k < K; ++k) {
    const CallGraph& graph = app.traffic_class(ClassId{k}).graph;
    for (std::size_t n = 0; n < graph.node_count(); ++n) {
      const std::size_t s = graph.node(n).service.index();
      if (owner[s] == K) {
        owner[s] = k;
      } else {
        const std::size_t ra = find(k);
        const std::size_t rb = find(owner[s]);
        if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
      }
    }
  }

  std::vector<std::size_t> root_group(K, K);
  std::vector<ClassGroup> groups;
  for (std::size_t k = 0; k < K; ++k) {
    const std::size_t r = find(k);
    if (root_group[r] == K) {
      root_group[r] = groups.size();
      groups.emplace_back();
    }
    groups[root_group[r]].classes.push_back(k);
  }
  for (std::size_t s = 0; s < S; ++s) {
    if (owner[s] == K) continue;
    groups[root_group[find(owner[s])]].services.push_back(s);
  }
  return groups;
}

// Everything a group solve reads (immutable across groups).
struct SolveContext {
  const Application& app;
  const Deployment& deployment;
  const Topology& topology;
  const OptimizerOptions& options;
  const LatencyModel& model;
  const FlatMatrix<double>& eff_demand;
  const std::vector<unsigned>* live_servers;
  std::size_t C;
};

// Builds and solves one group's LP (or the MILP in integer mode), extracts
// its rules into `rules`, records station utilization/overflow into the
// shared plan arrays, and accumulates the predicted-quality terms. With a
// single group spanning every class and service this is exactly the legacy
// whole-problem build — identical variable and constraint order — so
// decomposition cannot change the undecomposed answer.
LpStatus solve_group(const SolveContext& ctx, const ClassGroup& group,
                     SimplexBasis* basis, OptimizerResult& result,
                     RoutingRuleSet& rules, std::vector<double>& plan_u,
                     std::vector<double>& plan_o, double& latency_per_sec,
                     double& egress_per_sec, double& server_per_sec) {
  const std::size_t C = ctx.C;
  const Application& app = ctx.app;
  const Deployment& deployment = ctx.deployment;
  const Topology& topology = ctx.topology;
  const OptimizerOptions& options = ctx.options;

  LpModel lp;
  VarMaps vars;
  vars.x.resize(app.class_count());
  vars.a.resize(app.class_count());

  // --- Variables ---------------------------------------------------------
  for (const std::size_t k : group.classes) {
    const CallGraph& graph = app.traffic_class(ClassId{k}).graph;
    const std::size_t N = graph.node_count();
    vars.x[k].assign(N, {});
    vars.a[k].assign(N, std::vector<int>(C, -1));
    for (std::size_t n = 0; n < N; ++n) {
      const ServiceId svc = graph.node(n).service;
      for (std::size_t j = 0; j < C; ++j) {
        if (!deployment.is_deployed(svc, ClusterId{j})) continue;
        if (n == 0) {
          // Root arrivals are pinned to the effective demand (entry service
          // serves in the arrival cluster).
          const double d = ctx.eff_demand(k, j);
          vars.a[k][n][j] =
              lp.add_variable(d, d, 0.0, strfmt("a[k%zu][n0][c%zu]", k, j));
        } else {
          vars.a[k][n][j] = lp.add_variable(
              0.0, kLpInfinity, 0.0, strfmt("a[k%zu][n%zu][c%zu]", k, n, j));
        }
      }
      if (n == 0) continue;
      const ServiceId parent_svc = graph.node(graph.node(n).parent).service;
      vars.x[k][n].assign(C * C, -1);
      for (std::size_t i = 0; i < C; ++i) {
        if (!deployment.is_deployed(parent_svc, ClusterId{i})) continue;
        for (std::size_t j = 0; j < C; ++j) {
          if (!deployment.is_deployed(svc, ClusterId{j})) continue;
          const double coeff =
              i == j ? 0.0
                     : call_edge_cost(topology, graph.node(n), ClusterId{i},
                                      ClusterId{j}, options.cost_weight);
          vars.x[k][n][i * C + j] = lp.add_variable(
              0.0, kLpInfinity, coeff,
              strfmt("x[k%zu][n%zu][%zu->%zu]", k, n, i, j));
        }
      }
    }
  }

  // Station variables (only this group's services: a service in no other
  // group can receive flow from no other class).
  vars.u.assign(app.service_count() * C, -1);
  vars.o.assign(app.service_count() * C, -1);
  vars.t.assign(app.service_count() * C, -1);
  const auto tangents =
      queue_cost_tangents(options.max_utilization, options.tangent_count);
  for (const std::size_t s : group.services) {
    for (std::size_t c = 0; c < C; ++c) {
      if (!deployment.is_deployed(ServiceId{s}, ClusterId{c})) continue;
      const double n_servers = servers_at(deployment, ctx.live_servers, s, c);
      // Joint cost: busy work u*n implies u*n/price_target provisioned
      // replicas at this cluster's $/server-hour. weight = 0 adds exactly
      // 0.0 to the coefficient, keeping the legacy objective bit-identical.
      double busy_coeff = n_servers;
      if (options.server_cost_weight > 0.0) {
        busy_coeff += options.server_cost_weight *
                      topology.server_price_per_hour(ClusterId{c}) / 3600.0 *
                      n_servers / options.server_price_target;
      }
      vars.u[s * C + c] =
          lp.add_variable(0.0, options.max_utilization, busy_coeff,
                          strfmt("u[s%zu][c%zu]", s, c));
      vars.o[s * C + c] =
          lp.add_variable(0.0, kLpInfinity, busy_coeff + options.overflow_penalty,
                          strfmt("o[s%zu][c%zu]", s, c));
      vars.t[s * C + c] = lp.add_variable(0.0, kLpInfinity, n_servers,
                                          strfmt("t[s%zu][c%zu]", s, c));
    }
  }

  // --- Constraints -------------------------------------------------------
  for (const std::size_t k : group.classes) {
    const CallGraph& graph = app.traffic_class(ClassId{k}).graph;
    for (std::size_t n = 1; n < graph.node_count(); ++n) {
      const std::size_t p = graph.node(n).parent;
      const double mult = graph.node(n).multiplicity;

      // Inflow: a[k][n][j] = sum_i x[k][n][i][j].
      for (std::size_t j = 0; j < C; ++j) {
        if (vars.a[k][n][j] < 0) continue;
        std::vector<LinearTerm> terms{{vars.a[k][n][j], 1.0}};
        for (std::size_t i = 0; i < C; ++i) {
          const int xv = vars.x[k][n][i * C + j];
          if (xv >= 0) terms.push_back({xv, -1.0});
        }
        lp.add_constraint(std::move(terms), Relation::kEqual, 0.0,
                          strfmt("inflow[k%zu][n%zu][c%zu]", k, n, j));
      }

      // Outflow: sum_j x[k][n][i][j] = mult * a[k][p][i].
      for (std::size_t i = 0; i < C; ++i) {
        if (vars.a[k][p][i] < 0) continue;
        std::vector<LinearTerm> terms{{vars.a[k][p][i], -mult}};
        bool any = false;
        for (std::size_t j = 0; j < C; ++j) {
          const int xv = vars.x[k][n][i * C + j];
          if (xv >= 0) {
            terms.push_back({xv, 1.0});
            any = true;
          }
        }
        if (!any) {
          // The child is deployed nowhere reachable — deployment.validate()
          // precludes this, but guard anyway.
          throw std::logic_error("RouteOptimizer: call edge with no candidates");
        }
        lp.add_constraint(std::move(terms), Relation::kEqual, 0.0,
                          strfmt("outflow[k%zu][n%zu][c%zu]", k, n, i));
      }
    }
  }

  // Station utilization definitions and queue-cost epigraphs.
  for (const std::size_t s : group.services) {
    for (std::size_t c = 0; c < C; ++c) {
      const int uv = vars.u[s * C + c];
      if (uv < 0) continue;
      const double n_servers = servers_at(deployment, ctx.live_servers, s, c);
      std::vector<LinearTerm> terms{{uv, -1.0}, {vars.o[s * C + c], -1.0}};
      for (const std::size_t k : group.classes) {
        const CallGraph& graph = app.traffic_class(ClassId{k}).graph;
        const double st =
            ctx.model.service_time(ServiceId{s}, ClassId{k}, ClusterId{c});
        for (std::size_t n = 0; n < graph.node_count(); ++n) {
          if (graph.node(n).service != ServiceId{s}) continue;
          const int av = vars.a[k][n][c];
          if (av >= 0) terms.push_back({av, st / n_servers});
        }
      }
      lp.add_constraint(std::move(terms), Relation::kEqual, 0.0,
                        strfmt("util[s%zu][c%zu]", s, c));

      for (const auto& tan : tangents) {
        lp.add_constraint({{vars.t[s * C + c], 1.0}, {uv, -tan.slope}},
                          Relation::kGreaterEqual, tan.intercept,
                          strfmt("queue[s%zu][c%zu]", s, c));
      }
    }
  }

  // Optional all-or-nothing MILP mode: binary y per (k, n, i, j) with
  // x <= D_k * y, sum_j y = 1.
  if (options.integer_routes) {
    for (const std::size_t k : group.classes) {
      const CallGraph& graph = app.traffic_class(ClassId{k}).graph;
      double class_demand = 0.0;
      for (std::size_t c = 0; c < C; ++c) class_demand += ctx.eff_demand(k, c);
      // Generous bound: total demand times the worst-case multiplicity chain.
      double max_mult = 1.0;
      for (std::size_t n = 1; n < graph.node_count(); ++n) {
        max_mult = std::max(max_mult, graph.executions_per_request(n));
      }
      const double big = std::max(1.0, class_demand * max_mult);
      for (std::size_t n = 1; n < graph.node_count(); ++n) {
        for (std::size_t i = 0; i < C; ++i) {
          std::vector<LinearTerm> pick_one;
          bool origin_possible = false;
          for (std::size_t j = 0; j < C; ++j) {
            const int xv = vars.x[k][n][i * C + j];
            if (xv < 0) continue;
            origin_possible = true;
            const int yv = lp.add_variable(
                0.0, 1.0, 0.0, strfmt("y[k%zu][n%zu][%zu->%zu]", k, n, i, j));
            lp.set_integer(yv);
            lp.add_constraint({{xv, 1.0}, {yv, -big}}, Relation::kLessEqual, 0.0);
            pick_one.push_back({yv, 1.0});
          }
          if (origin_possible) {
            lp.add_constraint(std::move(pick_one), Relation::kEqual, 1.0);
          }
        }
      }
    }
  }

  result.variables += lp.variable_count();
  result.constraints += lp.constraint_count();

  // --- Solve -------------------------------------------------------------
  LpSolution solution;
  SimplexStats stats;
  if (options.integer_routes) {
    MilpOptions milp = options.milp;
    milp.simplex = options.simplex;
    solution = solve_milp(lp, milp);
  } else {
    solution = solve_lp(lp, options.simplex, &stats, basis);
  }
  result.simplex_stats.iterations += stats.iterations;
  result.simplex_stats.phase1_rows += stats.phase1_rows;
  result.simplex_stats.columns += stats.columns;
  ++result.solve_groups;
  if (stats.warm_started) ++result.warm_groups;
  if (!solution.ok()) return solution.status;
  result.objective += solution.objective;

  // --- Extract rules -----------------------------------------------------
  for (const std::size_t k : group.classes) {
    const CallGraph& graph = app.traffic_class(ClassId{k}).graph;
    for (std::size_t n = 1; n < graph.node_count(); ++n) {
      const auto candidates = deployment.clusters_for(graph.node(n).service);
      const std::size_t p = graph.node(n).parent;
      const ServiceId parent_svc = graph.node(p).service;
      for (std::size_t i = 0; i < C; ++i) {
        if (!deployment.is_deployed(parent_svc, ClusterId{i})) continue;
        RouteWeights weights;
        double total = 0.0;
        for (std::size_t j = 0; j < C; ++j) {
          const int xv = vars.x[k][n][i * C + j];
          if (xv < 0) continue;
          const double flow = std::max(0.0, solution.values[xv]);
          weights.clusters.push_back(ClusterId{j});
          weights.weights.push_back(flow);
          total += flow;
        }
        if (total <= kZeroFlow) {
          // No flow observed from this origin: deterministic fallback so the
          // data plane always has a complete rule.
          const ClusterId fallback =
              topology.local_or_nearest(ClusterId{i}, candidates);
          weights.weights.assign(weights.weights.size(), 0.0);
          for (std::size_t wi = 0; wi < weights.clusters.size(); ++wi) {
            if (weights.clusters[wi] == fallback) weights.weights[wi] = 1.0;
          }
        }
        weights.normalize();
        rules.set_rule(ClassId{k}, n, ClusterId{i}, std::move(weights));
      }
    }
  }

  // --- Predicted quality (exact queue cost, not the PWL approximation) ----
  for (const std::size_t s : group.services) {
    for (std::size_t c = 0; c < C; ++c) {
      const int uv = vars.u[s * C + c];
      if (uv < 0) continue;
      const double n_servers = servers_at(deployment, ctx.live_servers, s, c);
      const double u = solution.values[uv];
      const double o = solution.values[vars.o[s * C + c]];
      plan_u[s * C + c] = u + o;
      plan_o[s * C + c] = o;
      latency_per_sec += n_servers * (u + o);
      latency_per_sec += n_servers * queue_cost(std::min(u + o, 0.999));
      if (options.server_cost_weight > 0.0) {
        server_per_sec += topology.server_price_per_hour(ClusterId{c}) /
                          3600.0 * n_servers * (u + o) /
                          options.server_price_target;
      }
    }
  }
  for (const std::size_t k : group.classes) {
    const CallGraph& graph = app.traffic_class(ClassId{k}).graph;
    for (std::size_t n = 1; n < graph.node_count(); ++n) {
      for (std::size_t i = 0; i < C; ++i) {
        for (std::size_t j = 0; j < C; ++j) {
          const int xv = vars.x[k][n][i * C + j];
          if (xv < 0 || i == j) continue;
          const double flow = solution.values[xv];
          if (flow <= 0.0) continue;
          const ClusterId ci{i}, cj{j};
          latency_per_sec += flow * (topology.one_way_latency(ci, cj) +
                                     topology.one_way_latency(cj, ci));
          egress_per_sec += flow *
                            (static_cast<double>(graph.node(n).request_bytes) *
                                 topology.egress_price_per_gb(ci, cj) +
                             static_cast<double>(graph.node(n).response_bytes) *
                                 topology.egress_price_per_gb(cj, ci)) /
                            kBytesPerGb;
        }
      }
    }
  }
  return LpStatus::kOptimal;
}

}  // namespace

std::size_t OptimizerResult::overflowed_stations() const noexcept {
  std::size_t n = 0;
  for (const StationPlan& sp : station_plans) {
    if (sp.overflow > 1e-6) ++n;
  }
  return n;
}

double OptimizerResult::peak_utilization() const noexcept {
  double peak = 0.0;
  for (const StationPlan& sp : station_plans) {
    peak = std::max(peak, sp.utilization);
  }
  return peak;
}

RouteOptimizer::RouteOptimizer(const Application& app,
                               const Deployment& deployment,
                               const Topology& topology,
                               OptimizerOptions options)
    : app_(&app),
      deployment_(&deployment),
      topology_(&topology),
      options_(options) {
  if (deployment.cluster_count() != topology.cluster_count()) {
    throw std::invalid_argument(
        "RouteOptimizer: deployment/topology cluster count mismatch");
  }
  if (!(options_.max_utilization > 0.0 && options_.max_utilization < 1.0)) {
    throw std::invalid_argument("RouteOptimizer: max_utilization must be in (0,1)");
  }
  if (options_.server_cost_weight > 0.0 &&
      !(options_.server_price_target > 0.0 &&
        options_.server_price_target < 1.0)) {
    throw std::invalid_argument(
        "RouteOptimizer: server_price_target must be in (0,1)");
  }
  app.validate();
  deployment.validate();
}

OptimizerResult RouteOptimizer::optimize(
    const LatencyModel& model, const FlatMatrix<double>& demand,
    const std::vector<unsigned>* live_servers, OptimizerCache* cache) const {
  const std::size_t C = deployment_->cluster_count();
  const std::size_t K = app_->class_count();
  const std::size_t S = app_->service_count();

  // Steady-state memo: when demand, the fitted model, and live capacity are
  // bit-identical to the previous solve, the previous plan IS the optimal
  // plan — return it without touching the LP.
  if (cache != nullptr && cache->memo_valid) {
    const bool live_same =
        live_servers == nullptr
            ? cache->memo_live.empty()
            : cache->memo_live == *live_servers;
    if (live_same && cache->memo_demand.rows() == demand.rows() &&
        cache->memo_demand.cols() == demand.cols() &&
        cache->memo_demand.data() == demand.data() &&
        cache->memo_times == model.service_times_raw() &&
        cache->memo_default_time == model.default_service_time()) {
      ++cache->memo_hits;
      OptimizerResult result = cache->memo_result;
      result.warm_started = true;
      return result;
    }
  }

  OptimizerResult result;
  const FlatMatrix<double> eff_demand =
      front_door_demand(*app_, *deployment_, *topology_, demand);

  // Class groups. Anything that prevents decomposition — the MILP mode, the
  // option being off, or every class sharing one component — collapses to a
  // single whole-problem group over all classes AND all services, which is
  // bit-identical to the legacy joint build.
  std::vector<ClassGroup> groups;
  if (!options_.integer_routes && options_.decompose) {
    groups = partition_classes(*app_);
  }
  if (groups.size() <= 1) {
    groups.clear();
    ClassGroup whole;
    whole.classes.resize(K);
    std::iota(whole.classes.begin(), whole.classes.end(), 0);
    whole.services.resize(S);
    std::iota(whole.services.begin(), whole.services.end(), 0);
    groups.push_back(std::move(whole));
  }
  if (cache != nullptr) cache->bases.resize(groups.size());

  const SolveContext ctx{*app_,      *deployment_, *topology_, options_,
                         model,      eff_demand,   live_servers, C};
  auto rules = std::make_shared<RoutingRuleSet>();
  std::vector<double> plan_u(S * C, 0.0);
  std::vector<double> plan_o(S * C, 0.0);
  double latency_per_sec = 0.0;
  double egress_per_sec = 0.0;
  double server_per_sec = 0.0;

  for (std::size_t g = 0; g < groups.size(); ++g) {
    SimplexBasis* basis =
        cache != nullptr && !options_.integer_routes ? &cache->bases[g] : nullptr;
    const LpStatus status =
        solve_group(ctx, groups[g], basis, result, *rules, plan_u, plan_o,
                    latency_per_sec, egress_per_sec, server_per_sec);
    if (status != LpStatus::kOptimal) {
      result.status = status;
      return result;
    }
  }
  result.status = LpStatus::kOptimal;
  if (cache != nullptr) {
    cache->warm_group_solves += result.warm_groups;
    cache->cold_group_solves += result.solve_groups - result.warm_groups;
  }
  result.warm_started =
      result.solve_groups > 0 && result.warm_groups == result.solve_groups;

  rules->validate();
  result.rules = std::move(rules);

  // Station plans for every deployed station, in (service, cluster) order —
  // stations of services no class references carry zero load by definition.
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t c = 0; c < C; ++c) {
      if (!deployment_->is_deployed(ServiceId{s}, ClusterId{c})) continue;
      result.station_plans.push_back(StationPlan{
          ServiceId{s}, ClusterId{c}, plan_u[s * C + c], plan_o[s * C + c]});
    }
  }

  double total_demand = 0.0;
  for (const double d : eff_demand.data()) total_demand += d;
  result.predicted_mean_latency =
      total_demand > 0.0 ? latency_per_sec / total_demand : 0.0;
  result.predicted_egress_dollars_per_sec = egress_per_sec;
  result.predicted_server_dollars_per_sec = server_per_sec;

  if (cache != nullptr) {
    cache->memo_valid = true;
    cache->memo_demand = demand;
    cache->memo_times = model.service_times_raw();
    cache->memo_default_time = model.default_service_time();
    if (live_servers != nullptr) {
      cache->memo_live = *live_servers;
    } else {
      cache->memo_live.clear();
    }
    cache->memo_result = result;
  }
  return result;
}

}  // namespace slate

// The global request-routing optimization (paper §3.3, DESIGN.md §4).
//
// Inputs: the application's per-class call trees, the deployment (placement,
// server counts), the topology (latency, egress prices), the learned latency
// model, and per-(class, ingress cluster) demand. Output: per (class,
// call-edge, source cluster) weight vectors over destination clusters — the
// paper's routing rules — plus the predicted latency/cost of the plan.
//
// Formulation (all flows in requests/second):
//   x[k][e][i][j]  rate of class-k calls over call edge e from cluster i
//                  serving in cluster j            (only where deployable)
//   a[k][n][j]     arrival rate of call node n of class k at cluster j
//   u[s][c]        station utilization (bounded by max_utilization)
//   o[s][c]        utilization overflow beyond the bound (penalized; keeps
//                  the program feasible under global overload)
//   t[s][c]        epigraph of the convex queue-cost g(u) = u^2/(1-u)
//
// The objective minimizes total latency-seconds per second — compute
// (servers * (u+o)), queueing (servers * t), and network RTT per crossing —
// plus cost_weight * egress dollars per second. Minimizing total latency per
// second is equivalent to minimizing mean end-to-end latency because total
// demand is fixed. Parallel child invocations are counted as if sequential
// (an upper bound on the true end-to-end latency).
#pragma once

#include <memory>
#include <vector>

#include "cluster/deployment.h"
#include "core/latency_model.h"
#include "lp/branch_and_bound.h"
#include "lp/simplex.h"
#include "net/topology.h"
#include "routing/weighted_rules.h"
#include "util/matrix.h"

namespace slate {

struct OptimizerOptions {
  // Seconds of objective per dollar-per-second of egress spend. 0 optimizes
  // latency only; larger values trade latency for cheaper egress
  // (paper §4.1: "if an administrator values cost over latency").
  double cost_weight = 1.0;
  // Stations may not be planned beyond this utilization.
  double max_utilization = 0.95;
  // Tangent count for the queue-cost epigraph.
  std::size_t tangent_count = 14;
  // Objective penalty per unit of utilization overflow (latency-seconds).
  double overflow_penalty = 1e4;
  // Joint cost term (bi-level co-design, docs/autoscaling.md): seconds of
  // objective per dollar-per-second of SERVER spend. When > 0, planned busy
  // work u*n at a station is priced as the servers an autoscaler must keep
  // provisioned for it — u * n / server_price_target replicas at the
  // cluster's $/server-hour — so the solver can trade "route it far"
  // (egress) against "scale it here" (server-hours). 0 (default) keeps the
  // legacy latency+egress objective bit-identical. Exact-LP rungs only; the
  // fast gradient optimizer ignores it.
  double server_cost_weight = 0.0;
  // Utilization the autoscaler provisions toward, used to convert planned
  // busy work into paid servers. Must be in (0,1) when pricing is armed.
  double server_price_target = 0.6;
  // When true, each (class, edge, source) must route to a single cluster
  // (all-or-nothing), solved as a MILP. Used by ablations.
  bool integer_routes = false;
  // Solve classes that share no service (hence no capacity row) as
  // independent sub-LPs instead of one joint tableau. Exact — disjoint
  // groups separate in both objective and constraints — and the only way a
  // planet-scale instance fits in a control period: the dense joint tableau
  // grows with (classes x clusters)^2 while per-group tableaus stay small.
  // When every class lands in one group this takes the identical legacy
  // whole-problem path. Ignored under integer_routes.
  bool decompose = true;
  SimplexOptions simplex;
  MilpOptions milp;
};

// Planned load of one station: `utilization` includes `overflow`, the part
// planned above the utilization cap (OptimizerOptions::max_utilization).
struct StationPlan {
  ServiceId service;
  ClusterId cluster;
  double utilization = 0.0;
  double overflow = 0.0;
};

struct OptimizerResult {
  LpStatus status = LpStatus::kInfeasible;
  std::shared_ptr<RoutingRuleSet> rules;

  // Predicted plan quality, evaluated with the exact (non-PWL) queue model.
  double predicted_mean_latency = 0.0;        // seconds per request
  double predicted_egress_dollars_per_sec = 0.0;
  // Server-hours the plan implies, in $/s (0 unless server pricing armed).
  double predicted_server_dollars_per_sec = 0.0;
  double objective = 0.0;                     // LP objective value

  std::vector<StationPlan> station_plans;
  // Plan audit over station_plans: stations planned above the cap (overflow
  // > 1e-6, the LP's numerical noise), and the highest planned utilization.
  [[nodiscard]] std::size_t overflowed_stations() const noexcept;
  [[nodiscard]] double peak_utilization() const noexcept;
  int variables = 0;
  int constraints = 0;
  SimplexStats simplex_stats;  // summed across class groups

  // Warm-start telemetry: solve_groups class groups were solved; warm_groups
  // of them resumed from the previous period's basis. warm_started is true
  // when the whole solve reused previous-period state (a steady-state memo
  // hit, or every group basis warm start succeeding).
  std::size_t solve_groups = 0;
  std::size_t warm_groups = 0;
  bool warm_started = false;

  [[nodiscard]] bool ok() const noexcept { return status == LpStatus::kOptimal; }
};

// Cross-period solver state owned by the caller (the global controller keeps
// one per optimizer lifetime). Holds the previous solve's per-group simplex
// bases — demand moves slowly between control periods, so the old optimal
// basis is a few dual pivots from the new optimum even when the new demand
// leaves it infeasible — plus a steady-state memo that returns the cached
// result outright when every input is bit-identical.
struct OptimizerCache {
  // Per class-group bases (indexed like the partition, which is a function
  // of the immutable application/deployment and therefore stable).
  std::vector<SimplexBasis> bases;

  // Steady-state memo inputs + result.
  bool memo_valid = false;
  FlatMatrix<double> memo_demand{0, 0, 0.0};
  std::vector<double> memo_times;
  double memo_default_time = 0.0;
  std::vector<unsigned> memo_live;
  OptimizerResult memo_result;

  std::uint64_t memo_hits = 0;
  std::uint64_t warm_group_solves = 0;
  std::uint64_t cold_group_solves = 0;
};

class RouteOptimizer {
 public:
  RouteOptimizer(const Application& app, const Deployment& deployment,
                 const Topology& topology, OptimizerOptions options = {});

  // `demand(k, c)` = class-k requests/second entering cluster c.
  // Demand at clusters lacking the class's entry service is reassigned to
  // the nearest cluster that has it.
  //
  // `live_servers`, if non-null, overrides the deployment's static server
  // counts (indexed service * cluster_count + cluster; entries of 0 fall
  // back to the deployment). Autoscalers and failures change capacity at
  // runtime; the controller feeds the observed counts back here.
  //
  // `cache`, if non-null, carries warm-start state across periods: the
  // previous solve's per-group bases (each group's solve skips phase 1 and
  // starts from its old basis, repaired by dual simplex when demand or the
  // fitted model moved it out of feasibility; see solve_lp) and the
  // steady-state memo (bit-identical inputs return the cached result
  // outright). Passing null solves cold.
  OptimizerResult optimize(const LatencyModel& model,
                           const FlatMatrix<double>& demand,
                           const std::vector<unsigned>* live_servers = nullptr,
                           OptimizerCache* cache = nullptr) const;

  [[nodiscard]] const OptimizerOptions& options() const noexcept { return options_; }

 private:
  const Application* app_;
  const Deployment* deployment_;
  const Topology* topology_;
  OptimizerOptions options_;
};

}  // namespace slate

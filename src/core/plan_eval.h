// The flow model of the data plane: where a routing plan sends demand.
//
// Every planner reasons about where the data plane sends each request: the
// exact LP (RouteOptimizer), the marginal-cost descent (FastRouteOptimizer),
// the N-1 headroom check and the plan evaluator. This module is the one
// place that knows it:
//   * the front door: an arrival is served in its own cluster if that
//     cluster hosts the class's entry service, else at the nearest entry
//     replica (Topology::local_or_nearest; Simulation::on_arrival executes
//     the same rule);
//   * a call with no rule goes local-or-nearest (WeightedRulesPolicy's
//     fallback, and the optimizers' rule for origins with no flow);
//   * live server counts override the deployment's static ones;
//   * the cost of one call crossing clusters: network RTT plus weighted
//     egress dollars, the exact LP's flow coefficient;
//   * the forward pass that pushes demand through a RoutingRuleSet to
//     station utilization and network cost, optionally with one cluster
//     failed. evaluate_plan_cost and the N-1 margin are thin callers of it.
//
// Every optimizer arm emits a RoutingRuleSet but reports its own internal
// objective (PWL tangents, stale utilizations); evaluate_plan_cost scores any
// rule set with the one true model — the forward pass, then the exact
// (non-piecewise) queue cost plus network RTT and weighted egress — so
// optimality gaps in benches and tests compare arms apples-to-apples.
#pragma once

#include <vector>

#include "app/application.h"
#include "cluster/deployment.h"
#include "core/latency_model.h"
#include "net/topology.h"
#include "routing/weighted_rules.h"
#include "util/matrix.h"

namespace slate {

// Servers at station (service, cluster): the live count when
// `live_servers` (indexed service * cluster_count + cluster) reports one
// above 0, else the deployment's static count.
[[nodiscard]] double servers_at(const Deployment& deployment,
                                const std::vector<unsigned>* live_servers,
                                std::size_t service, std::size_t cluster);

// Objective cost, in latency-seconds, of one call over `node`'s inbound edge
// from cluster `from` served in `to` (from != to): the RTT (request out,
// response back) plus `cost_weight` times the call's egress dollars.
[[nodiscard]] double call_edge_cost(const Topology& topology,
                                    const CallNode& node, ClusterId from,
                                    ClusterId to, double cost_weight);

// `demand(k, c)` (class-k requests/second arriving at cluster c) moved to
// the cluster whose entry replica serves it: the front door. With `failed`
// valid, that cluster is down: its own demand re-enters at the nearest live
// entry, and demand with no live entry left is lost.
[[nodiscard]] FlatMatrix<double> front_door_demand(
    const Application& app, const Deployment& deployment,
    const Topology& topology, const FlatMatrix<double>& demand,
    ClusterId failed = {});

// Output of the forward pass.
struct PlanFlow {
  std::vector<double> utilization;  // station (s, c) at s * C + c
  double network_cost = 0.0;  // RTT + weighted egress, latency-seconds/s
};

// Pushes `demand` through `rules`: the front door, then down every call
// edge by the rule of the (class, edge, source) triple, or local-or-nearest
// where there is none. With `failed` valid, that cluster is down as the data
// plane sees it: rule weight on it lands on the nearest live candidate from
// the source (start_attempt's forced re-pick), nothing originates there, and
// a call whose every candidate failed is lost.
[[nodiscard]] PlanFlow forward_plan(
    const Application& app, const Deployment& deployment,
    const Topology& topology, const LatencyModel& model,
    const FlatMatrix<double>& demand, const RoutingRuleSet& rules,
    const std::vector<unsigned>* live_servers, double cost_weight,
    ClusterId failed = {});

// Total plan cost in latency-seconds per second plus cost_weight * egress
// dollars per second — the same units as OptimizerResult::objective (minus
// the LP's overflow penalty terms).
double evaluate_plan_cost(const Application& app, const Deployment& deployment,
                          const Topology& topology, const LatencyModel& model,
                          const FlatMatrix<double>& demand,
                          const RoutingRuleSet& rules,
                          const std::vector<unsigned>* live_servers = nullptr,
                          double cost_weight = 1.0);

// N-1 failover headroom (docs/resilience.md): the max post-failure station
// utilization when `failed` is down. Lost demand contributes no
// utilization: total loss is a different failure mode than overload.
[[nodiscard]] double failure_max_utilization(
    const Application& app, const Deployment& deployment,
    const Topology& topology, const LatencyModel& model,
    const FlatMatrix<double>& demand, const RoutingRuleSet& rules,
    const std::vector<unsigned>* live_servers, ClusterId failed);

// The plan's contingency margin: the worst failure_max_utilization over
// each cluster failing singly. Writes the worst failure to `worst` if
// non-null.
[[nodiscard]] double worst_case_margin(
    const Application& app, const Deployment& deployment,
    const Topology& topology, const LatencyModel& model,
    const FlatMatrix<double>& demand, const RoutingRuleSet& rules,
    const std::vector<unsigned>* live_servers, ClusterId* worst = nullptr);

}  // namespace slate

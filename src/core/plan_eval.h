// Exact plan-cost evaluation for an arbitrary routing rule set.
//
// Every optimizer arm (exact LP, marginal-cost descent, capacity split)
// emits the same artifact — a RoutingRuleSet — but each
// reports its own internal objective, which may use approximations (PWL
// tangents, stale utilizations). This evaluator scores any rule set with the
// one true model: a forward pass of the demand through the rules, then the
// exact (non-piecewise) queue cost plus network RTT and weighted egress.
// Optimality gaps in benches and tests are computed here so arms are compared
// apples-to-apples.
#pragma once

#include "app/application.h"
#include "cluster/deployment.h"
#include "core/latency_model.h"
#include "net/topology.h"
#include "routing/weighted_rules.h"
#include "util/matrix.h"

namespace slate {

// Total plan cost in latency-seconds per second plus cost_weight * egress
// dollars per second — the same units as OptimizerResult::objective (minus
// the LP's overflow penalty terms). Calls with no rule fall back to
// local-or-nearest, matching the data plane's failover. `live_servers`
// overrides static server counts exactly as in the optimizers.
double evaluate_plan_cost(const Application& app, const Deployment& deployment,
                          const Topology& topology, const LatencyModel& model,
                          const FlatMatrix<double>& demand,
                          const RoutingRuleSet& rules,
                          const std::vector<unsigned>* live_servers = nullptr,
                          double cost_weight = 1.0);

}  // namespace slate

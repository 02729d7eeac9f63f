// The flow model of the data plane (core/plan_eval.h): a hand-checked plan
// cost, the plan-load invariant (the forward pass reproduces every planner's
// own station plans), and agreement between the data plane's front door and
// the one the planners model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/fast_optimizer.h"
#include "core/latency_model.h"
#include "core/optimizer.h"
#include "core/plan_eval.h"
#include "runtime/scenarios.h"
#include "topogen/topogen.h"

namespace slate {
namespace {

// Three clusters A, B, C; one class: root s0 ("front") calls s1 ("back").
//   s0 runs in A (1 server) and B (2 servers), not C: demand arriving at C
//   anycasts to its nearest entry replica.
//   s1 runs in A (1 server) and C (1 server), not B: calls from B follow the
//   rule-less fallback to the nearest replica.
// One-way latencies A-B 10 ms, A-C 20 ms, B-C 15 ms (symmetric). Every
// inter-cluster pair costs 0.1024 $/GB; s1's request is 1 MiB and its
// response 2 MiB, so one A<->C or B<->A call costs
//   (2^20 + 2^21) bytes * 0.1024 $/GB / 2^30 = 0.0001 + 0.0002 = 0.0003 $.
// Service times: s0 2 ms, s1 4 ms. Demand: A 100, B 50, C 50 requests/s.
struct HandWorld {
  Application app = make_app();
  Topology topology{3};
  Deployment deployment{app, 3};
  LatencyModel model{2, 1, 3};
  FlatMatrix<double> demand{1, 3, 0.0};
  RoutingRuleSet rules;

  HandWorld() {
    topology.set_rtt(ClusterId{0}, ClusterId{1}, 20e-3);
    topology.set_rtt(ClusterId{0}, ClusterId{2}, 40e-3);
    topology.set_rtt(ClusterId{1}, ClusterId{2}, 30e-3);
    topology.set_uniform_egress_price(0.1024);
    deployment.deploy(ServiceId{0}, ClusterId{0}, 1, 500.0);
    deployment.deploy(ServiceId{0}, ClusterId{1}, 2, 1000.0);
    deployment.deploy(ServiceId{1}, ClusterId{0}, 1, 250.0);
    deployment.deploy(ServiceId{1}, ClusterId{2}, 1, 250.0);
    for (std::size_t c = 0; c < 3; ++c) {
      model.set_service_time(ServiceId{0}, ClassId{0}, ClusterId{c}, 2e-3);
      model.set_service_time(ServiceId{1}, ClassId{0}, ClusterId{c}, 4e-3);
    }
    demand(0, 0) = 100.0;
    demand(0, 1) = 50.0;
    demand(0, 2) = 50.0;
    // Calls to s1 from A split evenly over A and C; B has no rule.
    RouteWeights split;
    split.clusters = {ClusterId{0}, ClusterId{2}};
    split.weights = {0.5, 0.5};
    rules.set_rule(ClassId{0}, 1, ClusterId{0}, std::move(split));
  }

  static Application make_app() {
    Application app;
    app.add_service("front");
    app.add_service("back");
    TrafficClassSpec spec;
    spec.name = "k";
    spec.graph.set_root(ServiceId{0}, 2e-3, 512, 512);
    spec.graph.add_call(0, ServiceId{1}, 4e-3, 1u << 20, 2u << 20);
    app.add_class(std::move(spec));
    app.validate();
    return app;
  }
};

TEST(PlanEval, HandCheckedCost) {
  const HandWorld w;
  // Front door: A and B serve their own 100 and 50; C's 50 goes to B
  // (15 ms) rather than A (20 ms). s0 arrivals: A 100, B 100.
  // s1 calls: A's 100 split 50/50 to A and C by rule; B's 100 have no rule
  // and go to the nearest s1 replica, A (10 ms) rather than C (15 ms).
  // s1 arrivals: A 150, C 50.
  const PlanFlow flow =
      forward_plan(w.app, w.deployment, w.topology, w.model, w.demand, w.rules,
                   nullptr, 1.0);
  ASSERT_EQ(flow.utilization.size(), 6u);
  EXPECT_NEAR(flow.utilization[0 * 3 + 0], 100 * 2e-3 / 1, 1e-12);  // 0.2
  EXPECT_NEAR(flow.utilization[0 * 3 + 1], 100 * 2e-3 / 2, 1e-12);  // 0.1
  EXPECT_EQ(flow.utilization[0 * 3 + 2], 0.0);
  EXPECT_NEAR(flow.utilization[1 * 3 + 0], 150 * 4e-3 / 1, 1e-12);  // 0.6
  EXPECT_EQ(flow.utilization[1 * 3 + 1], 0.0);
  EXPECT_NEAR(flow.utilization[1 * 3 + 2], 50 * 4e-3 / 1, 1e-12);  // 0.2

  // Network: 50 calls/s A->C at RTT 40 ms + 0.0003 $ and 100 calls/s B->A
  // at RTT 20 ms + 0.0003 $ (the front-door hop is not a call edge):
  //   50 * 0.0403 + 100 * 0.0203 = 2.015 + 2.03 = 4.045.
  EXPECT_NEAR(flow.network_cost, 4.045, 1e-12);

  // Station cost: servers * (u + u^2 / (1 - u)) per station.
  //   s0@A 1 * (0.2 + 0.04 / 0.8)  = 0.25
  //   s0@B 2 * (0.1 + 0.01 / 0.9)  = 0.2 + 0.02 / 0.9
  //   s1@A 1 * (0.6 + 0.36 / 0.4)  = 1.5
  //   s1@C 1 * (0.2 + 0.04 / 0.8)  = 0.25
  const double station = 0.25 + (0.2 + 0.02 / 0.9) + 1.5 + 0.25;
  EXPECT_NEAR(evaluate_plan_cost(w.app, w.deployment, w.topology, w.model,
                                 w.demand, w.rules),
              station + 4.045, 1e-12);
  // cost_weight 0 drops the 0.0003 $ per crossing call: 50*0.04 + 100*0.02.
  EXPECT_NEAR(evaluate_plan_cost(w.app, w.deployment, w.topology, w.model,
                                 w.demand, w.rules, nullptr, 0.0),
              station + 4.0, 1e-12);
}

TEST(PlanEval, LiveServersOverrideStaticCountsWhereReported) {
  const HandWorld w;
  // Live counts indexed service * 3 + cluster. s0@A reports 2 servers (the
  // static count is 1); s0@B reports 0, which means "use the static 2".
  std::vector<unsigned> live(6, 0);
  live[0 * 3 + 0] = 2;
  EXPECT_EQ(servers_at(w.deployment, &live, 0, 0), 2.0);
  EXPECT_EQ(servers_at(w.deployment, &live, 0, 1), 2.0);
  EXPECT_EQ(servers_at(w.deployment, nullptr, 0, 0), 1.0);

  const PlanFlow flow =
      forward_plan(w.app, w.deployment, w.topology, w.model, w.demand, w.rules,
                   &live, 1.0);
  EXPECT_NEAR(flow.utilization[0], 100 * 2e-3 / 2, 1e-12);  // 0.1, not 0.2
  EXPECT_NEAR(flow.utilization[1], 100 * 2e-3 / 2, 1e-12);
  // s0@A now costs 2 * (0.1 + 0.01 / 0.9) instead of 0.25.
  const double station =
      (0.2 + 0.02 / 0.9) + (0.2 + 0.02 / 0.9) + 1.5 + 0.25;
  EXPECT_NEAR(evaluate_plan_cost(w.app, w.deployment, w.topology, w.model,
                                 w.demand, w.rules, &live),
              station + 4.045, 1e-12);
}

TEST(PlanEval, EdgeCostIsTheLpCoefficient) {
  const HandWorld w;
  const CallNode& node = w.app.traffic_class(ClassId{0}).graph.node(1);
  // RTT A<->C 40 ms plus 0.0003 $ weighted by 2.
  EXPECT_NEAR(call_edge_cost(w.topology, node, ClusterId{0}, ClusterId{2}, 2.0),
              0.040 + 2.0 * 0.0003, 1e-15);
}

TEST(PlanEval, FailedClusterReroutesFrontDoorAndRuleWeight) {
  const HandWorld w;
  // B down: A's 100 and B's 50 enter at A; C's 50 goes to A too (B is
  // excluded). s0@A = 200 * 2 ms / 1 = 0.4. Rule weight stays A/C 50/50 on
  // A's 200 calls: s1@A = 100 * 4 ms = 0.4, s1@C = 0.4.
  const PlanFlow flow =
      forward_plan(w.app, w.deployment, w.topology, w.model, w.demand, w.rules,
                   nullptr, 1.0, ClusterId{1});
  EXPECT_NEAR(flow.utilization[0], 0.4, 1e-12);
  EXPECT_EQ(flow.utilization[1], 0.0);
  EXPECT_NEAR(flow.utilization[3], 0.4, 1e-12);
  EXPECT_NEAR(flow.utilization[5], 0.4, 1e-12);
  // C down: C's demand enters at B, as before. The rule's C half lands on
  // the nearest live s1 replica from A; A itself counts only when nothing
  // else is left, which is the case here. So A's 100 calls (50 by rule, 50
  // re-picked) and B's 100 fallback calls all land on s1@A = 0.8.
  EXPECT_NEAR(failure_max_utilization(w.app, w.deployment, w.topology, w.model,
                                      w.demand, w.rules, nullptr, ClusterId{2}),
              0.8, 1e-12);
}

FlatMatrix<double> demand_at_zero(const Scenario& scenario) {
  FlatMatrix<double> demand(scenario.app->class_count(),
                            scenario.topology->cluster_count(), 0.0);
  for (const auto& stream : scenario.demand.streams()) {
    demand(stream.cls.index(), stream.cluster.index()) +=
        scenario.demand.rate_at(stream.cls, stream.cluster, 0.0);
  }
  return demand;
}

// Plan load vs capacity: pushing the demand through a planner's emitted
// rules must land exactly the station load the planner says it planned.
void expect_plans_reproduced(const Scenario& scenario,
                             const OptimizerResult& result,
                             const LatencyModel& model,
                             const FlatMatrix<double>& demand) {
  ASSERT_NE(result.rules, nullptr);
  ASSERT_FALSE(result.station_plans.empty());
  const std::size_t C = scenario.topology->cluster_count();
  const PlanFlow flow =
      forward_plan(*scenario.app, *scenario.deployment, *scenario.topology,
                   model, demand, *result.rules, nullptr, 1.0);
  for (const StationPlan& sp : result.station_plans) {
    const double planned = sp.utilization;
    const double pushed =
        flow.utilization[sp.service.index() * C + sp.cluster.index()];
    EXPECT_NEAR(pushed, planned, 1e-6 * std::max(std::abs(planned), 1e-6))
        << "service " << sp.service.index() << " cluster "
        << sp.cluster.index();
  }
}

void check_plan_load(const Scenario& scenario) {
  const LatencyModel model = LatencyModel::from_application(
      *scenario.app, scenario.topology->cluster_count());
  const FlatMatrix<double> demand = demand_at_zero(scenario);
  const RouteOptimizer exact(*scenario.app, *scenario.deployment,
                             *scenario.topology);
  const OptimizerResult exact_result = exact.optimize(model, demand);
  ASSERT_TRUE(exact_result.ok());
  {
    SCOPED_TRACE("exact LP");
    expect_plans_reproduced(scenario, exact_result, model, demand);
  }
  const FastRouteOptimizer fast(*scenario.app, *scenario.deployment,
                                *scenario.topology);
  SCOPED_TRACE("descent");
  expect_plans_reproduced(scenario, fast.optimize(model, demand), model,
                          demand);
}

TEST(PlanLoad, ForwardPassReproducesStationPlansOnTopogenDefault) {
  check_plan_load(make_synth_scenario(TopoGenOptions{}));
}

TEST(PlanLoad, ForwardPassReproducesStationPlansOnTwoClusterChain) {
  check_plan_load(make_two_cluster_chain_scenario());
}

// The data plane's front door is the planners' front door: on a topogen
// world where most clusters host no entry replica, every measured root
// arrival at cluster i is served exactly at local_or_nearest(i, entries).
TEST(PlanLoad, DataPlaneFrontDoorMatchesTheModel) {
  const Scenario scenario = make_synth_scenario(TopoGenOptions{});
  RunConfig config;
  config.duration = 3.0;
  config.warmup = 1.0;
  const ExperimentResult result = run_experiment(scenario, config);
  const Topology& topology = *scenario.topology;
  const std::size_t C = topology.cluster_count();
  std::size_t redirected = 0;
  for (std::size_t k = 0; k < scenario.app->class_count(); ++k) {
    const auto entries = scenario.deployment->clusters_for(
        scenario.app->entry_service(ClassId{k}));
    ASSERT_LT(entries.size(), C) << "class " << k << " has an entry everywhere";
    const FlatMatrix<std::uint64_t>& root = result.flows[k][0];
    for (std::size_t i = 0; i < C; ++i) {
      const ClusterId expected = topology.local_or_nearest(ClusterId{i}, entries);
      for (std::size_t j = 0; j < C; ++j) {
        if (root(i, j) == 0) continue;
        EXPECT_EQ(ClusterId{j}, expected) << "class " << k << " from " << i;
        if (i != j) redirected += root(i, j);
      }
    }
  }
  EXPECT_GT(redirected, 0u);
}

}  // namespace
}  // namespace slate

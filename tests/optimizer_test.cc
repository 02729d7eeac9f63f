// Tests for the global routing optimizer — the paper's four questions:
// how much to offload, to which cluster, where in the topology, and which
// traffic classes (§3, §4).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "app/builders.h"
#include "core/optimizer.h"
#include "net/gcp_topology.h"
#include "runtime/scenarios.h"
#include "topogen/topogen.h"
#include "util/rng.h"

namespace slate {
namespace {

FlatMatrix<double> demand_for(const Scenario& scenario) {
  FlatMatrix<double> d(scenario.app->class_count(),
                       scenario.topology->cluster_count(), 0.0);
  for (const auto& stream : scenario.demand.streams()) {
    d(stream.cls.index(), stream.cluster.index()) =
        scenario.demand.rate_at(stream.cls, stream.cluster, 0.0);
  }
  return d;
}

OptimizerResult optimize_scenario(const Scenario& scenario,
                                  OptimizerOptions options = {}) {
  RouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                           *scenario.topology, options);
  const LatencyModel model = LatencyModel::from_application(
      *scenario.app, scenario.topology->cluster_count());
  return optimizer.optimize(model, demand_for(scenario));
}

// Share of node-n class-k traffic from cluster `from` routed to `to`.
double rule_weight(const OptimizerResult& result, ClassId k, std::size_t node,
                   ClusterId from, ClusterId to) {
  const RouteWeights* rule = result.rules->find(k, node, from);
  return rule == nullptr ? 0.0 : rule->weight_for(to);
}

// --- Basic sanity ------------------------------------------------------------

TEST(Optimizer, UnderloadedStaysFullyLocal) {
  TwoClusterChainParams params;
  params.west_rps = 200.0;  // far below the ~475 capacity
  params.east_rps = 100.0;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.overflowed_stations(), 0u);
  EXPECT_LT(result.peak_utilization(), 1.0);
  const ClassId k{0};
  for (std::size_t node = 1; node <= 3; ++node) {
    EXPECT_NEAR(rule_weight(result, k, node, ClusterId{0}, ClusterId{0}), 1.0,
                1e-6)
        << "node " << node;
    EXPECT_NEAR(rule_weight(result, k, node, ClusterId{1}, ClusterId{1}), 1.0,
                1e-6);
  }
}

TEST(Optimizer, WeightsFormDistributions) {
  TwoClusterChainParams params;
  params.west_rps = 800.0;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  result.rules->for_each([](ClassId, std::size_t, ClusterId,
                            const RouteWeights& w) {
    double total = 0.0;
    for (double weight : w.weights) {
      EXPECT_GE(weight, -1e-9);
      total += weight;
    }
    EXPECT_NEAR(total, 1.0, 1e-6);
  });
}

TEST(Optimizer, OverloadedWestOffloads) {
  TwoClusterChainParams params;
  params.west_rps = 800.0;  // west alone can serve ~475
  params.east_rps = 100.0;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  // Some west traffic must cross at the first routable hop.
  const double local = rule_weight(result, ClassId{0}, 1, ClusterId{0}, ClusterId{0});
  EXPECT_LT(local, 0.9);
  EXPECT_GT(local, 0.2);  // but not everything: offload only what helps
  // East traffic stays home: east is underloaded.
  EXPECT_NEAR(rule_weight(result, ClassId{0}, 1, ClusterId{1}, ClusterId{1}), 1.0,
              1e-6);
}

TEST(Optimizer, RespectsMaxUtilization) {
  TwoClusterChainParams params;
  params.west_rps = 800.0;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  OptimizerOptions options;
  options.max_utilization = 0.9;
  const OptimizerResult result = optimize_scenario(scenario, options);
  ASSERT_TRUE(result.ok());
  for (const auto& plan : result.station_plans) {
    EXPECT_LE(plan.utilization, 0.9 + 1e-6)
        << "service " << plan.service << " cluster " << plan.cluster;
  }
}

TEST(Optimizer, GlobalOverloadPlansOverflowInsteadOfFailing) {
  TwoClusterChainParams params;
  params.west_rps = 3000.0;  // beyond combined capacity (~1425)
  params.east_rps = 500.0;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());  // soft overflow keeps the LP feasible
  EXPECT_GT(result.overflowed_stations(), 0u);
  EXPECT_GT(result.peak_utilization(), 1.0);
}

TEST(Optimizer, NeverRoutesToUndeployedCluster) {
  AnomalyParams params;
  const Scenario scenario = make_anomaly_scenario(params);
  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  // DB (node 2) exists only in East (cluster 1): no rule may weight West.
  result.rules->for_each([&](ClassId, std::size_t node, ClusterId,
                             const RouteWeights& w) {
    if (node == 2) {
      EXPECT_DOUBLE_EQ(w.weight_for(ClusterId{0}), 0.0);
    }
  });
}

// --- The four §3 questions -----------------------------------------------------

// Q1 "how much": higher network latency means keeping more local (Fig. 4).
TEST(Optimizer, OffloadShrinksWithNetworkLatency) {
  double previous_local = -1.0;
  for (double rtt : {5e-3, 25e-3, 50e-3}) {
    TwoClusterChainParams params;
    params.rtt = rtt;
    params.west_rps = 700.0;
    const Scenario scenario = make_two_cluster_chain_scenario(params);
    const OptimizerResult result = optimize_scenario(scenario);
    ASSERT_TRUE(result.ok());
    const double local =
        rule_weight(result, ClassId{0}, 1, ClusterId{0}, ClusterId{0});
    EXPECT_GE(local, previous_local - 1e-6) << "rtt " << rtt;
    previous_local = local;
  }
}

// Q2 "which cluster": greedy floods UT; the optimizer also uses SC (Fig. 5b).
TEST(Optimizer, UsesDistantClusterWhenNearestIsTight) {
  GcpChainParams params;
  params.rps[0] = 800.0;  // OR overloaded
  params.rps[1] = 100.0;  // UT light
  params.rps[2] = 800.0;  // IOW overloaded
  params.rps[3] = 100.0;  // SC light
  params.servers[0] = 1;
  params.servers[1] = 1;
  params.servers[2] = 1;
  params.servers[3] = 1;
  const Scenario scenario = make_gcp_chain_scenario(params);
  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  // Combined overload (1600 into ~475/cluster) forces spreading: SC must
  // receive a nontrivial share of some overloaded cluster's traffic.
  const ClassId k{0};
  double to_sc = 0.0;
  for (std::size_t node = 1; node <= 3; ++node) {
    to_sc += rule_weight(result, k, node, ClusterId{0}, ClusterId{3});
    to_sc += rule_weight(result, k, node, ClusterId{2}, ClusterId{3});
  }
  EXPECT_GT(to_sc, 0.05);
  // And UT must not be planned past the utilization cap.
  for (const auto& plan : result.station_plans) {
    if (plan.cluster == ClusterId{1}) {
      EXPECT_LE(plan.utilization, 0.95 + 1e-6);
    }
  }
}

// Q3 "where in the topology": with partial replication and a 10x response
// blow-up deeper in the tree, the cheap cut is FR -> MP, not MP -> DB
// (Fig. 5c). A cost-aware optimizer must route West's MP calls to East.
TEST(Optimizer, CutsEarlyToAvoidExpensiveEdge) {
  AnomalyParams params;
  params.west_rps = 200.0;
  const Scenario scenario = make_anomaly_scenario(params);
  OptimizerOptions options;
  options.cost_weight = 100.0;  // administrator values egress cost
  const OptimizerResult result = optimize_scenario(scenario, options);
  ASSERT_TRUE(result.ok());
  // West FR should send its MP calls (node 1) to East...
  EXPECT_GT(rule_weight(result, ClassId{0}, 1, ClusterId{0}, ClusterId{1}), 0.9);
  // ...so MP -> DB (node 2) stays local in East.
  EXPECT_GT(rule_weight(result, ClassId{0}, 2, ClusterId{1}, ClusterId{1}), 0.99);
}

// Q4 "which classes": the expensive class is offloaded preferentially
// (Fig. 5d).
TEST(Optimizer, OffloadsExpensiveClassFirst) {
  TwoClassParams params;
  params.west_light_rps = 400.0;
  params.west_heavy_rps = 80.0;  // work: 0.4 + 0.8 -> overload
  const Scenario scenario = make_two_class_scenario(params);
  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  const ClassId light = scenario.app->find_class("L");
  const ClassId heavy = scenario.app->find_class("H");
  const double light_remote =
      1.0 - rule_weight(result, light, 1, ClusterId{0}, ClusterId{0});
  const double heavy_remote =
      1.0 - rule_weight(result, heavy, 1, ClusterId{0}, ClusterId{0});
  // The heavy class crosses at a higher rate than the light class: moving
  // one H frees 10x the capacity of moving one L at the same network price.
  EXPECT_GT(heavy_remote, light_remote + 0.2);
}

// --- Cost/latency trade-off ------------------------------------------------------

TEST(Optimizer, CostWeightKeepsTrafficLocal) {
  // §4.1: "if an administrator values cost over latency, an optimal request
  // routing system should reflect it by keeping more traffic local".
  TwoClusterChainParams params;
  params.west_rps = 650.0;  // moderately overloaded
  const Scenario scenario = make_two_cluster_chain_scenario(params);

  OptimizerOptions cheap;
  cheap.cost_weight = 0.0;
  const OptimizerResult latency_only = optimize_scenario(scenario, cheap);

  OptimizerOptions costly;
  costly.cost_weight = 1e7;  // egress dollars dominate
  const OptimizerResult cost_averse = optimize_scenario(scenario, costly);

  ASSERT_TRUE(latency_only.ok() && cost_averse.ok());
  EXPECT_LE(cost_averse.predicted_egress_dollars_per_sec,
            latency_only.predicted_egress_dollars_per_sec + 1e-12);
  const double local_latency_only =
      rule_weight(latency_only, ClassId{0}, 1, ClusterId{0}, ClusterId{0});
  const double local_cost_averse =
      rule_weight(cost_averse, ClassId{0}, 1, ClusterId{0}, ClusterId{0});
  EXPECT_GE(local_cost_averse, local_latency_only - 1e-6);
}

// --- Structural / conservation properties ------------------------------------------

class OptimizerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerPropertyTest, PlansAreConsistent) {
  Rng rng(500 + static_cast<std::uint64_t>(GetParam()));
  TwoClusterChainParams params;
  params.west_rps = rng.uniform(100.0, 900.0);
  params.east_rps = rng.uniform(50.0, 400.0);
  params.rtt = rng.uniform(5e-3, 60e-3);
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());

  // Every rule is a probability distribution over deployed clusters.
  result.rules->for_each([&](ClassId, std::size_t, ClusterId,
                             const RouteWeights& w) {
    double total = 0.0;
    for (double weight : w.weights) total += weight;
    EXPECT_NEAR(total, 1.0, 1e-6);
  });

  // Total planned work equals total offered work (no traffic lost): the sum
  // of station utilization * servers * (1/service_time) over the chain's
  // stations must equal demand at each chain stage.
  const double total_demand = params.west_rps + params.east_rps;
  const ServiceId svc1 = scenario.app->find_service("svc-1");
  double planned_rps = 0.0;
  for (const auto& plan : result.station_plans) {
    if (plan.service == svc1) {
      const double mu =
          scenario.deployment->servers(plan.service, plan.cluster) /
          scenario.app->traffic_class(ClassId{0}).graph.node(1).compute_time_mean;
      planned_rps += plan.utilization * mu;
    }
  }
  EXPECT_NEAR(planned_rps, total_demand, total_demand * 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerPropertyTest, ::testing::Range(0, 15));

// --- Integer (all-or-nothing) mode ---------------------------------------------------

TEST(Optimizer, IntegerModeGivesPointMassRules) {
  TwoClusterChainParams params;
  params.west_rps = 400.0;
  params.east_rps = 100.0;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  OptimizerOptions options;
  options.integer_routes = true;
  const OptimizerResult result = optimize_scenario(scenario, options);
  ASSERT_TRUE(result.ok());
  result.rules->for_each([](ClassId, std::size_t, ClusterId,
                            const RouteWeights& w) {
    for (double weight : w.weights) {
      EXPECT_TRUE(weight < 1e-6 || weight > 1.0 - 1e-6)
          << "fractional weight " << weight << " in integer mode";
    }
  });
}

TEST(Optimizer, DemandAtClusterWithoutEntryReassigned) {
  TwoClusterChainParams params;
  params.west_rps = 300.0;
  params.east_rps = 100.0;
  Scenario scenario = make_two_cluster_chain_scenario(params);
  const ServiceId ingress = scenario.app->find_service("ingress");
  scenario.deployment->undeploy(ingress, ClusterId{0});

  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  // West's 300 RPS is planned as if entering East; the East ingress station
  // carries the whole 400 RPS.
  for (const auto& plan : result.station_plans) {
    if (plan.service == ingress) {
      EXPECT_EQ(plan.cluster, ClusterId{1});
    }
  }
}

TEST(Optimizer, MultiplicityScalesPlannedLoad) {
  Application app;
  const ServiceId front = app.add_service("front");
  const ServiceId backend = app.add_service("backend");
  TrafficClassSpec spec;
  spec.name = "multi";
  const std::size_t root = spec.graph.set_root(front, 1e-3, 128, 128);
  spec.graph.add_call(root, backend, 1e-3, 128, 128, /*multiplicity=*/3.0);
  app.add_class(std::move(spec));
  Scenario scenario = make_uniform_scenario(
      "multi", std::move(app), make_two_cluster_topology(10e-3), 2);
  scenario.demand.set_rate(ClassId{0}, ClusterId{0}, 100.0);

  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  // backend work = 300 calls/s * 1ms / 2 servers = 0.15 total utilization
  // across clusters (front adds 100 * 1ms / 2 = 0.05).
  double backend_util = 0.0;
  for (const auto& plan : result.station_plans) {
    if (plan.service == backend) backend_util += plan.utilization;
  }
  EXPECT_NEAR(backend_util, 0.15, 1e-6);
}

TEST(Optimizer, LiveServerOverrideChangesPlan) {
  TwoClusterChainParams params;
  params.west_rps = 600.0;
  params.east_rps = 100.0;
  params.west_servers = 2;  // static deployment says 2
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  RouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                           *scenario.topology);
  const LatencyModel model = LatencyModel::from_application(*scenario.app, 2);
  FlatMatrix<double> demand(1, 2, 0.0);
  demand(0, 0) = 600.0;
  demand(0, 1) = 100.0;

  const OptimizerResult with_static = optimizer.optimize(model, demand);
  ASSERT_TRUE(with_static.ok());
  // West (2 servers = 1000 RPS capacity, u = 0.6) serves mostly locally
  // (a small offload is optimal: it relieves all three chain stations for
  // one crossing).
  const RouteWeights* rule = with_static.rules->find(ClassId{0}, 1, ClusterId{0});
  ASSERT_NE(rule, nullptr);
  const double static_local = rule->weight_for(ClusterId{0});
  EXPECT_GT(static_local, 0.8);

  // Live feedback: West's svc-1 lost a replica (autoscale-down / failure).
  std::vector<unsigned> live(scenario.app->service_count() * 2, 0);
  live[scenario.app->find_service("svc-1").index() * 2 + 0] = 1;
  const OptimizerResult with_live = optimizer.optimize(model, demand, &live);
  ASSERT_TRUE(with_live.ok());
  const RouteWeights* live_rule =
      with_live.rules->find(ClassId{0}, 1, ClusterId{0});
  ASSERT_NE(live_rule, nullptr);
  // 600 RPS on one 500-RPS server violates the utilization cap: the plan
  // must offload much more than with the stale 2-server view.
  EXPECT_LT(live_rule->weight_for(ClusterId{0}), 0.8);
  EXPECT_LT(live_rule->weight_for(ClusterId{0}), static_local - 0.1);
}

TEST(Optimizer, PredictedEgressMatchesHandComputation) {
  // One-hop app, all traffic forced cross-cluster (service only remote):
  // egress $/s must equal rate * (req * p + resp * p) / GiB exactly.
  Application app;
  const ServiceId front = app.add_service("front");
  const ServiceId backend = app.add_service("backend");
  TrafficClassSpec spec;
  spec.name = "k";
  const std::size_t root = spec.graph.set_root(front, 1e-3, 0, 0);
  spec.graph.add_call(root, backend, 1e-3, 1000, 9000);
  app.add_class(std::move(spec));

  Topology topo = make_two_cluster_topology(20e-3, 0.10);
  Scenario scenario;
  scenario.app = std::make_unique<Application>(std::move(app));
  scenario.topology = std::make_unique<Topology>(std::move(topo));
  scenario.deployment = std::make_unique<Deployment>(*scenario.app, 2);
  scenario.deployment->deploy(front, ClusterId{0}, 1, 1000.0);
  scenario.deployment->deploy(front, ClusterId{1}, 1, 1000.0);
  scenario.deployment->deploy(backend, ClusterId{1}, 1, 1000.0);  // East only
  scenario.demand.set_rate(ClassId{0}, ClusterId{0}, 100.0);

  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  const double expected =
      100.0 * (1000.0 + 9000.0) * 0.10 / (1024.0 * 1024.0 * 1024.0);
  EXPECT_NEAR(result.predicted_egress_dollars_per_sec, expected,
              expected * 1e-6);
}

TEST(Optimizer, PredictedLatencyIncludesRttOncePerCrossing) {
  // Same forced-remote app with negligible compute: predicted mean latency
  // ~= compute + rtt (request there + response back).
  Application app;
  const ServiceId front = app.add_service("front");
  const ServiceId backend = app.add_service("backend");
  TrafficClassSpec spec;
  spec.name = "k";
  const std::size_t root = spec.graph.set_root(front, 0.1e-3, 0, 0);
  spec.graph.add_call(root, backend, 0.1e-3, 64, 64);
  app.add_class(std::move(spec));

  Scenario scenario;
  scenario.app = std::make_unique<Application>(std::move(app));
  scenario.topology =
      std::make_unique<Topology>(make_two_cluster_topology(40e-3, 0.0));
  scenario.deployment = std::make_unique<Deployment>(*scenario.app, 2);
  scenario.deployment->deploy(front, ClusterId{0}, 4, 4000.0);
  scenario.deployment->deploy(backend, ClusterId{1}, 4, 4000.0);
  scenario.demand.set_rate(ClassId{0}, ClusterId{0}, 100.0);

  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  // 0.2ms compute + tiny queueing + 40ms RTT.
  EXPECT_NEAR(result.predicted_mean_latency, 40.3e-3, 0.5e-3);
}

// --- Misc -------------------------------------------------------------------------

TEST(Optimizer, ReportsProblemSize) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  const OptimizerResult result = optimize_scenario(scenario);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.variables, 0);
  EXPECT_GT(result.constraints, 0);
  EXPECT_GT(result.simplex_stats.iterations, 0u);
  EXPECT_GT(result.predicted_mean_latency, 0.0);
}

TEST(Optimizer, DemandShapeMismatchThrows) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  RouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                           *scenario.topology);
  const LatencyModel model =
      LatencyModel::from_application(*scenario.app, 2);
  FlatMatrix<double> wrong(3, 3, 0.0);
  EXPECT_THROW(optimizer.optimize(model, wrong), std::invalid_argument);
}

TEST(Optimizer, BadOptionsThrow) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  OptimizerOptions options;
  options.max_utilization = 1.5;
  EXPECT_THROW(RouteOptimizer(*scenario.app, *scenario.deployment,
                              *scenario.topology, options),
               std::invalid_argument);
}

// --- Warm start & per-class decomposition ------------------------------------

Scenario synth_world(double shared_fraction = 0.25) {
  TopoGenOptions options;
  options.seed = 9;
  options.clusters = 6;
  options.services = 20;
  options.classes = 4;
  options.total_rps = 500.0;
  options.shared_fraction = shared_fraction;
  return make_synth_scenario(options);
}

void expect_identical_rules(const OptimizerResult& a,
                            const OptimizerResult& b) {
  std::size_t rules = 0;
  a.rules->for_each([&](ClassId k, std::size_t node, ClusterId origin,
                        const RouteWeights& w) {
    ++rules;
    const RouteWeights* other = b.rules->find(k, node, origin);
    ASSERT_NE(other, nullptr);
    ASSERT_EQ(other->clusters.size(), w.clusters.size());
    for (std::size_t d = 0; d < w.clusters.size(); ++d) {
      EXPECT_EQ(other->clusters[d].index(), w.clusters[d].index());
      EXPECT_EQ(other->weights[d], w.weights[d]);  // bit-for-bit
    }
  });
  EXPECT_GT(rules, 0u);
}

TEST(OptimizerWarmStart, UnchangedDemandIsBitForBit) {
  const Scenario scenario = synth_world();
  RouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                           *scenario.topology);
  const LatencyModel model = LatencyModel::from_application(
      *scenario.app, scenario.topology->cluster_count());
  const FlatMatrix<double> demand = demand_for(scenario);

  OptimizerCache cache;
  const OptimizerResult cold =
      optimizer.optimize(model, demand, nullptr, &cache);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.warm_started);

  const OptimizerResult warm =
      optimizer.optimize(model, demand, nullptr, &cache);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(cache.memo_hits, 1u);
  EXPECT_EQ(warm.objective, cold.objective);  // bit-for-bit, not NEAR
  expect_identical_rules(cold, warm);
}

// Re-solves from the cache after demand or the fitted model moved: every
// group must resume from its previous basis (a primal-infeasible crash is
// repaired by dual simplex, never cold-solved) and land on the cold optimum.
TEST(OptimizerWarmStart, PerturbedDemandMatchesColdSolve) {
  const Scenario scenario = synth_world();
  RouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                           *scenario.topology);
  const LatencyModel model = LatencyModel::from_application(
      *scenario.app, scenario.topology->cluster_count());
  const FlatMatrix<double> demand = demand_for(scenario);

  OptimizerCache cache;
  ASSERT_TRUE(optimizer.optimize(model, demand, nullptr, &cache).ok());

  auto expect_warm_matches_cold = [&](const LatencyModel& m,
                                      const FlatMatrix<double>& d,
                                      const std::string& what) {
    const OptimizerResult warm = optimizer.optimize(m, d, nullptr, &cache);
    const OptimizerResult cold = optimizer.optimize(m, d);
    ASSERT_TRUE(warm.ok()) << what;
    ASSERT_TRUE(cold.ok()) << what;
    EXPECT_GT(warm.solve_groups, 0u) << what;
    EXPECT_EQ(warm.warm_groups, warm.solve_groups) << what;
    // Both are optimal solutions of the same LP: objectives agree to
    // rounding even when the vertex reached differs.
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-6 * std::max(1.0, std::fabs(cold.objective)))
        << what;
  };

  for (const double scale : {1.02, 0.97, 1.10}) {
    FlatMatrix<double> perturbed = demand;
    for (std::size_t k = 0; k < perturbed.rows(); ++k) {
      for (std::size_t c = 0; c < perturbed.cols(); ++c) {
        perturbed(k, c) *= scale;
      }
    }
    expect_warm_matches_cold(model, perturbed,
                             "scale " + std::to_string(scale));
  }

  // Per-cell demand drift of up to +-30%.
  Rng rng(77);
  FlatMatrix<double> drifted = demand;
  for (std::size_t k = 0; k < drifted.rows(); ++k) {
    for (std::size_t c = 0; c < drifted.cols(); ++c) {
      drifted(k, c) *= rng.uniform(0.7, 1.3);
    }
  }
  expect_warm_matches_cold(model, drifted, "per-cell +-30%");

  // A refit: service times move by up to +-5%, which changes the
  // utilization rows' coefficients as the fitter does every period.
  LatencyModel refit = model;
  for (std::size_t s = 0; s < refit.service_count(); ++s) {
    for (std::size_t k = 0; k < refit.class_count(); ++k) {
      for (std::size_t c = 0; c < refit.cluster_count(); ++c) {
        const ServiceId sid{s};
        const ClassId kid{k};
        const ClusterId cid{c};
        if (!refit.has(sid, kid, cid)) continue;
        refit.set_service_time(sid, kid, cid,
                               refit.service_time(sid, kid, cid) *
                                   rng.uniform(0.95, 1.05));
      }
    }
  }
  expect_warm_matches_cold(refit, demand, "refit +-5%");
}

TEST(OptimizerWarmStart, MilpModeIgnoresCacheSafely) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  OptimizerOptions options;
  options.integer_routes = true;
  RouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                           *scenario.topology, options);
  const LatencyModel model = LatencyModel::from_application(
      *scenario.app, scenario.topology->cluster_count());
  const FlatMatrix<double> demand = demand_for(scenario);
  OptimizerCache cache;
  const OptimizerResult a = optimizer.optimize(model, demand, nullptr, &cache);
  const OptimizerResult b = optimizer.optimize(model, demand, nullptr, &cache);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // The memo still short-circuits identical input; bases stay untouched.
  EXPECT_EQ(b.objective, a.objective);
}

TEST(OptimizerDecompose, DisjointClassesMatchWholeProblem) {
  // shared_fraction=0 makes every class's service set private, so the
  // partition splits into one group per class. The decomposed solve must
  // land on the same optimum as the whole-problem LP.
  const Scenario scenario = synth_world(0.0);
  const LatencyModel model = LatencyModel::from_application(
      *scenario.app, scenario.topology->cluster_count());
  const FlatMatrix<double> demand = demand_for(scenario);

  OptimizerOptions on;
  on.decompose = true;
  OptimizerOptions off;
  off.decompose = false;
  RouteOptimizer decomposed(*scenario.app, *scenario.deployment,
                            *scenario.topology, on);
  RouteOptimizer whole(*scenario.app, *scenario.deployment,
                       *scenario.topology, off);
  const OptimizerResult a = decomposed.optimize(model, demand);
  const OptimizerResult b = whole.optimize(model, demand);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a.solve_groups, 1u);
  EXPECT_EQ(b.solve_groups, 1u);
  EXPECT_NEAR(a.objective, b.objective,
              1e-6 * std::max(1.0, std::fabs(b.objective)));
  EXPECT_EQ(a.station_plans.size(), b.station_plans.size());
}

TEST(OptimizerDecompose, SharedServicesCoupleClasses) {
  // With a shared pool, classes touching the same service must solve in one
  // group — splitting them would let two classes each claim the full
  // capacity of the shared station.
  const Scenario scenario = synth_world(0.5);
  RouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                           *scenario.topology);
  const LatencyModel model = LatencyModel::from_application(
      *scenario.app, scenario.topology->cluster_count());
  const OptimizerResult result =
      optimizer.optimize(model, demand_for(scenario));
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.solve_groups, scenario.app->class_count());
}

}  // namespace
}  // namespace slate

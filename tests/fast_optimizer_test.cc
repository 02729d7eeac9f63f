// Tests for the heuristic (marginal-cost descent) optimizer, including
// quality comparisons against the exact LP formulation.
#include <gtest/gtest.h>

#include "core/fast_optimizer.h"
#include "core/optimizer.h"
#include "net/gcp_topology.h"
#include "runtime/scenarios.h"

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

OptimizerResult fast_optimize(const Scenario& scenario,
                              FastOptimizerOptions options = {}) {
  FastRouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                               *scenario.topology, options);
  const LatencyModel model = LatencyModel::from_application(
      *scenario.app, scenario.topology->cluster_count());
  return optimizer.optimize(model, demand_for(scenario));
}

OptimizerResult exact_optimize(const Scenario& scenario,
                               OptimizerOptions options = {}) {
  RouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                           *scenario.topology, options);
  const LatencyModel model = LatencyModel::from_application(
      *scenario.app, scenario.topology->cluster_count());
  return optimizer.optimize(model, demand_for(scenario));
}

double local_weight(const OptimizerResult& r, ClassId k, std::size_t node,
                    ClusterId from) {
  const RouteWeights* rule = r.rules->find(k, node, from);
  return rule == nullptr ? 0.0 : rule->weight_for(from);
}

TEST(FastOptimizer, UnderloadedStaysLocal) {
  TwoClusterChainParams params;
  params.west_rps = 150.0;
  params.east_rps = 100.0;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  const OptimizerResult r = fast_optimize(scenario);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.overflowed_stations(), 0u);
  for (std::size_t node = 1; node <= 3; ++node) {
    EXPECT_GT(local_weight(r, ClassId{0}, node, ClusterId{0}), 0.99);
    EXPECT_GT(local_weight(r, ClassId{0}, node, ClusterId{1}), 0.99);
  }
}

TEST(FastOptimizer, GlobalOverloadPlansOverflow) {
  TwoClusterChainParams params;
  params.west_rps = 3000.0;  // beyond combined capacity (~1425)
  params.east_rps = 500.0;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  const OptimizerResult r = fast_optimize(scenario);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.overflowed_stations(), 0u);
  EXPECT_GT(r.peak_utilization(), 1.0);
}

TEST(FastOptimizer, OffloadsUnderOverload) {
  TwoClusterChainParams params;
  params.west_rps = 800.0;
  params.east_rps = 100.0;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  const OptimizerResult r = fast_optimize(scenario);
  const double local = local_weight(r, ClassId{0}, 1, ClusterId{0});
  EXPECT_LT(local, 0.9);
  EXPECT_GT(local, 0.2);
}

TEST(FastOptimizer, RulesAreDistributionsOverDeployedClusters) {
  const Scenario scenario = make_anomaly_scenario({});
  const OptimizerResult r = fast_optimize(scenario);
  r.rules->for_each([&](ClassId, std::size_t node, ClusterId,
                        const RouteWeights& w) {
    double total = 0.0;
    for (double weight : w.weights) {
      EXPECT_GE(weight, 0.0);
      total += weight;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    if (node == 2) {  // DB exists only in East
      EXPECT_DOUBLE_EQ(w.weight_for(ClusterId{0}), 0.0);
    }
  });
}

TEST(FastOptimizer, PrefersHeavyClassLikeExact) {
  const Scenario scenario = make_two_class_scenario({});
  const OptimizerResult r = fast_optimize(scenario);
  const ClassId light = scenario.app->find_class("L");
  const ClassId heavy = scenario.app->find_class("H");
  const double light_remote = 1.0 - local_weight(r, light, 1, ClusterId{0});
  const double heavy_remote = 1.0 - local_weight(r, heavy, 1, ClusterId{0});
  EXPECT_GT(heavy_remote, light_remote + 0.15);
}

// Quality: on the paper scenarios, descent lands within 20% of the exact
// optimizer's predicted objective (latency + weighted egress).
class FastVsExactTest : public ::testing::TestWithParam<int> {};

TEST_P(FastVsExactTest, WithinQualityBand) {
  Scenario scenario;
  switch (GetParam()) {
    case 0: {
      TwoClusterChainParams params;
      params.west_rps = 800.0;
      scenario = make_two_cluster_chain_scenario(params);
      break;
    }
    case 1:
      scenario = make_gcp_chain_scenario({});
      break;
    case 2:
      scenario = make_two_class_scenario({});
      break;
    default: {
      TwoClusterChainParams params;
      params.west_rps = 550.0;
      params.rtt = 50e-3;
      scenario = make_two_cluster_chain_scenario(params);
      break;
    }
  }
  const OptimizerResult exact = exact_optimize(scenario);
  const OptimizerResult fast = fast_optimize(scenario);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(fast.ok() || fast.status == LpStatus::kIterationLimit);
  const double exact_score = exact.predicted_mean_latency;
  const double fast_score = fast.predicted_mean_latency;
  EXPECT_LT(fast_score, exact_score * 1.2)
      << "fast " << fast_score << " vs exact " << exact_score;
  // Descent can never beat the true optimum by more than numeric noise
  // (both scores are exact evaluations of feasible plans).
  EXPECT_GT(fast_score, exact_score * 0.95);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, FastVsExactTest, ::testing::Range(0, 4));

TEST(FastOptimizer, LiveServerOverrideShiftsPlan) {
  TwoClusterChainParams params;
  params.west_rps = 600.0;
  params.west_servers = 2;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  FastRouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                               *scenario.topology);
  const LatencyModel model = LatencyModel::from_application(*scenario.app, 2);
  const FlatMatrix<double> demand = demand_for(scenario);

  const OptimizerResult with_static = optimizer.optimize(model, demand);
  std::vector<unsigned> live(scenario.app->service_count() * 2, 0);
  live[scenario.app->find_service("svc-1").index() * 2 + 0] = 1;
  const OptimizerResult with_live = optimizer.optimize(model, demand, &live);

  EXPECT_LT(local_weight(with_live, ClassId{0}, 1, ClusterId{0}),
            local_weight(with_static, ClassId{0}, 1, ClusterId{0}) - 0.05);
}

TEST(FastOptimizer, DemandShapeMismatchThrows) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  FastRouteOptimizer optimizer(*scenario.app, *scenario.deployment,
                               *scenario.topology);
  const LatencyModel model = LatencyModel::from_application(*scenario.app, 2);
  FlatMatrix<double> wrong(5, 5, 0.0);
  EXPECT_THROW(optimizer.optimize(model, wrong), std::invalid_argument);
}

TEST(FastOptimizer, BadOptionsThrow) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  FastOptimizerOptions options;
  options.max_utilization = 0.0;
  EXPECT_THROW(FastRouteOptimizer(*scenario.app, *scenario.deployment,
                                  *scenario.topology, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace slate

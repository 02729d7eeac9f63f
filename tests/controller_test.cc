// Tests for the control hierarchy: SlateProxy telemetry, ClusterController
// aggregation/rule fan-out, and the GlobalController loop including the
// guarded rollout (damped steps + canary rollback) of paper §5.
#include <gtest/gtest.h>

#include "app/builders.h"
#include "core/cluster_controller.h"
#include "core/global_controller.h"
#include "core/routing_rules.h"
#include "core/slate_proxy.h"
#include "net/gcp_topology.h"
#include "runtime/scenarios.h"

namespace slate {
namespace {

// --- SlateProxy -------------------------------------------------------------

TEST(SlateProxy, RecordsTelemetry) {
  const Topology topo = make_two_cluster_topology(10e-3);
  MetricsRegistry registry(2, 1);
  auto policy = std::make_shared<WeightedRulesPolicy>(topo);
  TraceCollector traces(16);
  SlateProxy proxy(ServiceId{1}, registry, policy, &traces);

  proxy.on_request_start(ClassId{0}, 1.0);
  EXPECT_EQ(registry.inflight(ServiceId{1}), 1u);

  Span span;
  span.service = ServiceId{1};
  span.cls = ClassId{0};
  span.start_time = 1.0;
  span.end_time = 1.5;
  span.exclusive_time = 0.1;
  proxy.on_request_end(ClassId{0}, span);
  EXPECT_EQ(registry.inflight(ServiceId{1}), 0u);
  // The metrics see the exclusive (station-local) time, not the full span.
  EXPECT_DOUBLE_EQ(registry.stats(ServiceId{1}, ClassId{0}).latency.mean(), 0.1);
  EXPECT_EQ(traces.size(), 1u);

  proxy.on_root_response(ClassId{0}, 0.5);
  EXPECT_DOUBLE_EQ(registry.e2e(ClassId{0}).mean(), 0.5);
}

TEST(SlateProxy, NullPolicyThrows) {
  MetricsRegistry registry(1, 1);
  EXPECT_THROW(SlateProxy(ServiceId{0}, registry, nullptr),
               std::invalid_argument);
}

// --- ClusterController --------------------------------------------------------

class ClusterControllerTest : public ::testing::Test {
 protected:
  ClusterControllerTest()
      : topo_(make_two_cluster_topology(10e-3)),
        registry_(2, 1),
        policy_(std::make_shared<WeightedRulesPolicy>(topo_)),
        station_(sim_, Rng(1), ServiceId{0}, ClusterId{0}, 1) {}

  Simulator sim_;
  Topology topo_;
  MetricsRegistry registry_;
  std::shared_ptr<WeightedRulesPolicy> policy_;
  ServiceStation station_;
};

TEST_F(ClusterControllerTest, CollectBuildsReportAndResets) {
  ClusterController controller(ClusterId{0}, 1, registry_,
                               {&station_, nullptr}, policy_);
  // Simulate some traffic at t in [0, 2).
  registry_.record_ingress(ClassId{0}, 0.5);
  registry_.record_ingress(ClassId{0}, 1.0);
  registry_.record_start(ServiceId{0}, ClassId{0}, 0.5);
  registry_.record_end(ServiceId{0}, ClassId{0}, 0.02);
  registry_.record_e2e(ClassId{0}, 0.08);
  sim_.run_until(2.0);

  const ClusterReport report = controller.collect(sim_.now());
  EXPECT_EQ(report.cluster, ClusterId{0});
  EXPECT_DOUBLE_EQ(report.period(), 2.0);
  ASSERT_EQ(report.request_metrics.size(), 1u);
  EXPECT_EQ(report.request_metrics[0].completed, 1u);
  EXPECT_DOUBLE_EQ(report.request_metrics[0].mean_latency, 0.02);
  EXPECT_DOUBLE_EQ(report.request_metrics[0].completion_rps, 0.5);
  ASSERT_EQ(report.ingress_rps.size(), 1u);
  EXPECT_DOUBLE_EQ(report.ingress_rps[0], 1.0);  // 2 arrivals / 2s
  ASSERT_EQ(report.e2e.size(), 1u);
  EXPECT_EQ(report.e2e[0].count, 1u);
  EXPECT_DOUBLE_EQ(report.e2e[0].mean_latency, 0.08);
  // Station metrics are present for deployed services only.
  ASSERT_EQ(report.station_metrics.size(), 1u);
  EXPECT_EQ(report.station_metrics[0].service, ServiceId{0});

  // Period state reset; a second immediate collect is empty.
  const ClusterReport second = controller.collect(sim_.now());
  EXPECT_TRUE(second.request_metrics.empty());
  EXPECT_EQ(controller.reports_built(), 2u);
}

TEST_F(ClusterControllerTest, PushRulesReachesPolicy) {
  ClusterController controller(ClusterId{0}, 1, registry_,
                               {&station_, nullptr}, policy_);
  auto rules = std::make_shared<RoutingRuleSet>();
  RouteWeights w;
  w.clusters = {ClusterId{1}};
  w.weights = {1.0};
  rules->set_rule(ClassId{0}, 1, ClusterId{0}, w);
  controller.push_rules(rules);
  EXPECT_EQ(policy_->rules().get(), rules.get());
  EXPECT_EQ(controller.rules_pushed(), 1u);
}

TEST_F(ClusterControllerTest, SizeMismatchThrows) {
  EXPECT_THROW(
      ClusterController(ClusterId{0}, 1, registry_, {&station_}, policy_),
      std::invalid_argument);
}

// --- GlobalController -----------------------------------------------------------

// Builds a synthetic report as if a cluster had served `rps` of class 0 at
// `latency` with the given utilization and e2e.
ClusterReport synthetic_report(ClusterId cluster, double t0, double t1,
                               ServiceId svc, double rps, double latency,
                               double utilization, double e2e_latency) {
  ClusterReport report;
  report.cluster = cluster;
  report.period_start = t0;
  report.period_end = t1;
  const double period = t1 - t0;
  ServiceClassMetrics m;
  m.service = svc;
  m.cls = ClassId{0};
  m.completed = static_cast<std::uint64_t>(rps * period);
  m.started = m.completed;
  m.completion_rps = rps;
  m.mean_latency = latency;
  report.request_metrics.push_back(m);
  StationMetrics sm;
  sm.service = svc;
  sm.servers = 1;
  sm.utilization = utilization;
  report.station_metrics.push_back(sm);
  report.ingress_rps = {rps};
  report.e2e = {
      E2eMetrics{static_cast<std::uint64_t>(rps * period), e2e_latency}};
  return report;
}

TEST(GlobalController, ProducesRulesFromReports) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  GlobalControllerOptions options;
  GlobalController controller(*scenario.app, *scenario.deployment,
                              *scenario.topology, options);
  std::vector<ClusterReport> reports;
  for (std::size_t c = 0; c < 2; ++c) {
    reports.push_back(synthetic_report(ClusterId{c}, 0.0, 1.0,
                                       scenario.app->find_service("svc-1"),
                                       c == 0 ? 700.0 : 100.0, 2e-3, 0.5,
                                       10e-3));
  }
  const auto rules = controller.on_reports(reports, 1.0);
  ASSERT_NE(rules, nullptr);
  EXPECT_GT(rules->size(), 0u);
  EXPECT_EQ(controller.rounds(), 1u);
  EXPECT_EQ(controller.optimizations(), 1u);
  // Demand was ingested.
  EXPECT_NEAR(controller.demand()(0, 0), 700.0, 1e-9);
}

TEST(GlobalController, NoDemandMeansNoRules) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  GlobalController controller(*scenario.app, *scenario.deployment,
                              *scenario.topology, {});
  ClusterReport empty;
  empty.cluster = ClusterId{0};
  empty.period_end = 1.0;
  empty.ingress_rps = {0.0};
  EXPECT_EQ(controller.on_reports({empty}, 1.0), nullptr);
}

TEST(GlobalController, DemandSmoothing) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  GlobalControllerOptions options;
  options.demand_smoothing = 0.5;
  GlobalController controller(*scenario.app, *scenario.deployment,
                              *scenario.topology, options);
  const ServiceId svc = scenario.app->find_service("svc-1");
  controller.on_reports(
      {synthetic_report(ClusterId{0}, 0.0, 1.0, svc, 100.0, 2e-3, 0.2, 8e-3)},
      1.0);
  EXPECT_NEAR(controller.demand()(0, 0), 100.0, 1e-9);  // first: take as-is
  controller.on_reports(
      {synthetic_report(ClusterId{0}, 1.0, 2.0, svc, 300.0, 2e-3, 0.5, 8e-3)},
      2.0);
  EXPECT_NEAR(controller.demand()(0, 0), 200.0, 1e-9);  // halfway
}

TEST(GlobalController, FitsModelFromSamples) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  GlobalControllerOptions options;
  options.warm_start_model = false;  // cold start: everything defaults
  options.fitter.min_samples = 3;
  options.fitter.smoothing = 1.0;
  GlobalController controller(*scenario.app, *scenario.deployment,
                              *scenario.topology, options);
  const ServiceId svc = scenario.app->find_service("svc-1");
  // Low-utilization periods with 7ms station latency -> service time ~7ms.
  for (int i = 0; i < 4; ++i) {
    controller.on_reports({synthetic_report(ClusterId{0}, i, i + 1.0, svc,
                                            100.0, 7e-3, 0.1, 20e-3)},
                          i + 1.0);
  }
  EXPECT_NEAR(
      controller.model().service_time(svc, ClassId{0}, ClusterId{0}), 7e-3,
      5e-4);
}

TEST(GlobalController, FreezeModelSkipsFitting) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  GlobalControllerOptions options;
  options.freeze_model = true;
  GlobalController controller(*scenario.app, *scenario.deployment,
                              *scenario.topology, options);
  const ServiceId svc = scenario.app->find_service("svc-1");
  const double before =
      controller.model().service_time(svc, ClassId{0}, ClusterId{0});
  for (int i = 0; i < 4; ++i) {
    controller.on_reports({synthetic_report(ClusterId{0}, i, i + 1.0, svc,
                                            100.0, 50e-3, 0.1, 60e-3)},
                          i + 1.0);
  }
  EXPECT_DOUBLE_EQ(
      controller.model().service_time(svc, ClassId{0}, ClusterId{0}), before);
}

// Guarded rollout armed with `canary_periods` canary periods and a
// 10-sample verdict floor (the synthetic reports carry hundreds).
GlobalControllerOptions rollout_options(std::size_t canary_periods) {
  GlobalControllerOptions options;
  options.guard.rollout.enabled = true;
  options.guard.rollout.canary_periods = canary_periods;
  options.guard.rollout.min_samples = 10;
  return options;
}

// One period of two-cluster reports at the given west/east class-0 RPS.
std::vector<ClusterReport> chain_reports(ServiceId svc, double t,
                                         double west_rps, double east_rps,
                                         double west_util = 0.9) {
  return {synthetic_report(ClusterId{0}, t - 1.0, t, svc, west_rps, 2e-3,
                           west_util, 10e-3),
          synthetic_report(ClusterId{1}, t - 1.0, t, svc, east_rps, 2e-3, 0.2,
                           10e-3)};
}

TEST(GlobalController, RolloutDampsALargeSecondPush) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  GlobalControllerOptions options = rollout_options(1);
  options.demand_smoothing = 1.0;
  GlobalController controller(*scenario.app, *scenario.deployment,
                              *scenario.topology, options);
  const ServiceId svc = scenario.app->find_service("svc-1");

  // Light load: the first push is applied verbatim (nothing to damp
  // against) and arms a one-period canary.
  const auto first =
      controller.on_reports(chain_reports(svc, 1.0, 100.0, 100.0, 0.2), 1.0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(controller.rollout()->damped_pushes(), 0u);

  // Heavy west overload: the canary passes (goodput rose), and the new
  // target offloads far more than one push may move, so the second push
  // is a damped step that stops short of the target.
  const auto second =
      controller.on_reports(chain_reports(svc, 2.0, 800.0, 100.0), 2.0);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(controller.rollout()->damped_pushes(), 1u);
  EXPECT_EQ(controller.rollout()->rollbacks(), 0u);
  const OptimizerResult& target = controller.last_result();
  EXPECT_GT(rule_set_distance(*second, *target.rules), 0.0);
  EXPECT_EQ(controller.last_push_epoch(), 2u);
}

TEST(GlobalController, RolloutRollsBackOnGoodputDrop) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  GlobalController controller(*scenario.app, *scenario.deployment,
                              *scenario.topology, rollout_options(2));
  const ServiceId svc = scenario.app->find_service("svc-1");

  // Period 1: healthy 800 RPS baseline, rules pushed under a canary.
  ASSERT_NE(controller.on_reports(chain_reports(svc, 1.0, 700.0, 100.0), 1.0),
            nullptr);
  const std::uint64_t pushed_epoch = controller.last_push_epoch();

  // Period 2: goodput halves (800 -> 400 RPS, past the 25% drop) inside
  // the canary window: the fleet rolls back to last-known-good (no rule
  // set survived a canary yet, so the empty set) under a fresh epoch.
  const auto rollback =
      controller.on_reports(chain_reports(svc, 2.0, 300.0, 100.0), 2.0);
  ASSERT_NE(rollback, nullptr);
  EXPECT_EQ(rollback->size(), 0u);
  EXPECT_EQ(controller.rollout()->rollbacks(), 1u);
  EXPECT_GT(controller.last_push_epoch(), pushed_epoch);

  // Period 3: rollout is frozen while telemetry recovers: no actuation.
  EXPECT_TRUE(controller.rollout()->frozen());
  EXPECT_EQ(controller.on_reports(chain_reports(svc, 3.0, 700.0, 100.0), 3.0),
            nullptr);
}

TEST(GlobalController, RolloutToleratesDropWithinTolerance) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  GlobalController controller(*scenario.app, *scenario.deployment,
                              *scenario.topology, rollout_options(2));
  const ServiceId svc = scenario.app->find_service("svc-1");
  ASSERT_NE(controller.on_reports(chain_reports(svc, 1.0, 700.0, 100.0), 1.0),
            nullptr);
  // 800 -> 700 RPS is a 12.5% drop, inside the 25% tolerance: the canary
  // keeps evaluating instead of rolling back.
  EXPECT_EQ(controller.on_reports(chain_reports(svc, 2.0, 600.0, 100.0), 2.0),
            nullptr);
  EXPECT_EQ(controller.rollout()->rollbacks(), 0u);
  EXPECT_FALSE(controller.rollout()->frozen());
}

TEST(GlobalController, LiveServersTrackedFromReports) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  GlobalController controller(*scenario.app, *scenario.deployment,
                              *scenario.topology, {});
  const ServiceId svc = scenario.app->find_service("svc-1");
  ClusterReport report = synthetic_report(ClusterId{1}, 0.0, 1.0, svc, 100.0,
                                          2e-3, 0.2, 8e-3);
  report.station_metrics[0].servers = 7;  // autoscaled
  controller.on_reports({report}, 1.0);
  EXPECT_EQ(controller.live_servers()[svc.index() * 2 + 1], 7u);
  EXPECT_EQ(controller.live_servers()[svc.index() * 2 + 0], 0u);  // unreported
}

// --- Rule aging edge cases --------------------------------------------------

TEST_F(ClusterControllerTest, AgeRulesKeepsRulesAtExactStalenessBoundary) {
  ClusterController controller(ClusterId{0}, 1, registry_,
                               {&station_, nullptr}, policy_);
  controller.push_rules(std::make_shared<RoutingRuleSet>());
  controller.heartbeat(10.0);
  // now - last_contact == max_missed * period exactly: still in contact.
  EXPECT_FALSE(controller.age_rules(13.0, 1.0, 3));
  EXPECT_NE(policy_->rules(), nullptr);
  EXPECT_EQ(controller.failovers(), 0u);
  // One epsilon past the boundary: the rules drop.
  EXPECT_TRUE(controller.age_rules(13.0 + 1e-9, 1.0, 3));
  EXPECT_EQ(policy_->rules(), nullptr);
  EXPECT_EQ(controller.failovers(), 1u);
  // Already failed over: aging again is a no-op, not a second failover.
  EXPECT_FALSE(controller.age_rules(20.0, 1.0, 3));
  EXPECT_EQ(controller.failovers(), 1u);
}

TEST_F(ClusterControllerTest, FreshPushMidAgeOutRearmsRules) {
  ClusterController controller(ClusterId{0}, 1, registry_,
                               {&station_, nullptr}, policy_);
  controller.push_rules(std::make_shared<RoutingRuleSet>(), 1);
  controller.heartbeat(10.0);
  EXPECT_TRUE(controller.age_rules(15.0, 1.0, 3));  // aged out
  EXPECT_EQ(policy_->rules(), nullptr);
  // The controller comes back: a fresh push re-arms the data plane and
  // resets the staleness clock.
  auto fresh = std::make_shared<RoutingRuleSet>();
  controller.heartbeat(16.0);
  controller.push_rules(fresh, 2);
  EXPECT_EQ(policy_->rules().get(), fresh.get());
  EXPECT_FALSE(controller.age_rules(17.0, 1.0, 3));
  EXPECT_EQ(controller.failovers(), 1u);
}

TEST_F(ClusterControllerTest, ZeroMaxMissedAgesImmediately) {
  // max_missed == 0: any gap beyond the current instant is too stale.
  ClusterController controller(ClusterId{0}, 1, registry_,
                               {&station_, nullptr}, policy_);
  controller.push_rules(std::make_shared<RoutingRuleSet>());
  controller.heartbeat(5.0);
  EXPECT_FALSE(controller.age_rules(5.0, 1.0, 0));  // same instant: in contact
  EXPECT_TRUE(controller.age_rules(5.1, 1.0, 0));
  EXPECT_EQ(policy_->rules(), nullptr);
}

// --- Stale-demand decay floor ----------------------------------------------

TEST(GlobalController, StaleDemandDecaysThenSnapsToZero) {
  const Scenario scenario = make_two_cluster_chain_scenario({});
  GlobalControllerOptions options;
  options.stale_after_periods = 2;
  options.stale_demand_decay = 0.5;
  options.stale_demand_floor = 10.0;  // high floor: snap fast in the test
  GlobalController controller(*scenario.app, *scenario.deployment,
                              *scenario.topology, options);
  const ServiceId svc = scenario.app->find_service("svc-1");

  // West reports 100 RPS once, then goes dark; East keeps reporting.
  controller.on_reports(
      {synthetic_report(ClusterId{0}, 0.0, 1.0, svc, 100.0, 2e-3, 0.5, 8e-3),
       synthetic_report(ClusterId{1}, 0.0, 1.0, svc, 50.0, 2e-3, 0.2, 8e-3)},
      1.0);
  EXPECT_NEAR(controller.demand()(0, 0), 100.0, 1e-9);
  EXPECT_EQ(controller.stale_periods(ClusterId{0}), 0u);

  double t = 2.0;
  auto east_only = [&] {
    controller.on_reports({synthetic_report(ClusterId{1}, t - 1.0, t, svc,
                                            50.0, 2e-3, 0.2, 8e-3)},
                          t);
    t += 1.0;
  };
  // Periods 2-3: within tolerance, demand untouched.
  east_only();
  east_only();
  EXPECT_NEAR(controller.demand()(0, 0), 100.0, 1e-9);
  EXPECT_EQ(controller.stale_periods(ClusterId{0}), 2u);
  EXPECT_EQ(controller.stale_clusters(), 0u);

  // Period 4: past stale_after_periods, geometric decay begins.
  east_only();
  EXPECT_NEAR(controller.demand()(0, 0), 50.0, 1e-9);
  EXPECT_EQ(controller.stale_clusters(), 1u);
  east_only();
  EXPECT_NEAR(controller.demand()(0, 0), 25.0, 1e-9);
  // Period 6: 12.5 decays to 6.25 < floor 10 -> snaps to exactly zero so a
  // long-dark cluster stops attracting ghost-load routing.
  east_only();
  east_only();
  EXPECT_DOUBLE_EQ(controller.demand()(0, 0), 0.0);
  EXPECT_GE(controller.stale_periods(ClusterId{0}), 5u);

  // Recovery: the cluster reports again and demand snaps back live.
  controller.on_reports({synthetic_report(ClusterId{0}, t - 1.0, t, svc, 80.0,
                                          2e-3, 0.5, 8e-3)},
                        t);
  EXPECT_GT(controller.demand()(0, 0), 0.0);
  EXPECT_EQ(controller.stale_periods(ClusterId{0}), 0u);
  EXPECT_EQ(controller.stale_clusters(), 0u);
}

}  // namespace
}  // namespace slate

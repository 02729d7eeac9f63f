// End-to-end fault injection and recovery: cluster outages, telemetry
// blackouts, and link partitions driven through the full SLATE control
// hierarchy, with the data plane's timeout/retry machinery on.
#include <gtest/gtest.h>

#include "result_checks.h"
#include "runtime/scenarios.h"
#include "runtime/simulation.h"

namespace slate {
namespace {

RunConfig fault_config(PolicyKind policy, std::uint64_t seed = 7) {
  RunConfig config;
  config.policy = policy;
  config.duration = 70.0;
  config.warmup = 10.0;
  config.seed = seed;
  config.control_period = 1.0;
  config.timeseries_bucket = 1.0;
  config.failure.enabled = true;
  config.failure.call_timeout = 0.5;
  config.failure.max_retries = 2;
  return config;
}

TEST(FaultRecovery, OutageGoodputRecoversWithinThreeControlPeriods) {
  // West overloaded (600 > 475 capacity), SLATE spills onto East; East dies
  // for 10s mid-run. Spilled calls are rejected, retried on West; after the
  // outage clears, goodput must return to within 5% of the pre-fault level
  // inside 3 control periods.
  TwoClusterChainParams params;
  params.west_rps = 600.0;
  params.east_rps = 100.0;
  Scenario scenario = make_two_cluster_chain_scenario(params);
  scenario.faults.cluster_outage(ClusterId{1}, 40.0, 10.0);  // East: [40, 50)

  const ExperimentResult r =
      run_experiment(scenario, fault_config(PolicyKind::kSlate));
  ASSERT_GT(r.completed, 1000u);
  EXPECT_EQ(r.fault_transitions, 2u);

  const double pre = r.goodput_in_window(30.0, 40.0);
  const double during = r.goodput_in_window(42.0, 49.0);
  const double post = r.goodput_in_window(53.0, 60.0);
  // The outage bites: West alone cannot serve 700 RPS.
  EXPECT_LT(during, 0.9 * pre);
  EXPECT_GT(r.failed, 0u);
  EXPECT_GT(r.call_rejections, 0u);
  // ...and recovery is prompt once East returns (fault clears at t=50).
  EXPECT_GE(post, 0.95 * pre);
}

TEST(FaultRecovery, RetriesConvertOutageErrorsIntoFailover) {
  // Round-robin keeps sending half of every hop to East while East is down,
  // and the surviving cluster has plenty of headroom. The fair-weather
  // config fails every East-bound call terminally; with retries the
  // rejected calls re-route to West and most requests still succeed.
  TwoClusterChainParams params;
  params.west_rps = 200.0;
  params.east_rps = 100.0;
  params.west_servers = 2;  // headroom to absorb the whole load
  Scenario scenario = make_two_cluster_chain_scenario(params);
  scenario.faults.cluster_outage(ClusterId{1}, 40.0, 10.0);

  RunConfig with_retries = fault_config(PolicyKind::kRoundRobin);
  // Default budget (0.2 tokens/call) throttles a 50%-of-traffic failure;
  // let every call bank a retry so the comparison isolates the mechanism.
  with_retries.failure.retry_budget_ratio = 1.0;
  RunConfig fair_weather = fault_config(PolicyKind::kRoundRobin);
  fair_weather.failure.enabled = false;

  const ExperimentResult handled = run_experiment(scenario, with_retries);
  const ExperimentResult naive = run_experiment(scenario, fair_weather);

  ASSERT_GT(naive.failed, 0u);
  EXPECT_GT(handled.call_retries, 0u);
  EXPECT_LT(handled.failed, naive.failed / 2);
  EXPECT_GT(handled.completed, naive.completed);
}

TEST(FaultRecovery, TelemetryBlackoutDegradesToFailoverAndRecovers) {
  // West loses contact with the global controller for 8 control periods.
  // The controller must neither crash nor wedge: West ages its rules out to
  // locality failover, the global controller decays West's demand estimate,
  // and everything reconverges once reports resume.
  TwoClusterChainParams params;
  params.west_rps = 400.0;  // within West's own capacity
  params.east_rps = 100.0;
  Scenario scenario = make_two_cluster_chain_scenario(params);
  scenario.faults.telemetry_blackout(ClusterId{0}, 30.0, 8.0);

  RunConfig config = fault_config(PolicyKind::kSlate);
  Simulation sim(scenario, config);
  const ExperimentResult r = sim.run();

  ASSERT_GT(r.completed, 1000u);
  // The control loop ran every period, blackout included.
  EXPECT_GE(r.controller_rounds, 65u);
  // West dropped its stale rules during the blackout...
  ASSERT_NE(sim.cluster_controller(ClusterId{0}), nullptr);
  EXPECT_GE(sim.cluster_controller(ClusterId{0})->failovers(), 1u);
  // ...and is no longer stale at the end of the run.
  ASSERT_NE(sim.global_controller(), nullptr);
  EXPECT_EQ(sim.global_controller()->stale_clusters(), 0u);
  // Data plane kept serving: goodput after recovery matches before.
  const double pre = r.goodput_in_window(20.0, 30.0);
  const double post = r.goodput_in_window(45.0, 60.0);
  EXPECT_GE(post, 0.95 * pre);
  EXPECT_EQ(r.failed, 0u);  // a blackout breaks control, not the data plane
}

TEST(FaultRecovery, PartitionedLinkTimesOutAndRetriesElsewhere) {
  // The West->East request path drops every message for 10s. Calls in
  // flight hit their deadline and retry excluding East, so requests keep
  // succeeding on West.
  TwoClusterChainParams params;
  params.west_rps = 300.0;  // light enough for West to absorb everything
  params.east_rps = 100.0;
  Scenario scenario = make_two_cluster_chain_scenario(params);
  scenario.faults.link_partition(ClusterId{0}, ClusterId{1}, 30.0, 10.0);

  const ExperimentResult r =
      run_experiment(scenario, fault_config(PolicyKind::kSlate));
  ASSERT_GT(r.completed, 1000u);
  EXPECT_GT(r.call_timeouts, 0u);
  EXPECT_GT(r.call_retries, 0u);
  const double pre = r.goodput_in_window(20.0, 30.0);
  const double post = r.goodput_in_window(45.0, 60.0);
  EXPECT_GE(post, 0.95 * pre);
}

TEST(FaultRecovery, LinkDegradationInflatesCrossClusterLatency) {
  // A 10x latency surge plus 50ms additive on West->East: SLATE's spilled
  // calls get slower end to end while everything still succeeds (no
  // timeout: 0 disables the deadline).
  TwoClusterChainParams params;
  params.west_rps = 300.0;
  params.east_rps = 100.0;

  Scenario clean = make_two_cluster_chain_scenario(params);
  Scenario degraded = make_two_cluster_chain_scenario(params);
  degraded.faults.link_degradation(ClusterId{0}, ClusterId{1}, 10.0, 60.0,
                                   10.0, 0.05);

  RunConfig config = fault_config(PolicyKind::kRoundRobin);
  config.failure.call_timeout = 0.0;  // no deadline: slowness, not failure
  const ExperimentResult fast = run_experiment(clean, config);
  const ExperimentResult slow = run_experiment(degraded, config);

  ASSERT_GT(slow.completed, 1000u);
  EXPECT_EQ(slow.failed, 0u);
  // Round-robin sends half of every hop cross-cluster; the degraded run
  // must be clearly slower.
  EXPECT_GT(slow.mean_latency(), fast.mean_latency() + 0.05);
}

TEST(FaultRecovery, ServiceSlowdownGrayFailureRaisesLatency) {
  // svc-1 in West runs 20x slow (gray failure) for the whole measured run.
  TwoClusterChainParams params;
  params.west_rps = 200.0;
  params.east_rps = 0.0;

  Scenario clean = make_two_cluster_chain_scenario(params);
  Scenario gray = make_two_cluster_chain_scenario(params);
  const ServiceId svc1 = gray.app->find_service("svc-1");
  gray.faults.service_slowdown(svc1, ClusterId{0}, 0.0, 70.0, 20.0);

  RunConfig config = fault_config(PolicyKind::kLocalOnly);
  config.failure.call_timeout = 0.0;
  const ExperimentResult fast = run_experiment(clean, config);
  const ExperimentResult slow = run_experiment(gray, config);
  ASSERT_GT(slow.completed, 1000u);
  // 2ms compute becomes 40ms at u = 200/25 — saturated; just demand the
  // direction, with margin.
  EXPECT_GT(slow.mean_latency(), fast.mean_latency() * 3.0);
}

TEST(FaultRecovery, FrontDoorFailsOverWhenIngressClusterIsDown) {
  // All of East's arrivals land while East is down: the front door sends
  // them to West instead of failing them.
  TwoClusterChainParams params;
  params.west_rps = 100.0;
  params.east_rps = 100.0;
  Scenario scenario = make_two_cluster_chain_scenario(params);
  scenario.faults.cluster_outage(ClusterId{1}, 20.0, 40.0);

  const ExperimentResult r =
      run_experiment(scenario, fault_config(PolicyKind::kLocalityFailover));
  ASSERT_GT(r.completed, 1000u);
  // East-origin roots served in West during the outage.
  EXPECT_GT(r.flows[0][0](1, 0), 1000u);
  // Nearly everything still succeeds (only calls in flight at the onset
  // can fail).
  EXPECT_LT(r.error_rate(), 0.01);
}

TEST(FaultRecovery, TotalOutageFailsRequestsThenRecovers) {
  // Both clusters down: nothing can serve; every arrival fails fast. After
  // the window, service resumes.
  TwoClusterChainParams params;
  params.west_rps = 200.0;
  params.east_rps = 0.0;
  Scenario scenario = make_two_cluster_chain_scenario(params);
  scenario.faults.cluster_outage(ClusterId{0}, 30.0, 5.0);
  scenario.faults.cluster_outage(ClusterId{1}, 30.0, 5.0);

  const ExperimentResult r =
      run_experiment(scenario, fault_config(PolicyKind::kLocalityFailover));
  EXPECT_GT(r.failed, 0u);
  EXPECT_GT(r.goodput_in_window(40.0, 60.0), 0.9 * r.goodput_in_window(20.0, 30.0));
  // During the blackout window goodput is (almost) zero.
  EXPECT_LT(r.goodput_in_window(31.0, 34.0), 20.0);
}

TEST(FaultRecovery, DeterministicForSeedUnderFaults) {
  TwoClusterChainParams params;
  params.west_rps = 500.0;
  Scenario scenario = make_two_cluster_chain_scenario(params);
  scenario.faults.cluster_outage(ClusterId{1}, 30.0, 10.0);
  scenario.faults.link_degradation(ClusterId{0}, ClusterId{1}, 15.0, 20.0,
                                   3.0, 0.01);

  expect_same_result(
      run_experiment(scenario, fault_config(PolicyKind::kSlate, 11)),
      run_experiment(scenario, fault_config(PolicyKind::kSlate, 11)));
}

}  // namespace
}  // namespace slate

// FaultPlan validation and FaultInjector scheduling/stacking semantics.
#include <gtest/gtest.h>

#include <stdexcept>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "result_checks.h"
#include "runtime/scenario_loader.h"
#include "runtime/simulation.h"
#include "sim/simulator.h"

namespace slate {
namespace {

constexpr std::size_t kClusters = 3;
constexpr std::size_t kServices = 2;

TEST(FaultPlan, BuildersAppendSpecs) {
  FaultPlan plan;
  plan.cluster_outage(ClusterId{0}, 10.0, 5.0);
  plan.link_degradation(ClusterId{0}, ClusterId{1}, 0.0, 2.0, 3.0, 0.01);
  plan.link_partition(ClusterId{1}, ClusterId{2}, 1.0, 1.0);
  plan.service_slowdown(ServiceId{1}, ClusterId{2}, 4.0, 2.0, 10.0);
  plan.telemetry_blackout(ClusterId{2}, 8.0, 4.0);
  EXPECT_EQ(plan.size(), 5u);
  EXPECT_EQ(plan.faults()[0].kind, FaultKind::kClusterOutage);
  EXPECT_DOUBLE_EQ(plan.faults()[0].end(), 15.0);
  EXPECT_TRUE(plan.faults()[2].partition);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  FaultPlan plan;
  // Bad windows.
  EXPECT_THROW(plan.cluster_outage(ClusterId{0}, -1.0, 5.0),
               std::invalid_argument);
  EXPECT_THROW(plan.cluster_outage(ClusterId{0}, 0.0, 0.0),
               std::invalid_argument);
  // Missing ids.
  EXPECT_THROW(plan.cluster_outage(ClusterId{}, 0.0, 5.0),
               std::invalid_argument);
  EXPECT_THROW(plan.telemetry_blackout(ClusterId{}, 0.0, 5.0),
               std::invalid_argument);
  EXPECT_THROW(plan.service_slowdown(ServiceId{}, ClusterId{0}, 0.0, 5.0, 2.0),
               std::invalid_argument);
  // Self-loop and no-effect links.
  EXPECT_THROW(plan.link_partition(ClusterId{1}, ClusterId{1}, 0.0, 5.0),
               std::invalid_argument);
  EXPECT_THROW(
      plan.link_degradation(ClusterId{0}, ClusterId{1}, 0.0, 5.0, 1.0, 0.0),
      std::invalid_argument);
  // Slowdown with identity factor is a no-op, hence an authoring error.
  EXPECT_THROW(plan.service_slowdown(ServiceId{0}, ClusterId{0}, 0.0, 5.0, 1.0),
               std::invalid_argument);
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlan, ValidateChecksWorldBounds) {
  FaultPlan plan;
  plan.cluster_outage(ClusterId{5}, 0.0, 1.0);
  EXPECT_THROW(plan.validate(3, 2), std::invalid_argument);
  EXPECT_NO_THROW(plan.validate(6, 2));

  FaultPlan svc_plan;
  svc_plan.service_slowdown(ServiceId{4}, ClusterId{0}, 0.0, 1.0, 2.0);
  EXPECT_THROW(svc_plan.validate(3, 2), std::invalid_argument);
  EXPECT_NO_THROW(svc_plan.validate(3, 5));
}

TEST(FaultInjector, OutageActivatesAndClearsOnSchedule) {
  Simulator sim;
  FaultPlan plan;
  plan.cluster_outage(ClusterId{1}, 10.0, 5.0);
  FaultInjector inj(sim, plan, kClusters, kServices);
  inj.arm();

  sim.run_until(9.999);
  EXPECT_FALSE(inj.cluster_down(ClusterId{1}));
  EXPECT_EQ(inj.active_count(), 0u);
  sim.run_until(10.0);
  EXPECT_TRUE(inj.cluster_down(ClusterId{1}));
  EXPECT_FALSE(inj.cluster_down(ClusterId{0}));
  EXPECT_EQ(inj.active_count(), 1u);
  sim.run_until(15.0);
  EXPECT_FALSE(inj.cluster_down(ClusterId{1}));
  EXPECT_EQ(inj.active_count(), 0u);
  EXPECT_EQ(inj.transitions(), 2u);
}

TEST(FaultInjector, OverlappingOutagesReferenceCount) {
  Simulator sim;
  FaultPlan plan;
  plan.cluster_outage(ClusterId{0}, 1.0, 10.0);   // [1, 11)
  plan.cluster_outage(ClusterId{0}, 5.0, 2.0);    // [5, 7) nested
  FaultInjector inj(sim, plan, kClusters, kServices);
  inj.arm();

  sim.run_until(6.0);
  EXPECT_TRUE(inj.cluster_down(ClusterId{0}));
  EXPECT_EQ(inj.active_count(), 2u);
  sim.run_until(8.0);
  // The nested fault ended; the outer one still holds the cluster down.
  EXPECT_TRUE(inj.cluster_down(ClusterId{0}));
  sim.run_until(12.0);
  EXPECT_FALSE(inj.cluster_down(ClusterId{0}));
  EXPECT_EQ(inj.transitions(), 4u);
}

TEST(FaultInjector, LinkEffectsStackMultiplicativelyAndDirectionally) {
  Simulator sim;
  FaultPlan plan;
  plan.link_degradation(ClusterId{0}, ClusterId{1}, 0.0, 10.0, 2.0, 0.01);
  plan.link_degradation(ClusterId{0}, ClusterId{1}, 2.0, 4.0, 3.0, 0.02);
  FaultInjector inj(sim, plan, kClusters, kServices);
  inj.arm();

  sim.run_until(1.0);
  EXPECT_DOUBLE_EQ(inj.latency_factor(ClusterId{0}, ClusterId{1}), 2.0);
  EXPECT_DOUBLE_EQ(inj.extra_latency(ClusterId{0}, ClusterId{1}), 0.01);
  // The effect is directed: the reverse edge is untouched.
  EXPECT_DOUBLE_EQ(inj.latency_factor(ClusterId{1}, ClusterId{0}), 1.0);

  sim.run_until(3.0);  // both active
  EXPECT_DOUBLE_EQ(inj.latency_factor(ClusterId{0}, ClusterId{1}), 6.0);
  EXPECT_DOUBLE_EQ(inj.extra_latency(ClusterId{0}, ClusterId{1}), 0.03);

  sim.run_until(7.0);  // second cleared
  EXPECT_DOUBLE_EQ(inj.latency_factor(ClusterId{0}, ClusterId{1}), 2.0);
  sim.run_until(11.0);
  EXPECT_DOUBLE_EQ(inj.latency_factor(ClusterId{0}, ClusterId{1}), 1.0);
  // Additive effects cancel to within float rounding.
  EXPECT_NEAR(inj.extra_latency(ClusterId{0}, ClusterId{1}), 0.0, 1e-12);
}

TEST(FaultInjector, PartitionHoldsUntilLastCoveringFaultEnds) {
  Simulator sim;
  FaultPlan plan;
  plan.link_partition(ClusterId{0}, ClusterId{2}, 1.0, 4.0);  // [1, 5)
  plan.link_partition(ClusterId{0}, ClusterId{2}, 3.0, 4.0);  // [3, 7)
  FaultInjector inj(sim, plan, kClusters, kServices);
  inj.arm();

  sim.run_until(2.0);
  EXPECT_TRUE(inj.link_partitioned(ClusterId{0}, ClusterId{2}));
  sim.run_until(6.0);  // first ended at 5, second still covers
  EXPECT_TRUE(inj.link_partitioned(ClusterId{0}, ClusterId{2}));
  sim.run_until(8.0);
  EXPECT_FALSE(inj.link_partitioned(ClusterId{0}, ClusterId{2}));
}

TEST(FaultInjector, SlowdownAppliesPerClusterOrEverywhere) {
  Simulator sim;
  FaultPlan plan;
  plan.service_slowdown(ServiceId{0}, ClusterId{1}, 0.0, 5.0, 4.0);
  plan.service_slowdown(ServiceId{1}, ClusterId{}, 0.0, 5.0, 2.0);  // all
  FaultInjector inj(sim, plan, kClusters, kServices);
  inj.arm();

  sim.run_until(1.0);
  EXPECT_DOUBLE_EQ(inj.compute_factor(ServiceId{0}, ClusterId{1}), 4.0);
  EXPECT_DOUBLE_EQ(inj.compute_factor(ServiceId{0}, ClusterId{0}), 1.0);
  for (std::size_t c = 0; c < kClusters; ++c) {
    EXPECT_DOUBLE_EQ(inj.compute_factor(ServiceId{1}, ClusterId{c}), 2.0);
  }
  sim.run_until(6.0);
  EXPECT_DOUBLE_EQ(inj.compute_factor(ServiceId{0}, ClusterId{1}), 1.0);
  EXPECT_DOUBLE_EQ(inj.compute_factor(ServiceId{1}, ClusterId{2}), 1.0);
}

TEST(FaultInjector, ArmSkipsElapsedAndClampsStraddlingFaults) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();  // now = 10
  FaultPlan plan;
  plan.cluster_outage(ClusterId{0}, 0.0, 5.0);   // fully in the past
  plan.cluster_outage(ClusterId{1}, 5.0, 10.0);  // straddles now: [5, 15)
  FaultInjector inj(sim, plan, kClusters, kServices);
  inj.arm();

  sim.run_until(10.5);
  EXPECT_FALSE(inj.cluster_down(ClusterId{0}));  // never activated
  EXPECT_TRUE(inj.cluster_down(ClusterId{1}));   // activated immediately
  sim.run_until(15.0);
  EXPECT_FALSE(inj.cluster_down(ClusterId{1}));
  EXPECT_EQ(inj.transitions(), 2u);
}

TEST(FaultInjector, ArmTwiceThrows) {
  Simulator sim;
  FaultPlan plan;
  plan.cluster_outage(ClusterId{0}, 1.0, 1.0);
  FaultInjector inj(sim, plan, kClusters, kServices);
  inj.arm();
  EXPECT_THROW(inj.arm(), std::logic_error);
}

TEST(FaultInjector, ConstructorValidatesAgainstWorld) {
  Simulator sim;
  FaultPlan plan;
  plan.cluster_outage(ClusterId{7}, 0.0, 1.0);
  EXPECT_THROW(FaultInjector(sim, plan, kClusters, kServices),
               std::invalid_argument);
}

TEST(FaultInjector, TransitionObserverSeesActivationsInOrder) {
  Simulator sim;
  FaultPlan plan;
  plan.cluster_outage(ClusterId{0}, 2.0, 3.0);
  plan.telemetry_blackout(ClusterId{1}, 4.0, 4.0);
  FaultInjector inj(sim, plan, kClusters, kServices);
  std::vector<std::pair<FaultKind, bool>> log;
  inj.on_transition = [&](const FaultSpec& spec, bool active) {
    log.emplace_back(spec.kind, active);
  };
  inj.arm();
  sim.run_until(10.0);
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], std::make_pair(FaultKind::kClusterOutage, true));
  EXPECT_EQ(log[1], std::make_pair(FaultKind::kTelemetryBlackout, true));
  EXPECT_EQ(log[2], std::make_pair(FaultKind::kClusterOutage, false));
  EXPECT_EQ(log[3], std::make_pair(FaultKind::kTelemetryBlackout, false));
}

// A drain that overlaps an outage of the same cluster: the outage wins,
// the drain cancels cleanly (no resumed stepping after the fault clears),
// and the whole interleaving is deterministic run-to-run.
TEST(FaultInjector, DrainOverlappingOutageCancelsDeterministically) {
  const Scenario make = load_scenario_from_string(R"(
cluster west
cluster east
rtt west east 20ms
service ingress
service worker
class api
call api root ingress compute=0.1ms
call api ingress worker compute=2ms
deploy * * servers=2 capacity=900
demand api west 300
demand api east 300
fault outage east @6s 5s
drain east @4s over=8s
)");

  RunConfig config;
  config.policy = PolicyKind::kSlate;
  config.duration = 20.0;
  config.warmup = 2.0;
  config.seed = 11;
  config.timeseries_bucket = 1.0;
  config.failure.enabled = true;
  config.failure.call_timeout = 0.5;

  const ExperimentResult a = run_experiment(make, config);
  // The drain starts at 4s, the outage lands at 6s: started then cancelled,
  // never completed, and no steps accrue after the cancel (the fault clears
  // at 11s with 1s of nominal drain window left, but cancelled is final).
  EXPECT_EQ(a.drains_started, 1u);
  EXPECT_EQ(a.drains_cancelled, 1u);
  EXPECT_EQ(a.drains_completed, 0u);
  EXPECT_GT(a.drain_steps, 0u);
  // Cluster east serves again after the outage: keep restored to 1.0 means
  // traffic is not silently diverted for the rest of the run.
  EXPECT_GT(a.goodput_in_window(15.0, 20.0),
            0.9 * a.goodput_in_window(2.0, 4.0));

  expect_same_result(a, run_experiment(make, config));
}

}  // namespace
}  // namespace slate

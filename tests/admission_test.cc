// SLO-aware ingress admission control: token-bucket mechanics, the
// per-period adaptation loop, and the acceptance pins for
// bench/ext_admission (front-door vs mid-tree shedding, no-starvation
// under anti-phase diurnal overload, disabled-is-identical).
#include <gtest/gtest.h>

#include <stdexcept>

#include "admission/admission_controller.h"
#include "admission/admission_policy.h"
#include "result_checks.h"
#include "runtime/scenarios.h"
#include "runtime/simulation.h"
#include "util/matrix.h"
#include "workload/generators.h"

namespace slate {
namespace {

// --- Policy validation -----------------------------------------------------

TEST(AdmissionPolicy, ValidateRejectsBadKnobs) {
  AdmissionPolicy p;
  p.enabled = true;
  p.default_rate = 0.0;
  EXPECT_THROW(p.validate(1), std::invalid_argument);

  p = AdmissionPolicy{};
  p.enabled = true;
  p.class_rate = {100.0, 200.0, 300.0};
  EXPECT_THROW(p.validate(2), std::invalid_argument);  // out-of-range class

  p = AdmissionPolicy{};
  p.enabled = true;
  p.burst = 0.0;
  EXPECT_THROW(p.validate(1), std::invalid_argument);

  p = AdmissionPolicy{};
  p.enabled = true;
  p.target_attainment = 1.5;
  EXPECT_THROW(p.validate(1), std::invalid_argument);

  p = AdmissionPolicy{};
  p.enabled = true;
  p.gain = 1.0;
  EXPECT_THROW(p.validate(1), std::invalid_argument);

  p = AdmissionPolicy{};
  p.enabled = true;
  p.headroom = 0.9;
  EXPECT_THROW(p.validate(1), std::invalid_argument);

  p = AdmissionPolicy{};
  p.enabled = true;
  p.fair_floor = 1.5;
  EXPECT_THROW(p.validate(1), std::invalid_argument);

  p = AdmissionPolicy{};
  p.enabled = true;
  p.min_rate = 100.0;
  p.max_rate = 10.0;
  EXPECT_THROW(p.validate(1), std::invalid_argument);

  // A disabled policy never validates its knobs: garbage is inert.
  p = AdmissionPolicy{};
  p.default_rate = -5.0;
  EXPECT_NO_THROW(p.validate(1));
}

TEST(AdmissionPolicy, PerClassOverridesFallBackToDefaults) {
  AdmissionPolicy p;
  p.default_rate = 100.0;
  p.class_rate = {0.0, 250.0};
  p.default_slo = 1.0;
  p.class_slo = {0.2};
  EXPECT_DOUBLE_EQ(p.rate_for(ClassId{0}), 100.0);  // <= 0 falls back
  EXPECT_DOUBLE_EQ(p.rate_for(ClassId{1}), 250.0);
  EXPECT_DOUBLE_EQ(p.rate_for(ClassId{2}), 100.0);  // beyond the vector
  EXPECT_DOUBLE_EQ(p.slo_for(ClassId{0}), 0.2);
  EXPECT_DOUBLE_EQ(p.slo_for(ClassId{1}), 1.0);
}

// --- Token bucket data path ------------------------------------------------

AdmissionPolicy unit_policy() {
  AdmissionPolicy p;
  p.enabled = true;
  p.default_rate = 10.0;
  p.burst = 0.1;  // depth = max(1, 10 * 0.1) = 1 token
  p.default_slo = 1.0;
  return p;
}

TEST(AdmissionController, TokenBucketAdmitsAtConfiguredRate) {
  AdmissionController ctl(unit_policy(), 1, 1);
  const ClassId k{0};
  const ClusterId c{0};
  // The bucket starts full (one token): the first request is admitted,
  // the second at the same instant is not.
  EXPECT_TRUE(ctl.try_admit(k, c, 0.0));
  EXPECT_FALSE(ctl.try_admit(k, c, 0.0));
  // 50ms refills half a token at 10 rps: still rejected.
  EXPECT_FALSE(ctl.try_admit(k, c, 0.05));
  // At 100ms the full token is back.
  EXPECT_TRUE(ctl.try_admit(k, c, 0.1));
  // A long idle gap cannot bank more than the bucket depth.
  EXPECT_TRUE(ctl.try_admit(k, c, 10.0));
  EXPECT_FALSE(ctl.try_admit(k, c, 10.0));
}

TEST(AdmissionController, CellsAreIndependentPerClassAndCluster) {
  AdmissionController ctl(unit_policy(), 2, 2);
  // Drain (class 0, cluster 0); every other cell still has its token.
  EXPECT_TRUE(ctl.try_admit(ClassId{0}, ClusterId{0}, 0.0));
  EXPECT_FALSE(ctl.try_admit(ClassId{0}, ClusterId{0}, 0.0));
  EXPECT_TRUE(ctl.try_admit(ClassId{0}, ClusterId{1}, 0.0));
  EXPECT_TRUE(ctl.try_admit(ClassId{1}, ClusterId{0}, 0.0));
  EXPECT_TRUE(ctl.try_admit(ClassId{1}, ClusterId{1}, 0.0));
}

// --- Adaptation loop -------------------------------------------------------

AdmissionPolicy adapt_policy() {
  AdmissionPolicy p;
  p.enabled = true;
  p.default_rate = 100.0;
  p.burst = 0.01;  // depth 1: admissions don't matter for these tests
  p.default_slo = 1.0;
  p.target_attainment = 0.9;
  p.gain = 0.25;
  p.headroom = 1.25;
  p.fair_floor = 0.1;
  p.evidence = 50.0;
  return p;
}

// Offers `n` requests spread over (0, 1] and reports each admitted one
// as finished with the given e2e latency.
void offer_period(AdmissionController& ctl, std::size_t n, double e2e) {
  const ClassId k{0};
  const ClusterId c{0};
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i + 1) / static_cast<double>(n);
    if (ctl.try_admit(k, c, t)) ctl.on_outcome(k, c, true, e2e);
  }
}

TEST(AdmissionController, ZeroEvidenceHoldsRateExactly) {
  AdmissionController ctl(adapt_policy(), 1, 1);
  ctl.adapt(1.0, nullptr, nullptr);
  ctl.adapt(2.0, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(ctl.rate(ClassId{0}, ClusterId{0}), 100.0);
  EXPECT_EQ(ctl.adapt_rounds(), 2u);
  EXPECT_EQ(ctl.rate_raises(), 0u);
  EXPECT_EQ(ctl.rate_cuts(), 0u);
}

TEST(AdmissionController, HealthyCellOpensTowardHeadroomBoundedByGain) {
  AdmissionController ctl(adapt_policy(), 1, 1);
  // 200 offered in 1s, every admitted completion inside the SLO: the
  // cell is healthy and wants offered * headroom = 250, but the step is
  // bounded at rate * (1 + gain) = 125.
  offer_period(ctl, 200, 0.01);
  ctl.adapt(1.0, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(ctl.rate(ClassId{0}, ClusterId{0}), 125.0);
  EXPECT_EQ(ctl.rate_raises(), 1u);
  EXPECT_EQ(ctl.rate_cuts(), 0u);
}

TEST(AdmissionController, MissedSloCutsProportionallyToSeverity) {
  AdmissionController ctl(adapt_policy(), 1, 1);
  // Every completion blows the 1s SLO: attainment 0, severity 1, cut to
  // rate * (1 - gain) = 75 (observed goodput 0 doesn't hold it higher).
  offer_period(ctl, 200, 5.0);
  ctl.adapt(1.0, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(ctl.rate(ClassId{0}, ClusterId{0}), 75.0);
  EXPECT_EQ(ctl.rate_cuts(), 1u);
}

TEST(AdmissionController, ThinEvidenceBlendsTowardHold) {
  AdmissionPolicy p = adapt_policy();
  p.burst = 1.0;  // deep bucket: all 25 offered are admitted
  AdmissionController ctl(p, 1, 1);
  // 25 offered against an evidence scale of 50: confidence 0.5, so the
  // cut from 100 toward 75 lands halfway, at 87.5.
  offer_period(ctl, 25, 5.0);
  ctl.adapt(1.0, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(ctl.rate(ClassId{0}, ClusterId{0}), 87.5);
}

TEST(AdmissionController, FairnessFloorGuaranteesAdmittedShare) {
  AdmissionPolicy p = adapt_policy();
  p.fair_floor = 0.5;
  AdmissionController ctl(p, 1, 1);
  // 200 offered, all completions miss the SLO: the loop wants to cut to
  // 75, but the floor guarantees 0.5 * 200 = 100 — the rate holds.
  offer_period(ctl, 200, 5.0);
  ctl.adapt(1.0, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(ctl.rate(ClassId{0}, ClusterId{0}), 100.0);
  EXPECT_EQ(ctl.floor_raises(), 1u);
  EXPECT_EQ(ctl.rate_cuts(), 0u);
}

TEST(AdmissionController, ForecastPreWidensAheadOfPredictedRamp) {
  AdmissionController ctl(adapt_policy(), 1, 1);
  FlatMatrix<double> predicted(1, 1, 400.0);
  FlatMatrix<double> confidence(1, 1, 1.0);
  // No reactive evidence this period, but the forecaster predicts a
  // 400 rps ramp with full confidence: the bucket pre-widens to
  // predicted * headroom = 500 before the ramp arrives.
  ctl.adapt(1.0, &predicted, &confidence);
  EXPECT_DOUBLE_EQ(ctl.rate(ClassId{0}, ClusterId{0}), 500.0);
  EXPECT_EQ(ctl.forecast_widenings(), 1u);

  // Zero confidence is a no-op: the reactive rate stands.
  AdmissionController cold(adapt_policy(), 1, 1);
  confidence.fill(0.0);
  cold.adapt(1.0, &predicted, &confidence);
  EXPECT_DOUBLE_EQ(cold.rate(ClassId{0}, ClusterId{0}), 100.0);
  EXPECT_EQ(cold.forecast_widenings(), 0u);
}

// --- End-to-end pins (bench/ext_admission) ---------------------------------

// Mid-tree shedding: bounded interior queues, deadlines carried for
// accounting only — expired work is served anyway, making the wasted
// server time visible. The front-door arm adds the admission gate on
// top of the identical world.
Scenario burst_scenario(bool front_door) {
  TwoClusterChainParams params;
  params.west_rps = 420.0;
  params.east_rps = 100.0;
  Scenario scenario = make_two_cluster_chain_scenario(params);
  const ClassId chain = scenario.app->find_class("chain");
  scenario.demand.add_step(chain, ClusterId{0}, 30.0, 1500.0);
  scenario.demand.add_step(chain, ClusterId{0}, 40.0, params.west_rps);
  scenario.overload.queue.max_queue = 512;
  scenario.overload.deadline.enabled = true;
  scenario.overload.deadline.default_deadline = 0.5;
  scenario.overload.deadline.propagate = false;
  if (front_door) {
    AdmissionPolicy& admission = scenario.admission;
    admission.enabled = true;
    admission.default_rate = 450.0;
    admission.burst = 0.1;
    admission.default_slo = 0.5;
    admission.target_attainment = 0.9;
    admission.headroom = 1.1;
    admission.gain = 0.5;
    admission.fair_floor = 0.02;
  }
  return scenario;
}

RunConfig burst_config() {
  RunConfig config;
  config.policy = PolicyKind::kLocalOnly;
  config.duration = 70.0;
  config.warmup = 5.0;
  config.seed = 23;
  config.timeseries_bucket = 1.0;
  config.failure.enabled = true;
  config.failure.call_timeout = 0.5;
  config.failure.max_retries = 2;
  config.failure.retry_excludes_failed = false;
  return config;
}

TEST(AdmissionPins, FrontDoorSheddingDominatesMidTreeShedding) {
  const ExperimentResult mid =
      run_experiment(burst_scenario(false), burst_config());
  const ExperimentResult front =
      run_experiment(burst_scenario(true), burst_config());

  // The mid-tree arm genuinely wastes server time on expired work...
  EXPECT_GT(mid.wasted_server_seconds, 10.0);
  EXPECT_EQ(mid.admission_rejected, 0u);
  // ...and the front door strictly dominates it: less waste at
  // equal-or-better goodput, with the excess refused at request birth.
  EXPECT_LT(front.wasted_server_seconds, mid.wasted_server_seconds);
  EXPECT_GE(front.completed, mid.completed);
  EXPECT_GE(front.goodput_in_window(55.0, 70.0),
            mid.goodput_in_window(55.0, 70.0));
  EXPECT_GT(front.admission_rejected, 1000u);
  EXPECT_GT(front.admission_adapt_rounds, 0u);
}

Scenario diurnal_scenario(bool admission) {
  TwoClassParams params;
  Scenario scenario = make_two_class_scenario(params);
  const ClassId light = scenario.app->find_class("L");
  const ClassId heavy = scenario.app->find_class("H");
  const ClusterId west{0};

  DiurnalSpec l;
  l.base = 400.0;
  l.amplitude = 250.0;
  l.period = 40.0;
  l.start = 1.0;
  l.end = 90.0;
  scenario.demand.set_rate(light, west, l.base);
  add_diurnal(scenario.demand, light, west, l);

  DiurnalSpec h = l;
  h.base = 80.0;
  h.amplitude = 50.0;
  h.phase = 20.0;  // anti-phase: H peaks exactly when L troughs
  scenario.demand.set_rate(heavy, west, h.base);
  add_diurnal(scenario.demand, heavy, west, h);
  if (admission) {
    scenario.admission.enabled = true;
    scenario.admission.default_rate = 400.0;
    scenario.admission.default_slo = 0.25;
    scenario.admission.target_attainment = 0.9;
    scenario.admission.fair_floor = 0.2;
  }
  return scenario;
}

RunConfig diurnal_config() {
  RunConfig config;
  config.policy = PolicyKind::kLocalOnly;
  config.duration = 90.0;
  config.warmup = 10.0;
  config.seed = 31;
  return config;
}

TEST(AdmissionPins, AdaptiveLoopHoldsSloWithoutStarvingEitherClass) {
  const ExperimentResult base =
      run_experiment(diurnal_scenario(false), diurnal_config());
  const ExperimentResult ctl =
      run_experiment(diurnal_scenario(true), diurnal_config());
  ASSERT_EQ(ctl.e2e_by_class.size(), 2u);

  for (std::size_t k = 0; k < 2; ++k) {
    SCOPED_TRACE(k == 0 ? "L" : "H");
    // Uncontrolled, the rotating overload pushes both classes' p99 far
    // past the 250ms SLO; the adaptation loop pulls it back by over 4x.
    const double base_p99 = base.e2e_by_class[k].quantile(0.99);
    const double ctl_p99 = ctl.e2e_by_class[k].quantile(0.99);
    EXPECT_GT(base_p99, 2.5);
    EXPECT_LT(ctl_p99, base_p99 / 4.0);

    // SLO attainment under admission stays within budget for BOTH
    // classes even while the anti-phase peaks rotate the pressure.
    const std::uint64_t done = ctl.e2e_by_class[k].count();
    ASSERT_GT(done, 0u);
    const double attainment = static_cast<double>(ctl.slo_hits_by_class[k]) /
                              static_cast<double>(done);
    EXPECT_GE(attainment, 0.6);

    // No starvation: every class's admitted share holds at or above its
    // max-min fair floor (0.2 of offered).
    const std::uint64_t admitted = ctl.admission_admitted_by_class[k];
    const std::uint64_t rejected = ctl.admission_rejected_by_class[k];
    ASSERT_GT(admitted + rejected, 0u);
    const double share = static_cast<double>(admitted) /
                         static_cast<double>(admitted + rejected);
    EXPECT_GE(share, 0.2);
  }
  // The loop was actually exercised in both directions.
  EXPECT_GT(ctl.admission_adapt_rounds, 0u);
  EXPECT_GT(ctl.admission_rate_raises, 0u);
  EXPECT_GT(ctl.admission_rate_cuts, 0u);
}

TEST(AdmissionPins, DisabledAdmissionIsBitIdenticalToBaseline) {
  const ExperimentResult plain =
      run_experiment(burst_scenario(false), burst_config());

  // A populated-but-disabled policy is inert.
  Scenario disabled = burst_scenario(true);
  disabled.admission.enabled = false;
  expect_same_result(plain, run_experiment(disabled, burst_config()));

  // Zero admission activity.
  EXPECT_EQ(plain.admission_admitted, 0u);
  EXPECT_EQ(plain.admission_rejected, 0u);
  EXPECT_EQ(plain.admission_adapt_rounds, 0u);
}

TEST(AdmissionAccounting, ConservationHoldsWhenArmed) {
  const ExperimentResult r =
      run_experiment(burst_scenario(true), burst_config());
  // Every arrival meets the gate exactly once: admitted or rejected; gate
  // rejections never became station work.
  expect_conserved(r, /*admission_armed=*/true);
  std::uint64_t admitted = 0, rejected = 0;
  for (std::size_t k = 0; k < r.admission_admitted_by_class.size(); ++k) {
    admitted += r.admission_admitted_by_class[k];
    rejected += r.admission_rejected_by_class[k];
  }
  EXPECT_EQ(admitted, r.admission_admitted);
  EXPECT_EQ(rejected, r.admission_rejected);
}

TEST(AdmissionAccounting, DeterministicForSeed) {
  const Scenario scenario = burst_scenario(true);
  const ExperimentResult a = run_experiment(scenario, burst_config());
  const ExperimentResult b = run_experiment(scenario, burst_config());
  expect_same_result(a, b);
}

}  // namespace
}  // namespace slate

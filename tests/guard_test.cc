// Control-plane hardening (docs/control_plane.md): telemetry admission,
// the solver fallback ladder, guarded rule rollout, and the end-to-end
// controller-chaos acceptance gauntlet.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/service_station.h"
#include "core/cluster_controller.h"
#include "core/global_controller.h"
#include "core/routing_rules.h"
#include "guard/report_validator.h"
#include "guard/rule_rollout.h"
#include "guard/solver_guard.h"
#include "net/gcp_topology.h"
#include "runtime/scenarios.h"
#include "runtime/simulation.h"
#include "result_checks.h"

namespace slate {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// --- MadTracker -------------------------------------------------------------

TEST(MadTracker, MedianAndMadOverWindow) {
  MadTracker t(1, 1, 8);
  for (const double v : {10.0, 12.0, 11.0, 13.0, 9.0}) t.push(0, 0, v);
  EXPECT_EQ(t.history(0, 0), 5u);
  EXPECT_DOUBLE_EQ(t.median(0, 0), 11.0);
  // |x - 11| = {1, 1, 0, 2, 2} -> MAD 1.
  EXPECT_DOUBLE_EQ(t.mad(0, 0), 1.0);
  t.clear(0, 0);
  EXPECT_EQ(t.history(0, 0), 0u);
  EXPECT_DOUBLE_EQ(t.median(0, 0), 0.0);
}

TEST(MadTracker, SpikeGateArmsOnlyAfterMinHistory) {
  MadTracker t(1, 1, 16);
  // Unarmed: even a wild value is not called a spike.
  t.push(0, 0, 100.0);
  t.push(0, 0, 101.0);
  EXPECT_FALSE(t.is_spike(0, 0, 1e6, 8.0, 0.1, 5));
  for (const double v : {99.0, 100.0, 102.0}) t.push(0, 0, v);
  // Armed at 5 samples: 1e6 is out of band, 103 is within it.
  EXPECT_TRUE(t.is_spike(0, 0, 1e6, 8.0, 0.1, 5));
  EXPECT_FALSE(t.is_spike(0, 0, 103.0, 8.0, 0.1, 5));
}

TEST(MadTracker, WindowSlidesOldSamplesOut) {
  MadTracker t(1, 1, 4);
  for (int i = 0; i < 4; ++i) t.push(0, 0, 100.0);
  for (int i = 0; i < 4; ++i) t.push(0, 0, 500.0);
  // The 100s have been evicted: the median tracks the new level.
  EXPECT_DOUBLE_EQ(t.median(0, 0), 500.0);
  EXPECT_EQ(t.history(0, 0), 4u);
}

// --- ReportValidator --------------------------------------------------------

AdmissionOptions admission_defaults() {
  AdmissionOptions o;
  o.enabled = true;
  return o;
}

// A minimal healthy report for a 1-service, 1-class, 2-cluster world.
ClusterReport healthy_report(double rps, double t0 = 0.0) {
  ClusterReport r;
  r.cluster = ClusterId{0};
  r.period_start = t0;
  r.period_end = t0 + 1.0;
  ServiceClassMetrics m;
  m.service = ServiceId{0};
  m.cls = ClassId{0};
  m.started = m.completed = static_cast<std::uint64_t>(rps);
  m.completion_rps = rps;
  m.mean_latency = 5e-3;
  m.max_latency = 8e-3;
  m.mean_service_time = 2e-3;
  r.request_metrics.push_back(m);
  StationMetrics sm;
  sm.service = ServiceId{0};
  sm.servers = 1;
  sm.utilization = 0.5;
  r.station_metrics.push_back(sm);
  r.ingress_rps = {rps};
  r.e2e = {E2eMetrics{static_cast<std::uint64_t>(rps), 10e-3, 20e-3}};
  return r;
}

TEST(ReportValidator, RejectsNonFiniteNegativeAndImplausibleIngress) {
  ReportValidator v(1, 1, 2, admission_defaults());
  ClusterReport warm = healthy_report(100.0);
  EXPECT_FALSE(v.admit(warm));  // clean report sails through

  for (const double poison : {kNaN, -50.0, kInf, 1e9}) {
    ClusterReport r = healthy_report(100.0);
    r.ingress_rps[0] = poison;
    EXPECT_TRUE(v.admit(r));
    // Replaced with the last admitted value, never the poison.
    EXPECT_DOUBLE_EQ(r.ingress_rps[0], 100.0);
  }
  EXPECT_EQ(v.fields_rejected(), 4u);
  EXPECT_GE(v.interpolations(), 4u);
}

TEST(ReportValidator, ClampsDemandSpikeToAdmittedMedian) {
  AdmissionOptions o = admission_defaults();
  o.min_history = 3;
  ReportValidator v(1, 1, 2, o);
  for (int i = 0; i < 5; ++i) {
    ClusterReport r = healthy_report(100.0 + i);  // slight jitter
    v.admit(r);
  }
  ClusterReport spike = healthy_report(100.0);
  spike.ingress_rps[0] = 5000.0;
  EXPECT_TRUE(v.admit(spike));
  EXPECT_NEAR(spike.ingress_rps[0], 102.0, 2.0);  // admitted median
  EXPECT_GE(v.spikes_clamped(), 1u);
}

TEST(ReportValidator, IncoherentAttackNeverRotsTheReference) {
  // A byzantine reporter feeding wild, mutually-inconsistent values must
  // stay clamped forever: only admitted values build the reference median,
  // and incoherent rejects never pass the level-shift coherence test.
  AdmissionOptions o = admission_defaults();
  o.min_history = 3;
  ReportValidator v(1, 1, 2, o);
  for (int i = 0; i < 6; ++i) {
    ClusterReport r = healthy_report(100.0);
    v.admit(r);
  }
  const double attack[] = {5000.0, 0.1, 9000.0, 3000.0, 0.2,  7000.0,
                           4000.0, 0.3, 8000.0, 6000.0, 0.05, 9500.0};
  for (const double a : attack) {
    ClusterReport r = healthy_report(100.0);
    r.ingress_rps[0] = a;
    v.admit(r);
    EXPECT_NEAR(r.ingress_rps[0], 100.0, 1.0) << "attack value " << a;
  }
}

TEST(ReportValidator, CoherentLevelShiftIsReadmitted) {
  // A genuine demand change (e.g. traffic doubled) produces consecutive
  // out-of-band values that agree with each other; after min_history such
  // rejects the new level becomes the reference.
  AdmissionOptions o = admission_defaults();
  o.min_history = 3;
  ReportValidator v(1, 1, 2, o);
  for (int i = 0; i < 6; ++i) {
    ClusterReport r = healthy_report(100.0);
    v.admit(r);
  }
  double last_seen = 0.0;
  for (int i = 0; i < 6; ++i) {
    ClusterReport r = healthy_report(100.0);
    r.ingress_rps[0] = 500.0;
    v.admit(r);
    last_seen = r.ingress_rps[0];
  }
  EXPECT_DOUBLE_EQ(last_seen, 500.0);  // the shift went through
}

TEST(ReportValidator, TrustDecaysOnDirtyRecoversOnClean) {
  AdmissionOptions o = admission_defaults();
  o.trust_decay = 0.3;
  o.trust_recovery = 0.1;
  o.min_trust = 0.05;
  ReportValidator v(1, 1, 2, o);
  EXPECT_DOUBLE_EQ(v.trust(ClusterId{0}), 1.0);
  for (int i = 0; i < 10; ++i) {
    ClusterReport r = healthy_report(100.0);
    r.ingress_rps[0] = kNaN;
    v.admit(r);
  }
  EXPECT_DOUBLE_EQ(v.trust(ClusterId{0}), 0.05);  // pinned at the floor
  for (int i = 0; i < 3; ++i) {
    ClusterReport r = healthy_report(100.0);
    v.admit(r);
  }
  EXPECT_NEAR(v.trust(ClusterId{0}), 0.35, 1e-9);  // recovering
}

TEST(ReportValidator, StructuralDamageIsDropped) {
  ReportValidator v(1, 1, 2, admission_defaults());
  ClusterReport r = healthy_report(100.0);
  // Permuted / out-of-range ids: service 7 and class 9 do not exist.
  ServiceClassMetrics bogus = r.request_metrics[0];
  bogus.service = ServiceId{7};
  r.request_metrics.push_back(bogus);
  ServiceClassMetrics bogus2 = r.request_metrics[0];
  bogus2.cls = ClassId{9};
  r.request_metrics.push_back(bogus2);
  r.ingress_rps.assign(5, 100.0);  // wrong-sized per-class vector
  EXPECT_TRUE(v.admit(r));
  EXPECT_EQ(r.request_metrics.size(), 1u);
  EXPECT_EQ(r.ingress_rps.size(), 1u);

  // A report from a cluster that does not exist is gutted whole.
  ClusterReport alien = healthy_report(100.0);
  alien.cluster = ClusterId{9};
  EXPECT_TRUE(v.admit(alien));
  EXPECT_TRUE(alien.request_metrics.empty());
  EXPECT_TRUE(alien.ingress_rps.empty());
}

TEST(ReportValidator, PoisonedE2eCellIsNeutralized) {
  ReportValidator v(1, 1, 2, admission_defaults());
  ClusterReport r = healthy_report(100.0);
  r.e2e[0].mean_latency = kNaN;
  EXPECT_TRUE(v.admit(r));
  // count -> 0 removes the cell from every weighted mean downstream.
  EXPECT_EQ(r.e2e[0].count, 0u);
}

// --- SolverGuard ------------------------------------------------------------

struct SolverFixture {
  SolverFixture()
      : scenario(make_two_cluster_chain_scenario({})),
        model(LatencyModel::from_application(*scenario.app, 2)),
        demand(scenario.app->class_count(), 2, 0.0),
        primary(*scenario.app, *scenario.deployment, *scenario.topology, {}) {
    demand(0, 0) = 700.0;
    demand(0, 1) = 100.0;
  }
  Scenario scenario;
  LatencyModel model;
  FlatMatrix<double> demand;
  RouteOptimizer primary;
};

TEST(SolverGuard, HealthySolveSettlesOnPrimary) {
  SolverFixture f;
  SolverGuard guard(*f.scenario.app, *f.scenario.deployment,
                    *f.scenario.topology, SolverGuardOptions{});
  const auto outcome =
      guard.solve(f.primary, f.model, f.demand, nullptr, nullptr,
                  /*solver_down=*/false, /*have_last_good=*/false);
  EXPECT_EQ(outcome.rung, SolverRung::kPrimary);
  ASSERT_TRUE(outcome.result.ok());
  outcome.result.rules->validate();
  EXPECT_EQ(guard.fallbacks(), 0u);
}

TEST(SolverGuard, OutageHoldsFreshPlanThenActuatesCapacitySplit) {
  SolverFixture f;
  SolverGuardOptions o;
  o.enabled = true;
  o.hold_fresh_periods = 2;
  SolverGuard guard(*f.scenario.app, *f.scenario.deployment,
                    *f.scenario.topology, o);
  // Periods 1-2 of the outage: a fresh plan exists, so the ladder holds it
  // rather than actuating a demand-blind split.
  for (int i = 0; i < 2; ++i) {
    const auto held =
        guard.solve(f.primary, f.model, f.demand, nullptr, nullptr,
                    /*solver_down=*/true, /*have_last_good=*/true);
    EXPECT_EQ(held.rung, SolverRung::kHoldLastGood);
    EXPECT_EQ(held.result.rules, nullptr);
  }
  // Period 3: the outage drags; the split actuates.
  const auto split =
      guard.solve(f.primary, f.model, f.demand, nullptr, nullptr, true, true);
  EXPECT_EQ(split.rung, SolverRung::kCapacitySplit);
  ASSERT_TRUE(split.result.ok());
  split.result.rules->validate();
  EXPECT_EQ(guard.rung_count(SolverRung::kHoldLastGood), 2u);
}

TEST(SolverGuard, OutageWithNoPlanSplitsImmediately) {
  SolverFixture f;
  SolverGuardOptions o;
  o.enabled = true;
  o.hold_fresh_periods = 10;
  SolverGuard guard(*f.scenario.app, *f.scenario.deployment,
                    *f.scenario.topology, o);
  // Nothing to hold: the split is the only serviceable rung.
  const auto outcome =
      guard.solve(f.primary, f.model, f.demand, nullptr, nullptr,
                  /*solver_down=*/true, /*have_last_good=*/false);
  EXPECT_EQ(outcome.rung, SolverRung::kCapacitySplit);
  ASSERT_NE(outcome.result.rules, nullptr);
}

TEST(SolverGuard, DisarmedLadderHoldsEvenWithNoPlan) {
  SolverFixture f;
  SolverGuardOptions o;  // disarmed: rungs 0 and 3 only
  o.hold_fresh_periods = 0;
  SolverGuard down(*f.scenario.app, *f.scenario.deployment,
                   *f.scenario.topology, o);
  o.wall_budget = 1e-12;  // no solve fits: the primary fails
  SolverGuard failing(*f.scenario.app, *f.scenario.deployment,
                      *f.scenario.topology, o);
  // Downed or failing, the primary settles on hold — never fast or split —
  // with no last-good plan and a hold-fresh streak of 0.
  const std::pair<SolverGuard*, bool> cases[] = {{&down, true},
                                                 {&failing, false}};
  for (const auto& [guard, solver_down] : cases) {
    const auto outcome = guard->solve(f.primary, f.model, f.demand, nullptr,
                                      nullptr, solver_down, false);
    EXPECT_EQ(outcome.rung, SolverRung::kHoldLastGood);
    EXPECT_EQ(outcome.result.rules, nullptr);
    EXPECT_EQ(guard->fallbacks(), 1u);
  }
}

TEST(SolverGuard, PrimaryRecoveryResetsTheDegradedStreak) {
  SolverFixture f;
  SolverGuardOptions o;
  o.enabled = true;
  o.hold_fresh_periods = 2;
  SolverGuard guard(*f.scenario.app, *f.scenario.deployment,
                    *f.scenario.topology, o);
  guard.solve(f.primary, f.model, f.demand, nullptr, nullptr, true, true);
  guard.solve(f.primary, f.model, f.demand, nullptr, nullptr, true, true);
  // Recovery: one healthy solve...
  const auto healthy =
      guard.solve(f.primary, f.model, f.demand, nullptr, nullptr, false, true);
  EXPECT_EQ(healthy.rung, SolverRung::kPrimary);
  // ...re-arms the hold-fresh preference for the next outage.
  const auto held =
      guard.solve(f.primary, f.model, f.demand, nullptr, nullptr, true, true);
  EXPECT_EQ(held.rung, SolverRung::kHoldLastGood);
}

TEST(SolverGuard, CapacitySplitFavorsLocalAndCoversCandidates) {
  SolverFixture f;
  SolverGuardOptions o;
  o.enabled = true;
  o.split_local_bias = 2.0;
  o.hold_fresh_periods = 0;
  SolverGuard guard(*f.scenario.app, *f.scenario.deployment,
                    *f.scenario.topology, o);
  const auto outcome =
      guard.solve(f.primary, f.model, f.demand, nullptr, nullptr, true, false);
  ASSERT_EQ(outcome.rung, SolverRung::kCapacitySplit);
  const RoutingRuleSet& rules = *outcome.result.rules;
  EXPECT_GT(rules.size(), 0u);
  rules.for_each([&](ClassId, std::size_t, ClusterId from,
                     const RouteWeights& w) {
    double sum = 0.0;
    for (const double wi : w.weights) {
      EXPECT_TRUE(std::isfinite(wi));
      sum += wi;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
    // Equal capacity across clusters (east has 2x servers but the chain
    // scenario's west deploys 1): the local bias must tilt the weight
    // toward the origin relative to raw capacity share.
    const double local = w.weight_for(from);
    EXPECT_GT(local, 0.0);
  });
}

// --- RuleRollout ------------------------------------------------------------

std::shared_ptr<const RoutingRuleSet> two_cluster_rules(double local_weight) {
  auto rules = std::make_shared<RoutingRuleSet>();
  RouteWeights w;
  w.clusters = {ClusterId{0}, ClusterId{1}};
  w.weights = {local_weight, 1.0 - local_weight};
  rules->set_rule(ClassId{0}, 1, ClusterId{0}, std::move(w));
  return rules;
}

RolloutOptions rollout_defaults() {
  RolloutOptions o;
  o.enabled = true;
  o.min_samples = 10;
  return o;
}

TEST(RuleRollout, FirstPushAppliesVerbatimAndArmsCanary) {
  RuleRollout ro(rollout_defaults());
  auto target = two_cluster_rules(0.6);
  const RolloutDecision d = ro.apply(target);
  EXPECT_EQ(d.rules, target);
  EXPECT_EQ(ro.pushes(), 1u);
  // Mid-canary the caller must hold actuation.
  const RolloutDecision next = ro.observe(1000.0, 0.01, 100);
  EXPECT_TRUE(next.hold);
}

TEST(RuleRollout, CanaryRollsBackWithinTwoControlPeriods) {
  RolloutOptions o = rollout_defaults();
  o.canary_periods = 2;
  o.goodput_drop = 0.25;
  RuleRollout ro(o);

  // Establish a last-known-good set that survived its canary.
  auto good = two_cluster_rules(0.9);
  ro.apply(good);
  ro.observe(1000.0, 0.02, 100);
  ro.observe(1000.0, 0.02, 100);  // canary passes -> good is last-known-good
  EXPECT_EQ(ro.last_known_good(), good);

  // Healthy baseline recorded, then a bad push.
  ro.observe(1000.0, 0.02, 100);
  auto bad = two_cluster_rules(0.2);
  ro.apply(bad);
  // Period 1 of the canary: goodput cratered 40% -> rollback immediately,
  // well within the 2-period window.
  const RolloutDecision d = ro.observe(600.0, 0.02, 100);
  EXPECT_TRUE(d.rolled_back);
  EXPECT_EQ(d.rules, good);
  EXPECT_EQ(ro.rollbacks(), 1u);
  EXPECT_TRUE(ro.frozen());  // updates freeze while telemetry recovers
}

TEST(RuleRollout, P99RiseAloneDoesNotRollBack) {
  RolloutOptions o = rollout_defaults();
  o.p99_rise = 0.75;
  RuleRollout ro(o);
  ro.observe(1000.0, 0.02, 100);  // baseline
  ro.apply(two_cluster_rules(0.6));
  // Tail blows out 10x but goodput holds: noise, not a regression.
  const RolloutDecision d = ro.observe(990.0, 0.2, 100);
  EXPECT_FALSE(d.rolled_back);
  EXPECT_EQ(ro.rollbacks(), 0u);
}

TEST(RuleRollout, P99RiseWithGoodputSagRollsBack) {
  RolloutOptions o = rollout_defaults();
  o.goodput_drop = 0.25;
  o.p99_rise = 0.75;
  RuleRollout ro(o);
  ro.observe(1000.0, 0.02, 100);  // baseline
  ro.apply(two_cluster_rules(0.6));
  // Goodput sags 15% (short of the 25% hard trigger) while p99 doubles:
  // the corroborated tail regression rolls back.
  const RolloutDecision d = ro.observe(850.0, 0.05, 100);
  EXPECT_TRUE(d.rolled_back);
}

TEST(RuleRollout, DampingClipsOversizedSteps) {
  RolloutOptions o = rollout_defaults();
  o.max_weight_delta = 0.25;
  o.canary_periods = 0;  // isolate damping from canary holds
  RuleRollout ro(o);
  ro.apply(two_cluster_rules(1.0));
  const RolloutDecision d = ro.apply(two_cluster_rules(0.0));
  ASSERT_NE(d.rules, nullptr);
  const RouteWeights* w = d.rules->find(ClassId{0}, 1, ClusterId{0});
  ASSERT_NE(w, nullptr);
  // The 1.0 -> 0.0 jump advances by exactly the cap.
  EXPECT_NEAR(w->weight_for(ClusterId{0}), 0.75, 1e-9);
  EXPECT_EQ(ro.damped_pushes(), 1u);
}

TEST(RuleRollout, SustainedOscillationFreezesUpdates) {
  RolloutOptions o = rollout_defaults();
  o.canary_periods = 0;
  o.max_weight_delta = 1.0;  // let the flap through undamped
  o.flap_window = 2;
  o.flap_threshold = 0.3;
  o.freeze_periods = 3;
  RuleRollout ro(o);
  ro.apply(two_cluster_rules(1.0));
  ro.apply(two_cluster_rules(0.0));
  // Ring full, mean successive L1 = 2.0 > 0.3 -> freeze.
  const RolloutDecision frozen = ro.apply(two_cluster_rules(1.0));
  EXPECT_TRUE(frozen.hold);
  EXPECT_EQ(frozen.rules, nullptr);
  EXPECT_EQ(ro.flap_freezes(), 1u);
  EXPECT_TRUE(ro.frozen());
  EXPECT_LT(ro.damping_scale(), 1.0);  // damping tightened
  // The freeze ticks down through observe() and then updates resume.
  for (int i = 0; i < 3; ++i) {
    const RolloutDecision d = ro.observe(1000.0, 0.02, 100);
    EXPECT_TRUE(d.hold);
  }
  EXPECT_FALSE(ro.frozen());
}

// --- Epoch-stamped pushes ---------------------------------------------------

TEST(ClusterControllerEpoch, StalePushIsDiscarded) {
  Simulator sim;
  const Topology topo = make_two_cluster_topology(10e-3);
  MetricsRegistry registry(2, 1);
  auto policy = std::make_shared<WeightedRulesPolicy>(topo);
  ServiceStation station(sim, Rng(1), ServiceId{0}, ClusterId{0}, 1);
  ClusterController cc(ClusterId{0}, 1, registry, {&station, nullptr}, policy);

  auto newer = two_cluster_rules(0.7);
  auto older = two_cluster_rules(0.3);
  cc.push_rules(newer, 5);
  EXPECT_EQ(cc.rule_epoch(), 5u);
  // A push that raced a newer one on the wire is discarded.
  cc.push_rules(older, 3);
  EXPECT_EQ(policy->rules().get(), newer.get());
  EXPECT_EQ(cc.stale_rule_pushes(), 1u);
  EXPECT_EQ(cc.rule_epoch(), 5u);
  // Legacy unstamped pushes (epoch 0) always apply.
  cc.push_rules(older, 0);
  EXPECT_EQ(policy->rules().get(), older.get());
}

// --- End-to-end acceptance gauntlet ----------------------------------------

RunConfig chaos_config() {
  RunConfig config;
  config.policy = PolicyKind::kSlate;
  config.duration = 90.0;
  config.warmup = 10.0;
  config.seed = 17;
  config.control_period = 1.0;
  config.timeseries_bucket = 1.0;
  config.failure.enabled = true;
  config.failure.call_timeout = 0.5;
  config.failure.max_retries = 2;
  return config;
}

Scenario chaos_scenario(bool armed) {
  TwoClusterChainParams params;
  params.west_rps = 800.0;
  params.east_rps = 100.0;
  Scenario s = make_two_cluster_chain_scenario(params);
  // West's reports turn byzantine for [25, 75); the solver is down for
  // [35, 45) mid-corruption (the ext_controller_chaos gauntlet).
  s.faults.telemetry_corruption(ClusterId{0}, 25.0, 50.0, 8.0);
  s.faults.solver_outage(35.0, 10.0);
  s.guard.admission.enabled = armed;
  s.guard.solver.enabled = armed;
  s.guard.rollout.enabled = armed;
  return s;
}

TEST(GuardGauntlet, GuardedRidesOutChaosThatCollapsesUnguarded) {
  TwoClusterChainParams params;
  params.west_rps = 800.0;
  params.east_rps = 100.0;
  const ExperimentResult clean =
      run_experiment(make_two_cluster_chain_scenario(params), chaos_config());
  const ExperimentResult unguarded =
      run_experiment(chaos_scenario(false), chaos_config());
  const ExperimentResult guarded =
      run_experiment(chaos_scenario(true), chaos_config());

  const double clean_rps = clean.goodput_in_window(27.0, 75.0);
  const double unguarded_rps = unguarded.goodput_in_window(27.0, 75.0);
  const double guarded_rps = guarded.goodput_in_window(27.0, 75.0);
  ASSERT_GT(clean_rps, 500.0);  // the ceiling is a real workload

  // Unguarded: poisoned telemetry whipsaws the demand estimate; the spill
  // plan collapses and West melts down — at least 30% of goodput gone.
  EXPECT_LT(unguarded_rps, 0.7 * clean_rps);
  // Guarded: within 10% of the fault-free ceiling through the same chaos.
  EXPECT_GT(guarded_rps, 0.9 * clean_rps);

  // The unguarded rule stream flaps: per-control-period successive-push L1
  // distance at least 5x the guarded stream's.
  EXPECT_GT(unguarded.mean_rule_delta(), 5.0 * guarded.mean_rule_delta());

  // The guard earned its keep, visibly.
  EXPECT_GT(guarded.guard_spikes_clamped, 50u);
  EXPECT_GE(guarded.solver_fallbacks, 5u);   // the 10s outage rode the ladder
  EXPECT_EQ(unguarded.guard_spikes_clamped, 0u);
  // The disarmed ladder never leaves the exact rung except to hold: its
  // fallbacks are exactly its holds, and it records the outage periods as
  // holds (frozen rules).
  EXPECT_EQ(unguarded.solver_arm_fast + unguarded.solver_arm_split, 0u);
  EXPECT_EQ(unguarded.solver_fallbacks, unguarded.solver_holds);
  EXPECT_GE(unguarded.solver_holds, 5u);
  expect_conserved(unguarded, /*admission_armed=*/false);
  expect_conserved(guarded, /*admission_armed=*/false);
}

}  // namespace
}  // namespace slate

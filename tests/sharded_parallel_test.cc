// ShardedSimulator determinism and Simulation sharded-vs-serial identity.
//
// The contract under test (docs/performance.md): the island partition and
// the event schedule are topology-determined, so a sharded run is
// byte-identical for every worker count, with every subsystem armed —
// faults, overload control, the control-plane guard stack, forecasting.

#include "sim/sharded_simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "runtime/experiment.h"
#include "runtime/scenarios.h"
#include "runtime/simulation.h"

namespace slate {
namespace {

// --- ShardedSimulator ------------------------------------------------------

TEST(ShardedSimulator, RejectsNonPositiveLookaheadForMultipleLps) {
  EXPECT_THROW(ShardedSimulator(2, 0.0, 2), std::invalid_argument);
  EXPECT_THROW(ShardedSimulator(2, -1.0, 2), std::invalid_argument);
  EXPECT_THROW(ShardedSimulator(0, 1.0, 1), std::invalid_argument);
  // A single LP needs no lookahead: there is nobody to synchronize with.
  EXPECT_NO_THROW(ShardedSimulator(1, 0.0, 1));
}

TEST(ShardedSimulator, WorkerCountClampsToLpCount) {
  ShardedSimulator sharded(2, 0.5, 16);
  EXPECT_EQ(sharded.workers(), 2u);
  EXPECT_EQ(sharded.lp_count(), 2u);
}

TEST(ShardedSimulator, CrossShardSendsDeliverAtStampedTime) {
  ShardedSimulator sharded(2, 0.01, 1);
  std::vector<double> arrivals;
  sharded.lp(0).schedule_at(0.0, [&sharded, &arrivals] {
    sharded.send(0, 1, 0.05, [&arrivals] { arrivals.push_back(0.05); });
    sharded.send(0, 1, 0.015, [&arrivals] { arrivals.push_back(0.015); });
    sharded.send(0, 1, 0.025, [&arrivals] { arrivals.push_back(0.025); });
  });
  double observed = -1.0;
  bool ordered = true;
  sharded.lp(1).schedule_at(0.2, [&] {
    // By 0.2 every message has been delivered; delivery order must have
    // been by stamped time regardless of send order.
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
      if (arrivals[i] < arrivals[i - 1]) ordered = false;
    }
    observed = static_cast<double>(arrivals.size());
  });
  sharded.run_until(0.3);
  EXPECT_EQ(observed, 3.0);
  EXPECT_TRUE(ordered);
}

TEST(ShardedSimulator, SameTimeSendsOrderBySourceThenSequence) {
  // lp0 and lp2 both fire messages into lp1 stamped for the same instant:
  // the drain order is (time, source LP, per-source sequence), so lp0's
  // two messages run before lp2's, each pair in send order.
  ShardedSimulator sharded(3, 0.01, 1);
  std::vector<int> log;
  sharded.lp(0).schedule_at(0.0, [&sharded, &log] {
    sharded.send(0, 1, 0.5, [&log] { log.push_back(1); });
    sharded.send(0, 1, 0.5, [&log] { log.push_back(2); });
  });
  sharded.lp(2).schedule_at(0.0, [&sharded, &log] {
    sharded.send(2, 1, 0.5, [&log] { log.push_back(3); });
    sharded.send(2, 1, 0.5, [&log] { log.push_back(4); });
  });
  sharded.run_until(1.0);
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
}

TEST(ShardedSimulator, GlobalEventsClipWindowsAndRunAtBarrier) {
  // Huge lookahead: the only thing limiting the first window is the global
  // LP's event at t=5. LPs run through t=5 inclusive BEFORE the global
  // event executes at the barrier.
  ShardedSimulator sharded(2, 1000.0, 1);
  int flag = 0;
  int seen_at_4_9 = -1;
  int seen_at_5 = -1;
  int seen_at_5_1 = -1;
  sharded.global().schedule_at(5.0, [&flag] { flag = 1; });
  sharded.lp(0).schedule_at(4.9, [&] { seen_at_4_9 = flag; });
  sharded.lp(0).schedule_at(5.0, [&] { seen_at_5 = flag; });
  sharded.lp(1).schedule_at(5.1, [&] { seen_at_5_1 = flag; });
  sharded.run_until(10.0);
  EXPECT_EQ(seen_at_4_9, 0);
  EXPECT_EQ(seen_at_5, 0);   // window end is inclusive; global runs after
  EXPECT_EQ(seen_at_5_1, 1); // next window observes the barrier's effect
  EXPECT_DOUBLE_EQ(sharded.now(), 10.0);
}

TEST(ShardedSimulator, BarrierHookRunsOncePerWindow) {
  ShardedSimulator sharded(2, 1.0, 1);
  int hooks = 0;
  sharded.set_barrier_hook([&hooks] { ++hooks; });
  sharded.run_until(5.0);
  // No global events: windows are exactly the lookahead, 5 of them.
  EXPECT_EQ(hooks, 5);
}

// Cross-wired ping-pong traffic between LPs; returns each LP's private
// event log. Any scheduling nondeterminism across worker counts shows up as
// a log difference.
std::vector<std::vector<int>> pingpong_logs(std::size_t workers) {
  constexpr std::size_t kLps = 4;
  ShardedSimulator sharded(kLps, 0.02, workers);
  // Indexed by LP; each LP appends only to its own log (no data races by
  // construction, same rule the simulation's per-island contexts follow).
  auto logs = std::vector<std::vector<int>>(kLps);
  struct Ctx {
    ShardedSimulator* sharded;
    std::vector<std::vector<int>>* logs;
  };
  static Ctx ctx;  // test-local singleton keeps the closures tiny
  ctx = {&sharded, &logs};

  // Each LP seeds a burst; every received message logs and re-sends two
  // messages to the next LPs with deterministic offsets until a hop budget
  // runs out.
  struct Hop {
    static void fire(std::uint32_t lp, int id, int hops) {
      (*ctx.logs)[lp].push_back(id);
      if (hops <= 0) return;
      const double now = ctx.sharded->lp(lp).now();
      const std::uint32_t a = (lp + 1) % 4;
      const std::uint32_t b = (lp + 2) % 4;
      ctx.sharded->send(lp, a, now + 0.021 + 0.001 * (id % 5),
                        [a, id, hops] { fire(a, id * 2 + 1, hops - 1); });
      ctx.sharded->send(lp, b, now + 0.033,
                        [b, id, hops] { fire(b, id * 2 + 2, hops - 1); });
    }
  };
  for (std::uint32_t lp = 0; lp < kLps; ++lp) {
    for (int i = 0; i < 8; ++i) {
      sharded.lp(lp).schedule_at(0.001 * i, [lp, i] {
        Hop::fire(lp, static_cast<int>(lp) * 100 + i, 6);
      });
    }
  }
  sharded.run_until(2.0);
  return logs;
}

TEST(ShardedSimulator, DeterministicAcrossWorkerCounts) {
  const auto serial = pingpong_logs(1);
  const auto two = pingpong_logs(2);
  const auto four = pingpong_logs(4);
  std::size_t total = 0;
  for (const auto& log : serial) total += log.size();
  EXPECT_GT(total, 1000u);  // the cascade actually fanned out
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, four);
}

// --- Simulation: sharded identity gauntlet ---------------------------------

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.egress_bytes, b.egress_bytes);
  EXPECT_EQ(a.egress_cost_dollars, b.egress_cost_dollars);
  EXPECT_EQ(a.call_retries, b.call_retries);
  EXPECT_EQ(a.call_timeouts, b.call_timeouts);
  EXPECT_EQ(a.call_rejections, b.call_rejections);
  EXPECT_EQ(a.total_shed(), b.total_shed());
  EXPECT_EQ(a.deadline_cancellations, b.deadline_cancellations);
  EXPECT_EQ(a.breaker_ejections, b.breaker_ejections);
  EXPECT_EQ(a.rule_pushes, b.rule_pushes);
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.admission_admitted, b.admission_admitted);
  EXPECT_EQ(a.admission_rejected, b.admission_rejected);
  EXPECT_EQ(a.admission_adapt_rounds, b.admission_adapt_rounds);
  EXPECT_EQ(a.admission_rate_raises, b.admission_rate_raises);
  EXPECT_EQ(a.admission_rate_cuts, b.admission_rate_cuts);
  EXPECT_EQ(a.admission_floor_raises, b.admission_floor_raises);
  EXPECT_EQ(a.contingency_evals, b.contingency_evals);
  EXPECT_EQ(a.contingency_resolves, b.contingency_resolves);
  EXPECT_EQ(a.contingency_margin_worst, b.contingency_margin_worst);
  EXPECT_EQ(a.drains_started, b.drains_started);
  EXPECT_EQ(a.drains_completed, b.drains_completed);
  EXPECT_EQ(a.drains_cancelled, b.drains_cancelled);
  EXPECT_EQ(a.drain_steps, b.drain_steps);
  EXPECT_EQ(a.drain_pause_periods, b.drain_pause_periods);
  EXPECT_EQ(a.server_seconds, b.server_seconds);
  EXPECT_EQ(a.server_cost_dollars, b.server_cost_dollars);
  EXPECT_EQ(a.autoscaler_scale_ups, b.autoscaler_scale_ups);
  EXPECT_EQ(a.autoscaler_scale_downs, b.autoscaler_scale_downs);
  EXPECT_EQ(a.bilevel_capacity_overrides, b.bilevel_capacity_overrides);
  EXPECT_EQ(a.bilevel_plans_pushed, b.bilevel_plans_pushed);
  // Byte-identical latency streams, not just equal summaries.
  ASSERT_EQ(a.e2e.samples().size(), b.e2e.samples().size());
  EXPECT_EQ(a.e2e.samples(), b.e2e.samples());
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t k = 0; k < a.flows.size(); ++k) {
    ASSERT_EQ(a.flows[k].size(), b.flows[k].size());
    for (std::size_t n = 0; n < a.flows[k].size(); ++n) {
      EXPECT_EQ(a.flows[k][n].data(), b.flows[k][n].data());
    }
  }
}

// The gauntlet: every scenario runs the same config at shards 1/2/4/8 and
// must produce byte-identical results; the serial (shards=0) engine must
// generate the identical workload (the per-stream arrival sequences are
// engine-invariant even though routing draws are not shared).
void run_gauntlet(const Scenario& scenario, const RunConfig& base) {
  const ExperimentResult legacy = run_experiment(scenario, base);
  RunConfig config = base;
  config.shards = 1;
  const ExperimentResult one = run_experiment(scenario, config);
  EXPECT_EQ(legacy.generated, one.generated);
  EXPECT_GT(one.generated, 0u);
  for (std::size_t shards : {2u, 4u, 8u}) {
    SCOPED_TRACE(shards);
    config.shards = shards;
    const ExperimentResult many = run_experiment(scenario, config);
    expect_identical(one, many);
  }
}

RunConfig gauntlet_config(PolicyKind policy) {
  RunConfig config;
  config.policy = policy;
  config.duration = 8.0;
  config.warmup = 2.0;
  config.seed = 7;
  config.failure.enabled = true;
  config.failure.call_timeout = 0.5;
  return config;
}

TEST(ShardedSimulation, GcpTopologySplitsIntoFourIslands) {
  const Scenario scenario = make_gcp_chain_scenario();
  RunConfig config = gauntlet_config(PolicyKind::kSlate);
  config.shards = 8;
  Simulation sim(scenario, config);
  EXPECT_EQ(sim.island_count(), 4u);
  // GCP latency floor: >= 10ms one-way between any two clusters, scaled
  // down by the topology's jitter band.
  EXPECT_GT(sim.lookahead_seconds(), 0.005);
  EXPECT_LT(sim.lookahead_seconds(), 1.0);
}

TEST(ShardedSimulation, IdentityPlainScenario) {
  for (PolicyKind policy :
       {PolicyKind::kLocalOnly, PolicyKind::kRoundRobin,
        PolicyKind::kLocalityFailover, PolicyKind::kStaticWeights,
        PolicyKind::kWaterfall, PolicyKind::kSlate}) {
    SCOPED_TRACE(to_string(policy));
    run_gauntlet(make_gcp_chain_scenario(), gauntlet_config(policy));
  }
}

TEST(ShardedSimulation, IdentityFaultArmed) {
  Scenario scenario = make_gcp_chain_scenario();
  scenario.faults.cluster_outage(ClusterId{0}, 3.0, 2.0);
  scenario.faults.link_partition(ClusterId{1}, ClusterId{2}, 4.0, 1.5);
  scenario.faults.service_slowdown(ServiceId{1}, ClusterId{3}, 2.0, 3.0, 4.0);
  for (PolicyKind policy : {PolicyKind::kLocalityFailover, PolicyKind::kSlate}) {
    SCOPED_TRACE(to_string(policy));
    run_gauntlet(scenario, gauntlet_config(policy));
  }
}

TEST(ShardedSimulation, IdentityOverloadArmed) {
  GcpChainParams params;
  params.rps[0] = 1200.0;  // overloaded: the gates fire constantly
  params.rps[2] = 1200.0;
  const Scenario scenario = make_gcp_chain_scenario(params);
  RunConfig config = gauntlet_config(PolicyKind::kSlate);
  config.overload.queue.max_queue = 32;
  config.overload.queue.codel_target = 0.02;
  config.overload.deadline.enabled = true;
  config.overload.deadline.default_deadline = 0.4;
  config.overload.breaker.enabled = true;
  config.overload.breaker.min_volume = 10;
  run_gauntlet(scenario, config);
}

TEST(ShardedSimulation, IdentityAdmissionArmed) {
  GcpChainParams params;
  params.rps[0] = 1200.0;  // overloaded: the gate fires constantly
  params.rps[2] = 1200.0;
  const Scenario scenario = make_gcp_chain_scenario(params);
  RunConfig config = gauntlet_config(PolicyKind::kSlate);
  config.admission.enabled = true;
  config.admission.default_rate = 900.0;
  config.admission.default_slo = 0.4;
  config.admission.target_attainment = 0.9;
  run_gauntlet(scenario, config);
  // The gauntlet is vacuous unless the gate actually rejected work.
  RunConfig probe = config;
  probe.shards = 2;
  const ExperimentResult r = run_experiment(scenario, probe);
  EXPECT_GT(r.admission_rejected, 0u);
  EXPECT_EQ(r.generated, r.admission_admitted + r.admission_rejected);
  EXPECT_GT(r.admission_adapt_rounds, 0u);
}

TEST(ShardedSimulation, IdentityGuardArmed) {
  Scenario scenario = make_gcp_chain_scenario();
  scenario.faults.telemetry_corruption(ClusterId{0}, 3.0, 4.0, 8.0);
  scenario.faults.solver_outage(4.0, 2.0);
  scenario.guard.admission.enabled = true;
  scenario.guard.solver.enabled = true;
  scenario.guard.rollout.enabled = true;
  run_gauntlet(scenario, gauntlet_config(PolicyKind::kSlate));
}

TEST(ShardedSimulation, IdentityForecastArmed) {
  Scenario scenario = make_gcp_chain_scenario();
  RunConfig config = gauntlet_config(PolicyKind::kSlate);
  config.slate.forecast.kind = ForecastKind::kEwma;
  run_gauntlet(scenario, config);
}

TEST(ShardedSimulation, IdentityDrainArmed) {
  // A coordinated drain changes routing (front-door diverts), capacity
  // (solver + autoscaler views), and the control timeline; the keep-fraction
  // steps land at global barriers, so byte-identity must hold across shard
  // counts while a drain is actively walking a cluster to zero.
  const Scenario scenario = make_gcp_chain_scenario();
  RunConfig config = gauntlet_config(PolicyKind::kSlate);
  DrainSpec drain;
  drain.cluster = ClusterId{1};
  drain.start = 3.0;
  drain.over = 4.0;
  config.drains.push_back(drain);
  run_gauntlet(scenario, config);
  // The gauntlet is vacuous unless the drain actually stepped.
  RunConfig probe = config;
  probe.shards = 2;
  const ExperimentResult r = run_experiment(scenario, probe);
  EXPECT_EQ(r.drains_started, 1u);
  EXPECT_GT(r.drain_steps, 0u);
}

TEST(ShardedSimulation, IdentityContingencyArmed) {
  // N-1 headroom checks and padded re-solves run inside the control tick at
  // window barriers; arming them must not perturb shard-count identity.
  const Scenario scenario = make_gcp_chain_scenario();
  RunConfig config = gauntlet_config(PolicyKind::kSlate);
  config.slate.contingency.enabled = true;
  run_gauntlet(scenario, config);
  RunConfig probe = config;
  probe.shards = 2;
  const ExperimentResult r = run_experiment(scenario, probe);
  EXPECT_GT(r.contingency_evals, 0u);
}

TEST(ShardedSimulation, IdentityBilevelArmed) {
  // Bi-level co-design touches both directions of the control loop: the
  // capacity overlay feeds the solve and the plan feeds the autoscalers,
  // all inside the control tick at window barriers. Arming it — with
  // differentiated server prices so the joint objective is live — must not
  // perturb shard-count identity, including the server-dollar accounting.
  Scenario scenario = make_gcp_chain_scenario();
  scenario.topology->set_uniform_server_price(0.10);
  scenario.topology->set_server_price(ClusterId{0}, 0.04);
  RunConfig config = gauntlet_config(PolicyKind::kSlate);
  config.autoscaler_enabled = true;
  config.autoscaler.evaluation_period = 1.0;
  config.autoscaler.cooldown = 2.0;
  config.autoscaler.provision_delay = 2.0;
  config.bilevel.enabled = true;
  run_gauntlet(scenario, config);
  // The gauntlet is vacuous unless the loop actually closed.
  RunConfig probe = config;
  probe.shards = 2;
  const ExperimentResult r = run_experiment(scenario, probe);
  EXPECT_GT(r.bilevel_plans_pushed, 0u);
  EXPECT_GT(r.server_seconds, 0.0);
  EXPECT_GT(r.server_cost_dollars, 0.0);
}

TEST(ShardedSimulation, SingleIslandShardedMatchesLegacyExactly) {
  // One island (a single-cluster scenario collapses the partition): the
  // sharded engine degenerates to one LP with an infinite window, and under
  // SLATE the schedule — including every routing draw — matches the legacy
  // engine bit for bit. Waterfall does not match: its load snapshot only
  // refreshes at global-event barriers (docs/performance.md).
  TwoClusterChainParams params;
  params.rtt = 0.0;  // zero latency: both clusters share one island
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  RunConfig config = gauntlet_config(PolicyKind::kSlate);
  const ExperimentResult legacy = run_experiment(scenario, config);
  config.shards = 4;
  const ExperimentResult sharded = run_experiment(scenario, config);

  Simulation probe(scenario, config);
  EXPECT_EQ(probe.island_count(), 1u);
  EXPECT_EQ(probe.lookahead_seconds(), std::numeric_limits<double>::infinity());
  expect_identical(legacy, sharded);
}

}  // namespace
}  // namespace slate
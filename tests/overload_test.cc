// Overload control: bounded/class-aware station queues, deadline
// propagation, circuit breaking, and the end-to-end metastable-failure
// acceptance gauntlet (docs/overload.md).
#include <gtest/gtest.h>

#include <vector>

#include "cluster/service_station.h"
#include "overload/circuit_breaker.h"
#include "overload/overload_policy.h"
#include "result_checks.h"
#include "runtime/scenarios.h"
#include "runtime/simulation.h"

namespace slate {
namespace {

using JobOutcome = ServiceStation::JobOutcome;

ServiceStation::JobSpec spec(double mean, int priority = 0,
                             double deadline = ServiceStation::kNoDeadline) {
  ServiceStation::JobSpec s;
  s.service_time_mean = mean;
  s.priority = priority;
  s.deadline = deadline;
  return s;
}

// --- Bounded queues & priority shedding ------------------------------------

TEST(BoundedQueue, RejectsWhenFullFiringCompletionSynchronously) {
  Simulator sim;
  ServiceStation st(sim, Rng(1), ServiceId{0}, ClusterId{0}, 1);
  StationOverloadConfig oc;
  oc.max_queue = 2;
  st.configure_overload(oc);

  std::vector<JobOutcome> outcomes;
  auto record = [&](JobOutcome o, double, double) { outcomes.push_back(o); };
  // One into the server, two into the queue, two rejected at the door.
  for (int i = 0; i < 5; ++i) {
    const bool admitted = st.submit(spec(1.0), record);
    EXPECT_EQ(admitted, i < 3);
  }
  // The rejections have already completed; the rest are still in flight.
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0], JobOutcome::kShedQueueFull);
  EXPECT_EQ(outcomes[1], JobOutcome::kShedQueueFull);
  EXPECT_EQ(st.jobs_shed(), 2u);
  EXPECT_EQ(st.queue_length(), 2u);

  sim.run();
  ASSERT_EQ(outcomes.size(), 5u);
  for (std::size_t i = 2; i < 5; ++i) EXPECT_EQ(outcomes[i], JobOutcome::kServed);
  EXPECT_EQ(st.jobs_submitted(), 3u);
  EXPECT_EQ(st.jobs_completed(), 3u);
}

TEST(BoundedQueue, PriorityArrivalEvictsLowestPriorityQueuedJob) {
  Simulator sim;
  ServiceStation st(sim, Rng(2), ServiceId{0}, ClusterId{0}, 1);
  StationOverloadConfig oc;
  oc.max_queue = 2;
  st.configure_overload(oc);

  std::vector<std::pair<int, JobOutcome>> events;  // (tag, outcome)
  auto tagged = [&](int tag) {
    return [&events, tag](JobOutcome o, double, double) {
      events.emplace_back(tag, o);
    };
  };
  st.submit(spec(1.0, 0), tagged(0));  // into the server
  st.submit(spec(1.0, 0), tagged(1));  // queued
  st.submit(spec(1.0, 5), tagged(2));  // queued, high priority
  // Full queue + higher priority than job 1: job 1 is evicted.
  EXPECT_TRUE(st.submit(spec(1.0, 5), tagged(3)));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], (std::pair<int, JobOutcome>{1, JobOutcome::kEvicted}));
  EXPECT_EQ(st.jobs_evicted(), 1u);
  // Equal priority cannot evict: rejected instead.
  EXPECT_FALSE(st.submit(spec(1.0, 5), tagged(4)));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].second, JobOutcome::kShedQueueFull);

  sim.run();
  // Jobs 0, 2, 3 ran; conservation holds.
  EXPECT_EQ(st.jobs_completed(), 3u);
  EXPECT_EQ(st.jobs_submitted(),
            st.jobs_completed() + st.jobs_cancelled() + st.jobs_evicted());
}

TEST(BoundedQueue, PriorityEvictionDisabledRejectsHighPriorityArrival) {
  Simulator sim;
  ServiceStation st(sim, Rng(3), ServiceId{0}, ClusterId{0}, 1);
  StationOverloadConfig oc;
  oc.max_queue = 1;
  oc.priority_shedding = false;
  st.configure_overload(oc);

  st.submit(spec(1.0, 0), [](JobOutcome, double, double) {});
  st.submit(spec(1.0, 0), [](JobOutcome, double, double) {});
  JobOutcome last = JobOutcome::kServed;
  EXPECT_FALSE(st.submit(spec(1.0, 9),
                         [&](JobOutcome o, double, double) { last = o; }));
  EXPECT_EQ(last, JobOutcome::kShedQueueFull);
  EXPECT_EQ(st.jobs_evicted(), 0u);
  sim.run();
}

// --- CoDel-style queue-delay shedding --------------------------------------

TEST(CoDelShedder, ActivatesUnderStandingQueueAndRecovers) {
  Simulator sim;
  Rng rng(11);
  ServiceStation st(sim, rng.fork(0), ServiceId{0}, ClusterId{0}, 1);
  StationOverloadConfig oc;
  oc.codel_target = 0.01;    // 10ms standing delay allowed
  oc.codel_interval = 0.05;  // sustained for 50ms
  st.configure_overload(oc);

  // 2x overload for two seconds: the queue builds a standing delay far
  // above target, so the shedder must engage.
  Rng arrivals = rng.fork(1);
  std::uint64_t shed = 0, served = 0;
  std::function<void()> arrive = [&]() {
    st.submit(spec(0.02), [&](JobOutcome o, double, double) {
      if (o == JobOutcome::kServed) ++served;
      if (o == JobOutcome::kShedQueueDelay) ++shed;
    });
    const double gap = arrivals.exponential(1.0 / 100.0);
    if (sim.now() + gap < 2.0) sim.schedule_after(gap, arrive);
  };
  sim.schedule_at(0.0, arrive);
  sim.run();

  EXPECT_GT(shed, 0u);
  EXPECT_GT(served, 0u);
  EXPECT_EQ(st.jobs_shed(), shed);
  // With arrivals stopped the queue drained and every admitted job ran.
  EXPECT_EQ(st.queue_length(), 0u);
  EXPECT_EQ(st.jobs_submitted(), st.jobs_completed());
}

// --- Deadlines at the station ----------------------------------------------

TEST(Deadlines, ExpiredAtSubmitIsRejected) {
  Simulator sim;
  ServiceStation st(sim, Rng(4), ServiceId{0}, ClusterId{0}, 1);
  sim.schedule_at(1.0, [&]() {
    JobOutcome got = JobOutcome::kServed;
    EXPECT_FALSE(
        st.submit(spec(0.01, 0, 0.5), [&](JobOutcome o, double, double) {
          got = o;
        }));
    EXPECT_EQ(got, JobOutcome::kExpired);
  });
  sim.run();
  EXPECT_EQ(st.jobs_shed(), 1u);
  EXPECT_EQ(st.jobs_submitted(), 0u);
}

TEST(Deadlines, ExpiredInQueueIsCancelledAtDispatchNotServed) {
  Simulator sim;
  ServiceStation st(sim, Rng(5), ServiceId{0}, ClusterId{0}, 1);
  // Blocker holds the only server ~1s (Exp(1) sample); the second job's
  // deadline expires long before the server frees up.
  st.submit(spec(1.0), [](JobOutcome, double, double) {});
  JobOutcome got = JobOutcome::kServed;
  double queue_seconds = -1.0, service_seconds = -1.0;
  st.submit(spec(0.5, 0, 1e-6), [&](JobOutcome o, double q, double s) {
    got = o;
    queue_seconds = q;
    service_seconds = s;
  });
  sim.run();
  EXPECT_EQ(got, JobOutcome::kCancelled);
  EXPECT_GT(queue_seconds, 0.0);
  EXPECT_EQ(service_seconds, 0.0);
  EXPECT_EQ(st.jobs_cancelled(), 1u);
  // Cancelled work burned no server time.
  EXPECT_EQ(st.wasted_server_seconds(), 0.0);
}

TEST(Deadlines, WithoutCancellationExpiredWorkIsServedAndCountedAsWaste) {
  Simulator sim;
  ServiceStation st(sim, Rng(5), ServiceId{0}, ClusterId{0}, 1);
  StationOverloadConfig oc;
  oc.cancel_expired = false;
  st.configure_overload(oc);

  st.submit(spec(1.0), [](JobOutcome, double, double) {});
  JobOutcome got = JobOutcome::kCancelled;
  st.submit(spec(0.5, 0, 1e-6),
            [&](JobOutcome o, double, double) { got = o; });
  sim.run();
  EXPECT_EQ(got, JobOutcome::kServed);  // zombie work ran to completion
  EXPECT_EQ(st.jobs_cancelled(), 0u);
  EXPECT_GT(st.wasted_server_seconds(), 0.0);
}

// --- Queue-delay telemetry -------------------------------------------------

TEST(QueueDelayWindow, RecordsPerDispatchDelaysAndResets) {
  Simulator sim;
  ServiceStation st(sim, Rng(6), ServiceId{0}, ClusterId{0}, 1);
  for (int i = 0; i < 10; ++i) {
    st.submit(spec(0.01), [](JobOutcome, double, double) {});
  }
  sim.run();
  const SampleSet& w = st.queue_delay_window();
  ASSERT_EQ(w.count(), 10u);
  EXPECT_EQ(w.quantile(0.0), 0.0);  // first job never waited
  EXPECT_GT(w.quantile(1.0), 0.0);  // later jobs did
  EXPECT_GE(w.quantile(0.99), w.quantile(0.5));
  st.reset_queue_delay_window();
  EXPECT_EQ(st.queue_delay_window().count(), 0u);
}

// --- Circuit breaker state machine -----------------------------------------

BreakerPolicy test_breaker() {
  BreakerPolicy p;
  p.enabled = true;
  p.window = 1.0;
  p.min_volume = 10;
  p.failure_ratio = 0.5;
  p.ejection_base = 5.0;
  p.max_ejection = 60.0;
  p.half_open_probes = 2;
  return p;
}

TEST(CircuitBreaker, TripsOnFailureRateEjectsThenProbesBackClosed) {
  CircuitBreakerBank bank(test_breaker(), 1, 2);
  const ServiceId svc{0};
  const ClusterId bad{1};

  // Below min_volume nothing trips, even at 100% failures.
  for (int i = 0; i < 9; ++i) bank.on_result(svc, bad, false, 0.1);
  EXPECT_TRUE(bank.allowed(svc, bad, 0.2));
  EXPECT_EQ(bank.state(svc, bad, 0.2), CircuitBreakerBank::State::kClosed);

  // The 10th failure crosses min_volume at 100% failure rate: open.
  bank.on_result(svc, bad, false, 0.2);
  EXPECT_EQ(bank.state(svc, bad, 0.2), CircuitBreakerBank::State::kOpen);
  EXPECT_FALSE(bank.allowed(svc, bad, 0.3));
  EXPECT_EQ(bank.ejections(), 1u);
  // The other cluster is untouched.
  EXPECT_TRUE(bank.allowed(svc, ClusterId{0}, 0.3));

  // After the 5s ejection the breaker admits probes (half-open)...
  EXPECT_TRUE(bank.allowed(svc, bad, 5.3));
  EXPECT_EQ(bank.state(svc, bad, 5.3), CircuitBreakerBank::State::kHalfOpen);
  // ...and two successful probes close it again.
  bank.on_result(svc, bad, true, 5.4);
  EXPECT_EQ(bank.state(svc, bad, 5.4), CircuitBreakerBank::State::kHalfOpen);
  bank.on_result(svc, bad, true, 5.5);
  EXPECT_EQ(bank.state(svc, bad, 5.5), CircuitBreakerBank::State::kClosed);
  EXPECT_TRUE(bank.allowed(svc, bad, 5.6));
}

TEST(CircuitBreaker, HalfOpenFailureReopensWithLongerEjection) {
  CircuitBreakerBank bank(test_breaker(), 1, 1);
  const ServiceId svc{0};
  const ClusterId c{0};
  for (int i = 0; i < 10; ++i) bank.on_result(svc, c, false, 0.1);
  ASSERT_EQ(bank.state(svc, c, 0.1), CircuitBreakerBank::State::kOpen);

  // Probe at 5.2 fails: re-open with 2x the base ejection (linear growth).
  EXPECT_TRUE(bank.allowed(svc, c, 5.2));
  bank.on_result(svc, c, false, 5.2);
  EXPECT_EQ(bank.state(svc, c, 5.2), CircuitBreakerBank::State::kOpen);
  EXPECT_EQ(bank.ejections(), 2u);
  EXPECT_FALSE(bank.allowed(svc, c, 5.2 + 9.9));   // still within 2 * 5s
  EXPECT_TRUE(bank.allowed(svc, c, 5.2 + 10.1));  // half-open again
}

TEST(CircuitBreaker, OldOutcomesAgeOutOfTheRollingWindow) {
  CircuitBreakerBank bank(test_breaker(), 1, 1);
  const ServiceId svc{0};
  const ClusterId c{0};
  // 9 failures, then a long quiet gap: the window forgets them, so 9 more
  // (each below min_volume within the live window) never trip.
  for (int i = 0; i < 9; ++i) bank.on_result(svc, c, false, 0.1);
  for (int i = 0; i < 9; ++i) bank.on_result(svc, c, false, 10.0);
  EXPECT_EQ(bank.state(svc, c, 10.0), CircuitBreakerBank::State::kClosed);
}

TEST(OverloadPolicy, ValidateRejectsBadKnobs) {
  OverloadPolicy p;
  p.queue.codel_target = -1.0;
  EXPECT_THROW(p.validate(1), std::invalid_argument);

  p = OverloadPolicy{};
  p.deadline.enabled = true;
  p.deadline.default_deadline = 0.0;
  EXPECT_THROW(p.validate(1), std::invalid_argument);

  p = OverloadPolicy{};
  p.deadline.per_class = {0.5, 0.5};
  EXPECT_THROW(p.validate(1), std::invalid_argument);  // out-of-range class

  p = OverloadPolicy{};
  p.breaker.enabled = true;
  p.breaker.failure_ratio = 1.5;
  EXPECT_THROW(p.validate(1), std::invalid_argument);

  p = OverloadPolicy{};
  p.queue.class_priority = {1, 2, 3};
  EXPECT_THROW(p.validate(2), std::invalid_argument);
}

// --- End-to-end: deadline propagation kills wasted work --------------------

TEST(DeadlinePropagation, CancelsExpiredWorkInsteadOfServingIt) {
  // A persistently overloaded local-only cluster (600 > ~500 RPS): queue
  // delay exceeds the 300ms deadline for most of the run.
  TwoClusterChainParams params;
  params.west_rps = 600.0;
  params.east_rps = 50.0;
  Scenario scenario = make_two_cluster_chain_scenario(params);
  scenario.overload.deadline.enabled = true;
  scenario.overload.deadline.default_deadline = 0.3;

  RunConfig config;
  config.policy = PolicyKind::kLocalOnly;
  config.duration = 30.0;
  config.warmup = 5.0;
  config.seed = 3;

  scenario.overload.deadline.propagate = true;
  const ExperimentResult with = run_experiment(scenario, config);
  scenario.overload.deadline.propagate = false;
  const ExperimentResult without = run_experiment(scenario, config);

  // Propagation cancels expired work before it reaches a server: zero
  // server-seconds wasted, and the cancellations show up as such.
  EXPECT_EQ(with.wasted_server_seconds, 0.0);
  EXPECT_GT(with.deadline_cancellations, 100u);
  // Without propagation the same deadlines are carried for accounting
  // only: expired work is served anyway and the waste is visible.
  EXPECT_GT(without.wasted_server_seconds, 1.0);
  EXPECT_EQ(without.deadline_cancellations, 0u);
}

TEST(DeadlinePropagation, BornDeadRedirectIsCancelledBeforeExecuteNode) {
  // The entry service is absent in West, so every West arrival redirects
  // to East over a 200ms one-way hop — but the class deadline is only
  // 150ms, so each request is already dead when it lands. Regression:
  // such requests must be cancelled at delivery (counted, not enqueued),
  // never handed to execute_node — even with propagation off, where they
  // previously ran the whole call tree as guaranteed-wasted work.
  TwoClusterChainParams params;
  params.rtt = 0.4;
  params.west_rps = 200.0;
  params.east_rps = 0.0;
  Scenario scenario = make_two_cluster_chain_scenario(params);
  scenario.deployment->undeploy(scenario.app->find_service("ingress"),
                                ClusterId{0});
  scenario.overload.deadline.enabled = true;
  scenario.overload.deadline.default_deadline = 0.15;

  RunConfig config;
  config.policy = PolicyKind::kLocalOnly;
  config.duration = 20.0;
  config.warmup = 5.0;
  config.seed = 11;
  for (bool propagate : {false, true}) {
    SCOPED_TRACE(propagate ? "propagate" : "accounting-only");
    scenario.overload.deadline.propagate = propagate;
    const ExperimentResult r = run_experiment(scenario, config);

    EXPECT_GT(r.generated, 1000u);
    EXPECT_GT(r.deadline_cancellations, 1000u);
    // Born-dead work never reached a station: nothing submitted, nothing
    // served, no server time burned on it.
    EXPECT_EQ(r.jobs_submitted, 0u);
    EXPECT_EQ(r.completed, 0u);
    EXPECT_EQ(r.wasted_server_seconds, 0.0);
  }
}

// --- End-to-end: the metastable-failure gauntlet ---------------------------

RunConfig burst_config() {
  RunConfig config;
  config.policy = PolicyKind::kLocalOnly;
  config.duration = 55.0;
  config.warmup = 5.0;
  config.seed = 23;
  config.timeseries_bucket = 1.0;
  config.failure.enabled = true;
  config.failure.call_timeout = 0.5;
  config.failure.max_retries = 2;
  config.failure.retry_excludes_failed = false;  // local-only: nowhere else
  return config;
}

Scenario burst_scenario(bool protected_run) {
  TwoClusterChainParams params;
  params.west_rps = 420.0;
  params.east_rps = 100.0;
  Scenario scenario = make_two_cluster_chain_scenario(params);
  const ClassId chain = scenario.app->find_class("chain");
  // 10s burst to ~3x capacity: [20, 30).
  scenario.demand.add_step(chain, ClusterId{0}, 20.0, 1500.0);
  scenario.demand.add_step(chain, ClusterId{0}, 30.0, params.west_rps);
  if (protected_run) {
    scenario.overload.queue.max_queue = 64;
    scenario.overload.deadline.enabled = true;
    scenario.overload.deadline.default_deadline = 0.5;
    scenario.overload.deadline.propagate = true;
  }
  return scenario;
}

TEST(MetastableGauntlet, UnprotectedGoodputStaysCollapsedAfterTheBurst) {
  const ExperimentResult r =
      run_experiment(burst_scenario(false), burst_config());
  const double pre = r.goodput_in_window(10.0, 20.0);
  const double post = r.goodput_in_window(40.0, 55.0);
  ASSERT_GT(pre, 100.0);
  // 10+ seconds after offered load returned below capacity, goodput is
  // still under half the healthy level: the backlog of timed-out work
  // sustains the failure (the metastable signature).
  EXPECT_LT(post, 0.5 * pre);
  EXPECT_GT(r.call_timeouts, 1000u);
}

TEST(MetastableGauntlet, OverloadControlReconvergesToPreBurstGoodput) {
  const ExperimentResult r =
      run_experiment(burst_scenario(true), burst_config());
  const double pre = r.goodput_in_window(10.0, 20.0);
  const double post = r.goodput_in_window(40.0, 55.0);
  ASSERT_GT(pre, 100.0);
  // Same burst, same retries — but the burst was shed at admission and
  // expired work cancelled, so post-burst goodput is back to healthy.
  EXPECT_GE(post, 0.9 * pre);
  EXPECT_GT(r.total_shed(), 1000u);
  // Propagation means the shedding wasted no server time on zombies.
  EXPECT_EQ(r.wasted_server_seconds, 0.0);
}

// --- End-to-end: circuit breaker vs gray failure ---------------------------

TEST(CircuitBreakerEndToEnd, EjectsSlowReplicaAndRestoresGoodput) {
  TwoClusterChainParams params;
  params.west_rps = 300.0;
  params.east_rps = 100.0;
  params.east_servers = 2;
  Scenario scenario = make_two_cluster_chain_scenario(params);
  // svc-1 in West turns 8x slower for [20, 50): slow, not down.
  scenario.faults.service_slowdown(scenario.app->find_service("svc-1"),
                                   ClusterId{0}, 20.0, 30.0, 8.0);

  RunConfig config;
  config.policy = PolicyKind::kLocalityFailover;
  config.duration = 60.0;
  config.warmup = 5.0;
  config.seed = 29;
  config.timeseries_bucket = 1.0;
  config.failure.enabled = true;
  config.failure.call_timeout = 0.25;
  config.failure.max_retries = 1;

  const ExperimentResult naive = run_experiment(scenario, config);
  scenario.overload.breaker.enabled = true;
  const ExperimentResult protected_run = run_experiment(scenario, config);

  EXPECT_GE(protected_run.breaker_ejections, 1u);
  // The breaker fails over to East instead of feeding the slow replica.
  const double gray_naive = naive.goodput_in_window(25.0, 50.0);
  const double gray_breaker = protected_run.goodput_in_window(25.0, 50.0);
  EXPECT_GT(gray_breaker, gray_naive);
  EXPECT_LT(protected_run.failed, naive.failed / 2 + 1);
}

// --- Conservation & determinism --------------------------------------------

TEST(OverloadAccounting, JobConservationHoldsUnderBurstAndShedding) {
  for (bool protected_run : {false, true}) {
    SCOPED_TRACE(protected_run ? "protected" : "unprotected");
    const ExperimentResult r =
        run_experiment(burst_scenario(protected_run), burst_config());
    // Every admitted job is accounted for exactly once.
    expect_conserved(r, /*admission_armed=*/false);
    // Station-level shed/evicted match the result's shed counters.
    EXPECT_EQ(r.jobs_evicted, r.shed_evictions);
    EXPECT_GE(r.jobs_shed, r.shed_queue_full + r.shed_queue_delay);
  }
}

TEST(OverloadAccounting, DeterministicForSeed) {
  const Scenario scenario = burst_scenario(true);
  expect_same_result(run_experiment(scenario, burst_config()),
                     run_experiment(scenario, burst_config()));
}

}  // namespace
}  // namespace slate

#include "runtime/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "result_checks.h"
#include "runtime/scenarios.h"

namespace slate {
namespace {

// --- WorkerPool ------------------------------------------------------------

TEST(WorkerPool, ExecutesSubmittedTasks) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 100; ++i) {
    futures.push_back(pool.submit([&sum, i]() { sum += i; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(WorkerPool, ReturnsValuesThroughFutures) {
  WorkerPool pool(2);
  auto f1 = pool.submit([]() { return 21 * 2; });
  auto f2 = pool.submit([]() { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(WorkerPool, ExceptionsPropagateThroughFutures) {
  WorkerPool pool(2);
  auto ok = pool.submit([]() { return 1; });
  auto bad = pool.submit([]() -> int {
    throw std::runtime_error("worker exploded");
  });
  EXPECT_EQ(ok.get(), 1);
  EXPECT_THROW(
      {
        try {
          bad.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "worker exploded");
          throw;
        }
      },
      std::runtime_error);
}

TEST(WorkerPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    WorkerPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&ran]() {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++ran;
      });
    }
  }  // destructor must wait for all 50, not drop the queue
  EXPECT_EQ(ran.load(), 50);
}

TEST(WorkerPool, ZeroThreadsMeansHardwareConcurrency) {
  WorkerPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

// --- Grid determinism ------------------------------------------------------

std::vector<GridJob> determinism_jobs(const Scenario& scenario) {
  std::vector<GridJob> jobs;
  for (PolicyKind policy : {PolicyKind::kWaterfall, PolicyKind::kSlate}) {
    for (std::uint64_t seed : {3u, 4u, 5u}) {
      RunConfig config;
      config.policy = policy;
      config.duration = 8.0;
      config.warmup = 2.0;
      config.seed = seed;
      config.failure.enabled = true;
      config.failure.call_timeout = 0.5;
      jobs.push_back({&scenario, config, to_string(policy)});
    }
  }
  return jobs;
}

// Runs `jobs` on one worker and on eight, expects every result to match,
// and returns the serial results for the caller's vacuity checks.
std::vector<ExperimentResult> serial_matching_parallel(
    const std::vector<GridJob>& jobs) {
  GridOptions serial;
  serial.jobs = 1;
  GridOptions parallel;
  parallel.jobs = 8;
  std::vector<ExperimentResult> a = run_experiment_grid(jobs, serial);
  const std::vector<ExperimentResult> b = run_experiment_grid(jobs, parallel);
  EXPECT_EQ(a.size(), jobs.size());
  EXPECT_EQ(b.size(), jobs.size());
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_result(a[i], b[i]);
  }
  return a;
}

TEST(ExperimentGrid, ParallelResultsMatchSerialExactly) {
  TwoClusterChainParams params;
  params.west_rps = 500.0;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  serial_matching_parallel(determinism_jobs(scenario));
}

TEST(ExperimentGrid, ParallelMatchesSerialWithOverloadControlEnabled) {
  // The overload subsystem (bounded queues, deadlines, breakers) must not
  // introduce any cross-run shared state: byte-identity has to survive with
  // every gate armed and actively shedding.
  TwoClusterChainParams params;
  params.west_rps = 650.0;  // overloaded: the gates fire constantly
  Scenario scenario = make_two_cluster_chain_scenario(params);
  scenario.overload.queue.max_queue = 32;
  scenario.overload.queue.codel_target = 0.02;
  scenario.overload.deadline.enabled = true;
  scenario.overload.deadline.default_deadline = 0.4;
  scenario.overload.breaker.enabled = true;
  scenario.overload.breaker.min_volume = 10;

  std::uint64_t overload_activity = 0;
  for (const ExperimentResult& r :
       serial_matching_parallel(determinism_jobs(scenario))) {
    overload_activity += r.total_shed() + r.deadline_cancellations;
  }
  // The comparison is vacuous unless the subsystem actually did something.
  EXPECT_GT(overload_activity, 0u);
}

TEST(ExperimentGrid, ParallelMatchesSerialWithAdmissionArmed) {
  // The front-door admission gate (token buckets + per-period adaptation)
  // must stay bit-deterministic across worker threads while actively
  // rejecting and retuning.
  TwoClusterChainParams params;
  params.west_rps = 650.0;  // overloaded: the gate fires constantly
  Scenario scenario = make_two_cluster_chain_scenario(params);
  scenario.admission.enabled = true;
  scenario.admission.default_rate = 400.0;
  scenario.admission.default_slo = 0.4;
  scenario.admission.target_attainment = 0.9;

  std::uint64_t admission_activity = 0;
  for (const ExperimentResult& r :
       serial_matching_parallel(determinism_jobs(scenario))) {
    expect_conserved(r, /*admission_armed=*/true);
    admission_activity += r.admission_rejected + r.admission_rate_cuts;
  }
  // The comparison is vacuous unless the gate actually did something.
  EXPECT_GT(admission_activity, 0u);
}

TEST(ExperimentGrid, ParallelMatchesSerialWithGuardArmed) {
  // The control-plane guard stack (telemetry admission, solver fallback
  // ladder, canary rollout) must stay bit-deterministic across worker
  // threads even while actively clamping corrupted reports and riding out
  // a solver outage.
  TwoClusterChainParams params;
  params.west_rps = 800.0;
  params.east_rps = 100.0;
  Scenario scenario = make_two_cluster_chain_scenario(params);
  scenario.faults.telemetry_corruption(ClusterId{0}, 3.0, 8.0, 8.0);
  scenario.faults.solver_outage(5.0, 3.0);
  scenario.guard.admission.enabled = true;
  scenario.guard.solver.enabled = true;
  scenario.guard.rollout.enabled = true;

  std::vector<GridJob> jobs;
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    RunConfig config;
    config.policy = PolicyKind::kSlate;
    config.duration = 14.0;
    config.warmup = 2.0;
    config.seed = seed;
    config.failure.enabled = true;
    config.failure.call_timeout = 0.5;
    jobs.push_back({&scenario, config, "guarded"});
  }

  std::uint64_t guard_activity = 0;
  for (const ExperimentResult& r : serial_matching_parallel(jobs)) {
    guard_activity +=
        r.guard_spikes_clamped + r.guard_fields_rejected + r.solver_fallbacks;
  }
  // The comparison is vacuous unless the guard actually did something.
  EXPECT_GT(guard_activity, 0u);
}

TEST(ExperimentGrid, ParallelMatchesSerialWithDrainAndContingencyArmed) {
  // The contingency subsystem (N-1 margin checks, padded re-solves) and a
  // mid-run coordinated drain both live on the control timeline; neither
  // may leak state across grid workers.
  TwoClusterChainParams params;
  params.west_rps = 500.0;
  Scenario scenario = make_two_cluster_chain_scenario(params);
  scenario.contingency.enabled = true;
  DrainSpec drain;
  drain.cluster = ClusterId{1};
  drain.start = 3.0;
  drain.over = 3.0;
  scenario.drains.push_back(drain);

  std::uint64_t contingency_activity = 0;
  std::uint64_t drain_activity = 0;
  for (const ExperimentResult& r :
       serial_matching_parallel(determinism_jobs(scenario))) {
    contingency_activity += r.contingency_evals;
    drain_activity += r.drain_steps;
  }
  // Vacuous unless both subsystems actually engaged somewhere in the grid
  // (contingency only arms under SLATE; the drain runs under every policy).
  EXPECT_GT(contingency_activity, 0u);
  EXPECT_GT(drain_activity, 0u);
}

TEST(ExperimentGrid, ResultsComeBackInJobOrder) {
  TwoClusterChainParams params;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  std::vector<GridJob> jobs;
  // Distinguish jobs by seed so each result is attributable.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RunConfig config;
    config.policy = PolicyKind::kLocalOnly;
    config.duration = 6.0;
    config.warmup = 1.0;
    config.seed = seed;
    jobs.push_back({&scenario, config, "job"});
  }

  const std::vector<ExperimentResult> grid =
      run_experiment_grid(jobs, GridOptions{4, nullptr});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_result(grid[i], run_experiment(scenario, jobs[i].config));
  }
}

TEST(ExperimentGrid, ProgressCallbackSeesEveryCompletion) {
  TwoClusterChainParams params;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  std::vector<GridJob> jobs;
  for (int i = 0; i < 5; ++i) {
    RunConfig config;
    config.policy = PolicyKind::kLocalOnly;
    config.duration = 4.0;
    config.warmup = 1.0;
    config.seed = static_cast<std::uint64_t>(i + 1);
    jobs.push_back({&scenario, config, "p"});
  }
  std::vector<std::size_t> seen;
  GridOptions options;
  options.jobs = 3;
  options.progress = [&seen](std::size_t finished, std::size_t total) {
    EXPECT_EQ(total, 5u);
    seen.push_back(finished);
  };
  run_experiment_grid(jobs, options);
  ASSERT_EQ(seen.size(), 5u);
  // The callback runs under a mutex with a monotone counter.
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
}

TEST(ExperimentGrid, FirstFailingJobsExceptionRethrows) {
  TwoClusterChainParams params;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  std::vector<GridJob> jobs;
  for (int i = 0; i < 3; ++i) {
    RunConfig config;
    config.policy = PolicyKind::kLocalOnly;
    config.duration = 4.0;
    config.warmup = 1.0;
    jobs.push_back({&scenario, config, "x"});
  }
  jobs[1].config.warmup = 10.0;  // warmup >= duration: Simulation throws
  EXPECT_THROW(run_experiment_grid(jobs, GridOptions{2, nullptr}),
               std::invalid_argument);
}

// --- Replication helpers ---------------------------------------------------

TEST(ReplicateSeed, IndexZeroIsBaseSeed) {
  EXPECT_EQ(replicate_seed(12345, 0), 12345u);
  EXPECT_EQ(replicate_seed(0, 0), 0u);
}

TEST(ReplicateSeed, DerivedSeedsAreDistinct) {
  const std::uint64_t base = 42;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 64; ++i) seeds.push_back(replicate_seed(base, i));
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]) << i << " vs " << j;
    }
  }
  // Deterministic across calls.
  EXPECT_EQ(replicate_seed(base, 7), replicate_seed(base, 7));
}

TEST(MeanCi95, SmallSamples) {
  EXPECT_EQ(mean_ci95({}).n, 0u);
  EXPECT_EQ(mean_ci95({}).mean, 0.0);
  const MeanCI one = mean_ci95({5.0});
  EXPECT_EQ(one.mean, 5.0);
  EXPECT_EQ(one.ci95, 0.0);
  EXPECT_EQ(one.n, 1u);
}

TEST(MeanCi95, MatchesHandComputation) {
  const MeanCI ci = mean_ci95({2.0, 4.0, 6.0, 8.0});
  EXPECT_DOUBLE_EQ(ci.mean, 5.0);
  // stddev = sqrt(20/3); ci95 = 1.96 * stddev / sqrt(4)
  EXPECT_NEAR(ci.ci95, 1.96 * std::sqrt(20.0 / 3.0) / 2.0, 1e-12);
  EXPECT_EQ(ci.n, 4u);
}

}  // namespace
}  // namespace slate

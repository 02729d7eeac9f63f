// Extension experiment: metastable failure under a load burst, and gray
// failure under a slow replica — with and without overload control.
//
// Phase 1 (burst): a single-server chain in West runs at u ~ 0.84, then the
// offered load more than triples for 10 seconds. Without overload control
// the unbounded station queues absorb the burst as a multi-thousand-job
// backlog; every queued job's caller times out at 0.5s, yet the work is
// still served — servers burn 100% of their time on requests nobody is
// waiting for, and goodput stays collapsed long after the burst ends (the
// sustaining feedback loop of a metastable failure: Bronson et al., HotOS
// '21). With bounded queues + deadline propagation the burst is shed at
// the door, expired work is cancelled at dispatch instead of served, and
// goodput snaps back within a couple of seconds:
//
//   pre      — goodput in [20, 30), before the burst
//   burst    — goodput in [32, 40), during
//   post     — goodput in [55, 70), after the burst cleared (15s grace)
//
// Phase 2 (gray failure): West's svc-1 turns 8x slower for 30 seconds (slow,
// not down — the hardest failure mode for static routing). A per-(service,
// destination) circuit breaker trips on the timeout failure rate, ejects
// (svc-1, West) from the candidate set, and the locality-failover data
// plane fails over to East mid-request. Without the breaker every call
// keeps aiming at the slow replica and eats the timeout.
#include <cstdio>

#include "bench_util.h"
#include "runtime/scenarios.h"

using namespace slate;

namespace {

void run_burst_phase() {
  const Scenario scenario = bench::burst_chain_scenario();
  Scenario protected_world = scenario;
  protected_world.overload.queue.max_queue = 64;
  protected_world.overload.deadline.enabled = true;
  protected_world.overload.deadline.default_deadline = 0.5;
  protected_world.overload.deadline.propagate = true;

  std::vector<GridJob> jobs;
  jobs.push_back({&scenario, bench::burst_chain_config(), "unprotected"});
  jobs.push_back({&protected_world, bench::burst_chain_config(), "protected"});
  std::vector<ExperimentResult> results = bench::run_grid(jobs);

  std::printf("\nphase 1: 10s burst to 1500 RPS on a ~500 RPS chain\n");
  std::printf("%-14s %8s %8s %8s %10s %8s %10s %12s\n", "config", "pre_rps",
              "burst", "post_rps", "post/pre", "shed", "cancelled",
              "wasted_sec");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    const char* label = i == 0 ? "unprotected" : "protected";
    const double pre = r.goodput_in_window(20.0, bench::kBurstStart);
    const double burst = r.goodput_in_window(32.0, bench::kBurstEnd);
    const double post = r.goodput_in_window(55.0, 70.0);
    std::printf("%-14s %8.1f %8.1f %8.1f %10.2f %8llu %10llu %12.1f\n", label,
                pre, burst, post, pre > 0.0 ? post / pre : 0.0,
                static_cast<unsigned long long>(r.total_shed()),
                static_cast<unsigned long long>(r.deadline_cancellations),
                r.wasted_server_seconds);
    std::printf("data,metastable_burst,%s,%.2f,%.2f,%.2f,%llu,%llu,%.2f\n",
                label, pre, burst, post,
                static_cast<unsigned long long>(r.total_shed()),
                static_cast<unsigned long long>(r.deadline_cancellations),
                r.wasted_server_seconds);
    for (std::size_t b = 0; b < r.completed_series.size(); ++b) {
      std::printf("data,metastable_series,%s,%.1f,%llu\n", label,
                  static_cast<double>(b) * r.series_bucket,
                  static_cast<unsigned long long>(r.completed_series[b]));
    }
  }
}

constexpr double kGrayStart = 30.0;
constexpr double kGrayEnd = 60.0;

RunConfig gray_config() {
  RunConfig config;
  config.policy = PolicyKind::kLocalityFailover;
  config.duration = 80.0;
  config.warmup = 5.0;
  config.seed = 29;
  config.timeseries_bucket = 1.0;
  config.failure.enabled = true;
  config.failure.call_timeout = 0.25;
  config.failure.max_retries = 1;
  return config;
}

void run_gray_phase() {
  TwoClusterChainParams params;
  params.west_rps = 300.0;
  params.east_rps = 100.0;
  params.west_servers = 1;
  params.east_servers = 2;
  Scenario scenario = make_two_cluster_chain_scenario(params);
  scenario.faults.service_slowdown(scenario.app->find_service("svc-1"),
                                   ClusterId{0}, kGrayStart,
                                   kGrayEnd - kGrayStart, 8.0);

  Scenario breaker_world = scenario;
  breaker_world.overload.breaker.enabled = true;

  std::vector<GridJob> jobs;
  jobs.push_back({&scenario, gray_config(), "no-breaker"});
  jobs.push_back({&breaker_world, gray_config(), "breaker"});
  std::vector<ExperimentResult> results = bench::run_grid(jobs);

  std::printf("\nphase 2: svc-1 in West 8x slower for 30s (gray failure)\n");
  std::printf("%-14s %9s %9s %9s %8s %9s %10s\n", "config", "pre_rps",
              "gray_rps", "post_rps", "errors", "timeouts", "ejections");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    const char* label = i == 0 ? "no-breaker" : "breaker";
    const double pre = r.goodput_in_window(20.0, kGrayStart);
    const double gray = r.goodput_in_window(35.0, kGrayEnd);
    const double post = r.goodput_in_window(65.0, 80.0);
    std::printf("%-14s %9.1f %9.1f %9.1f %8llu %9llu %10llu\n", label, pre,
                gray, post, static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.call_timeouts),
                static_cast<unsigned long long>(r.breaker_ejections));
    std::printf("data,gray_failure,%s,%.2f,%.2f,%.2f,%llu,%llu,%llu\n", label,
                pre, gray, post, static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.call_timeouts),
                static_cast<unsigned long long>(r.breaker_ejections));
  }
}

}  // namespace

int main() {
  bench::print_header("Extension",
                      "metastable burst + gray failure, with/without "
                      "overload control");
  run_burst_phase();
  run_gray_phase();
  std::printf(
      "\nreading: the unprotected burst run leaves a ~10,000-job backlog\n"
      "that drains at ~500 jobs/s while every caller has already timed\n"
      "out — post-burst goodput stays collapsed for the rest of the run\n"
      "even though offered load is back under capacity. Bounded queues\n"
      "shed the burst at admission, deadline propagation cancels expired\n"
      "work before it reaches a server, and post-burst goodput returns to\n"
      "the pre-burst level within seconds. In the gray-failure phase the\n"
      "circuit breaker converts a sustained timeout storm into a fast\n"
      "failover: (svc-1, West) is ejected after ~1 window of failures and\n"
      "traffic rides East until probes find the replica healthy again.\n");
  return 0;
}

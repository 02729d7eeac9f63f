// Extension experiment: predictive traffic engineering under follow-the-sun
// load (paper §5 "Opportunities" — the controller can close its one-period
// actuation lag by solving on where demand is GOING, not where it was).
//
// Two-cluster chain with anti-phase 40 s diurnal sinusoids: each region's
// peak (760 RPS) overruns its local capacity (~500 RPS) while the other
// region troughs (40 RPS), so the right plan is always "spill my peak onto
// your trough" — but the spill must move WITH the sun. The total offered
// load is constant, so any latency difference between arms is purely about
// when the controller rotates the spill, not about how much capacity exists.
//
// Three arms, same data plane, same seed:
//
//   reactive    — stock SLATE: solve on the EWMA of last-period measured
//                 ingress; every plan chases the sinusoid ~2 control
//                 periods late.
//   predictive  — Holt-Winters seasonal forecaster (season = 40 control
//                 periods) learns the cycle online; once the rolling
//                 backtest earns confidence the solver runs on blended
//                 next-period demand.
//   oracle      — hindsight bound: solve on the actual offered load at the
//                 actuation-window midpoint, read from the demand schedule.
//
// Judged on mean/p95 latency over the post-warmup window (warmup covers the
// Holt-Winters two-season initialization), rule churn, and the forecast
// backtest digests. The pinned ordering (tests/forecast_test.cc):
// oracle <= predictive <= reactive, with predictive at least 10% under
// reactive on mean latency.
#include <cstdio>

#include "bench_util.h"
#include "runtime/scenarios.h"
#include "workload/generators.h"

using namespace slate;

namespace {

constexpr double kPeriod = 40.0;    // seconds per diurnal cycle
constexpr double kDuration = 240.0;
constexpr double kWarmup = 150.0;   // 2 seasons (80 s) + confidence ramp

Scenario diurnal_scenario() {
  TwoClusterChainParams params;
  params.west_servers = 1;
  params.east_servers = 1;
  Scenario s = make_two_cluster_chain_scenario(params);
  s.demand = DemandSchedule{};
  DiurnalSpec west;
  west.base = 400.0;
  west.amplitude = 360.0;
  west.period = kPeriod;
  west.end = kDuration + kPeriod;
  west.step = 1.0;
  DiurnalSpec east = west;
  east.phase = kPeriod / 2.0;  // anti-phase: east peaks while west troughs
  add_diurnal(s.demand, ClassId{0}, ClusterId{0}, west);
  add_diurnal(s.demand, ClassId{0}, ClusterId{1}, east);
  return s;
}

}  // namespace

int main() {
  bench::print_header(
      "Extension", "predictive TE: reactive vs forecast vs hindsight oracle");

  RunConfig base;
  base.policy = PolicyKind::kSlate;
  base.duration = kDuration;
  base.warmup = kWarmup;
  base.seed = 11;
  base.control_period = 1.0;
  base.timeseries_bucket = 1.0;

  const Scenario scenario = diurnal_scenario();
  Scenario predictive = scenario;
  predictive.forecast.kind = ForecastKind::kHoltWinters;
  predictive.forecast.season =
      static_cast<std::size_t>(kPeriod / base.control_period);
  Scenario oracle = scenario;
  oracle.forecast.kind = ForecastKind::kOracle;

  std::vector<GridJob> jobs;
  jobs.push_back({&scenario, base, "reactive"});
  jobs.push_back({&predictive, base, "predictive"});
  jobs.push_back({&oracle, base, "oracle"});
  std::vector<ExperimentResult> results = bench::run_grid(jobs);

  const char* labels[] = {"reactive", "predictive", "oracle"};
  std::printf("%-12s %9s %9s %9s %10s %8s %8s %8s\n", "arm", "mean_ms",
              "p95_ms", "p99_ms", "rule_delta", "solves", "smape", "conf");
  double reactive_mean = 0.0, predictive_mean = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    if (i == 0) reactive_mean = r.mean_latency();
    if (i == 1) predictive_mean = r.mean_latency();
    std::printf("%-12s %9.2f %9.2f %9.2f %10.3f %8llu %8.3f %8.2f\n",
                labels[i], r.mean_latency() * 1e3, r.p95() * 1e3,
                r.p99() * 1e3, r.mean_rule_delta(),
                static_cast<unsigned long long>(r.forecast_solves),
                r.forecast_mean_smape, r.forecast_mean_confidence);
    std::printf("data,predictive,%s,%.4f,%.4f,%.4f,%.4f,%llu,%.4f,%.4f\n",
                labels[i], r.mean_latency() * 1e3, r.p95() * 1e3,
                r.p99() * 1e3, r.mean_rule_delta(),
                static_cast<unsigned long long>(r.forecast_solves),
                r.forecast_mean_smape, r.forecast_mean_confidence);
    for (std::size_t b = 0; b < r.completed_series.size(); ++b) {
      std::printf("data,goodput_series,%s,%.1f,%llu\n", labels[i],
                  static_cast<double>(b) * r.series_bucket,
                  static_cast<unsigned long long>(r.completed_series[b]));
    }
  }
  if (reactive_mean > 0.0) {
    std::printf("data,predictive_vs_reactive,%.4f\n",
                predictive_mean / reactive_mean);
  }
  std::printf(
      "\nreading: the reactive controller EWMAs last-period ingress, so its\n"
      "spill plan rotates a couple control periods behind the sun — at every\n"
      "peak-shift the overloaded region keeps traffic it should already be\n"
      "spilling, queues build, and mean/p95 latency inflates. The seasonal\n"
      "forecaster learns the 40 s cycle during warmup, earns confidence on\n"
      "the rolling backtest, and hands the solver next-period demand: the\n"
      "spill rotates on time and mean latency drops >= 10%%. The oracle, fed\n"
      "the actual future from the schedule, bounds what any forecaster\n"
      "could achieve on this workload.\n");
  return 0;
}

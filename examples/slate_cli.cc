// Run any text-format scenario under any routing policy.
//
//   $ ./slate_cli <scenario.slate> [options]
//   $ ./slate_cli synth:clusters=30,services=200,classes=12,seed=7 [options]
//
// The second form synthesizes a planet-scale scenario instead of loading a
// file; the spec syntax matches the `topology synth` scenario directive
// (docs/scenario_format.md).
//
// Options:
//   --policy=<local|rr|failover|static|waterfall|slate>   (default slate)
//   --duration=<seconds>   --warmup=<seconds>      (default 60 / 15)
//   --seed=<n>                                     (default 1)
//   --cost-weight=<w>      SLATE egress-cost weight (default 1)
//   --autoscale            enable the per-station autoscaler
//   --timeout=<seconds>    per-call timeout (enables failure handling)
//   --retries=<n>          max retries per call (enables failure handling)
//   --no-faults            ignore the scenario's fault plan
//   --no-guard             ignore the scenario's guard directives (run the
//                          control plane unhardened)
//   --forecast=<kind>      SLATE demand forecasting: set the forecast kind
//                          (last, ewma, linear, holtwinters, or oracle)
//   --forecast-season=<n>  set the Holt-Winters season length, in control
//                          periods
//   --no-forecast          ignore the scenario's forecast directive (run
//                          the controller purely reactive)
//   --dump-demand=<csv>    write the per-period offered/estimated/forecast
//                          demand timeseries per (class, cluster) to <csv>
//   --queue-limit=<n>      bound every station queue at n jobs (overload)
//   --deadline=<seconds>   arm the end-to-end default deadline, with
//                          propagation (overload)
//   --no-overload          ignore the scenario's overload directives
//   --admit=<class>:<rps>  front-door admission: cap class at rps per
//                          ingress cluster (repeatable; <rps> alone caps
//                          every class)
//   --no-admission         ignore the scenario's admission directives
//   --contingency          SLATE: arm N-1 headroom planning (pad the solve
//                          until every single-cluster failure reroutes
//                          within the utilization cap; docs/resilience.md)
//   --contingency-cap=<u>  set the post-failure utilization cap in (0, 1]
//                          (default 0.95; implies --contingency)
//   --no-contingency       ignore the scenario's contingency directive
//   --no-drains            ignore the scenario's drain directives (and
//                          campaign-expanded drains)
//   --bilevel              SLATE: arm bi-level autoscaling x TE co-design
//                          (implies --autoscale; docs/autoscaling.md)
//   --no-bilevel           ignore the scenario's bilevel directive
//   --server-price=<x>     price every cluster at x dollars per server-hour
//                          (overrides the scenario's `price` directives)
//   --cdf                  print the latency CDF
//   --seeds=<n>            run n replications (derived seeds) and report
//                          mean +/- 95% CI across them (default 1)
//   --jobs=<n>             worker threads for replications (default: all
//                          hardware threads; results are independent of n)
//   --shards=<n>           0 (default) runs the whole world as one island;
//                          n >= 1 partitions it by latency island with up
//                          to n worker threads (results are independent of
//                          n >= 1; docs/performance.md)
//
// The scenario is the one source of subsystem policy. Each --no-<x> clears
// that layer on the loaded scenario; the overlay flags (--forecast,
// --forecast-season, --queue-limit, --deadline, --admit, --contingency,
// --contingency-cap, --bilevel, --server-price) then edit it, setting only
// the fields they name and keeping the scenario's others. So
// `--no-admission --admit=...` runs with exactly the given caps, and
// `--queue-limit=50` keeps the scenario's CoDel target. A malformed or
// out-of-range value exits with status 2 and "bad value for --<flag>"; a
// run the simulator refuses (e.g. warmup past duration, a contingency cap
// below its floor) exits with status 2 and "invalid run: <reason>".
//
// Sample scenarios live in examples/scenarios/.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "runtime/parallel.h"
#include "runtime/scenario_loader.h"
#include "runtime/simulation.h"
#include "topogen/topogen.h"

using namespace slate;

namespace {

bool parse_flag(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

// Whole-string numeric parses: trailing junk, a sign on a count, or an
// unparsable value throws a std::logic_error, reported by main per flag.
double to_double(const std::string& s) {
  std::size_t used = 0;
  const double v = std::stod(s, &used);
  if (used != s.size()) throw std::invalid_argument(s);
  return v;
}

std::uint64_t to_count(const std::string& s) {
  std::size_t used = 0;
  const std::uint64_t v = std::stoull(s, &used);
  if (used != s.size() || s.find('-') != std::string::npos) {
    throw std::invalid_argument(s);
  }
  return v;
}

// The --no-<x> flags and what each clears on the loaded scenario.
struct Disarm {
  const char* flag;
  void (*clear)(Scenario&);
};
constexpr Disarm kDisarms[] = {
    {"--no-faults", [](Scenario& s) { s.faults.clear(); }},
    {"--no-overload", [](Scenario& s) { s.overload = OverloadPolicy{}; }},
    {"--no-guard", [](Scenario& s) { s.guard = GuardOptions{}; }},
    {"--no-forecast", [](Scenario& s) { s.forecast = ForecastOptions{}; }},
    {"--no-admission", [](Scenario& s) { s.admission = AdmissionPolicy{}; }},
    {"--no-contingency",
     [](Scenario& s) { s.contingency = ContingencyOptions{}; }},
    {"--no-drains", [](Scenario& s) { s.drains.clear(); }},
    {"--no-bilevel", [](Scenario& s) { s.bilevel = BilevelOptions{}; }},
};

// Appends `v` to a summary line; returns whether it is off `initial` (for
// vectors: whether any entry is nonzero).
bool append_value(std::uint64_t v, std::uint64_t initial, std::string& line) {
  line += std::to_string(v);
  return v != initial;
}

bool append_value(double v, double initial, std::string& line) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  line += buf;
  return v != initial;
}

bool append_value(const std::vector<std::uint64_t>& v,
                  const std::vector<std::uint64_t>&, std::string& line) {
  bool set = false;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) line += ',';
    line += std::to_string(v[i]);
    set = set || v[i] != 0;
  }
  return set;
}

// The counter summary: one line per family (wall-clock rows apart) that has
// a row off its initializer, listing every row of the family in table order.
void print_counters(const ExperimentResult& r) {
  static const ExperimentResult kInitial;
  std::string line;
  bool set = false;
  const std::size_t n = std::size(kResultCounters);
  for (std::size_t i = 0; i < n; ++i) {
    const CounterRow& row = kResultCounters[i];
    line += ' ';
    line += row.name;
    line += '=';
    const bool row_set = std::visit(
        [&](auto member) {
          return append_value(r.*member, kInitial.*member, line);
        },
        row.member);
    set = set || row_set;
    const bool last_of_group =
        i + 1 == n ||
        std::strcmp(kResultCounters[i + 1].family, row.family) != 0 ||
        kResultCounters[i + 1].clock != row.clock;
    if (!last_of_group) continue;
    if (set) {
      std::printf("  %-11s%s%s\n", row.family,
                  row.clock == CounterClock::kWallClock ? " wall-clock" : "",
                  line.c_str());
    }
    line.clear();
    set = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <scenario.slate> [--policy=...] [--duration=N]\n"
                 "see examples/scenarios/ for sample files\n",
                 argv[0]);
    return 2;
  }

  RunConfig config;
  config.duration = 60.0;
  config.warmup = 15.0;
  bool print_cdf = false;
  std::vector<void (*)(Scenario&)> disarms;
  // Overlay-flag edits, applied to the loaded scenario after the disarms.
  std::vector<std::function<void(Scenario&)>> overlays;
  std::string dump_demand_path;
  std::size_t seeds = 1;
  std::size_t jobs = 0;  // 0 = hardware concurrency
  std::string value;
  // The loop body is a try block: a value parse that throws names its flag.
  for (int i = 2; i < argc; ++i) try {
    const auto* disarm = std::find_if(
        std::begin(kDisarms), std::end(kDisarms),
        [&](const Disarm& d) { return std::strcmp(argv[i], d.flag) == 0; });
    if (disarm != std::end(kDisarms)) {
      disarms.push_back(disarm->clear);
    } else if (parse_flag(argv[i], "--policy", &value)) {
      if (value == "local") {
        config.policy = PolicyKind::kLocalOnly;
      } else if (value == "rr") {
        config.policy = PolicyKind::kRoundRobin;
      } else if (value == "failover") {
        config.policy = PolicyKind::kLocalityFailover;
      } else if (value == "static") {
        config.policy = PolicyKind::kStaticWeights;
      } else if (value == "waterfall") {
        config.policy = PolicyKind::kWaterfall;
      } else if (value == "slate") {
        config.policy = PolicyKind::kSlate;
      } else {
        std::fprintf(stderr, "unknown policy '%s'\n", value.c_str());
        return 2;
      }
    } else if (parse_flag(argv[i], "--duration", &value)) {
      config.duration = to_double(value);
    } else if (parse_flag(argv[i], "--warmup", &value)) {
      config.warmup = to_double(value);
    } else if (parse_flag(argv[i], "--seed", &value)) {
      config.seed = to_count(value);
    } else if (parse_flag(argv[i], "--cost-weight", &value)) {
      config.slate.optimizer.cost_weight = to_double(value);
    } else if (std::strcmp(argv[i], "--autoscale") == 0) {
      config.autoscaler_enabled = true;
    } else if (parse_flag(argv[i], "--timeout", &value)) {
      config.failure.enabled = true;
      config.failure.call_timeout = to_double(value);
    } else if (parse_flag(argv[i], "--retries", &value)) {
      config.failure.enabled = true;
      config.failure.max_retries = to_count(value);
    } else if (parse_flag(argv[i], "--forecast", &value)) {
      ForecastKind kind = ForecastKind::kNone;
      if (!forecast_kind_from_string(value, &kind)) {
        std::fprintf(stderr,
                     "unknown forecast kind '%s' (expected none, last, ewma, "
                     "linear, holtwinters, oracle)\n",
                     value.c_str());
        return 2;
      }
      overlays.push_back([kind](Scenario& s) { s.forecast.kind = kind; });
    } else if (parse_flag(argv[i], "--forecast-season", &value)) {
      overlays.push_back(
          [n = to_count(value)](Scenario& s) { s.forecast.season = n; });
    } else if (parse_flag(argv[i], "--dump-demand", &value)) {
      config.record_demand_trace = true;
      dump_demand_path = value;
    } else if (parse_flag(argv[i], "--queue-limit", &value)) {
      overlays.push_back([n = to_count(value)](Scenario& s) {
        s.overload.queue.max_queue = n;
      });
    } else if (parse_flag(argv[i], "--deadline", &value)) {
      overlays.push_back([d = to_double(value)](Scenario& s) {
        s.overload.deadline.enabled = true;
        s.overload.deadline.default_deadline = d;
        s.overload.deadline.propagate = true;
      });
    } else if (parse_flag(argv[i], "--admit", &value)) {
      // "<class>:<rps>" caps one class, a bare "<rps>" sets the default
      // rate; either arms admission.
      const std::size_t colon = value.find(':');
      const bool per_class = colon != std::string::npos;
      const double rps = to_double(per_class ? value.substr(colon + 1) : value);
      if (!(rps > 0.0)) throw std::out_of_range(value);
      const std::string cls = per_class ? value.substr(0, colon) : "";
      overlays.push_back([per_class, cls, rps](Scenario& s) {
        AdmissionPolicy& admission = s.admission;
        admission.enabled = true;
        if (!per_class) {
          admission.default_rate = rps;
          return;
        }
        const ClassId id = s.app->find_class(cls);
        if (!id.valid()) {
          throw std::invalid_argument("--admit: unknown class '" + cls + "'");
        }
        auto& rates = admission.class_rate;
        if (rates.size() <= id.index()) rates.resize(id.index() + 1, 0.0);
        rates[id.index()] = rps;
      });
    } else if (std::strcmp(argv[i], "--contingency") == 0) {
      overlays.push_back([](Scenario& s) { s.contingency.enabled = true; });
    } else if (parse_flag(argv[i], "--contingency-cap", &value)) {
      const double cap = to_double(value);
      // The loader's `contingency cap=` range.
      if (!(cap > 0.0 && cap <= 1.0)) throw std::out_of_range(value);
      overlays.push_back([cap](Scenario& s) {
        s.contingency.enabled = true;
        s.contingency.max_post_failure_utilization = cap;
      });
    } else if (std::strcmp(argv[i], "--bilevel") == 0) {
      overlays.push_back([](Scenario& s) { s.bilevel.enabled = true; });
      config.autoscaler_enabled = true;
    } else if (parse_flag(argv[i], "--server-price", &value)) {
      const double price = to_double(value);
      if (!(price >= 0.0)) throw std::out_of_range(value);
      overlays.push_back([price](Scenario& s) {
        s.topology->set_uniform_server_price(price);
      });
    } else if (std::strcmp(argv[i], "--cdf") == 0) {
      print_cdf = true;
    } else if (parse_flag(argv[i], "--seeds", &value)) {
      seeds = to_count(value);
      if (seeds == 0) seeds = 1;
    } else if (parse_flag(argv[i], "--jobs", &value)) {
      jobs = to_count(value);
    } else if (parse_flag(argv[i], "--shards", &value)) {
      config.shards = to_count(value);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return 2;
    }
  } catch (const std::logic_error&) {
    // std::invalid_argument / std::out_of_range from a value parse.
    const std::string arg = argv[i];
    std::fprintf(stderr, "bad value for %s\n",
                 arg.substr(0, arg.find('=')).c_str());
    return 2;
  }

  Scenario scenario;
  try {
    const std::string source = argv[1];
    if (source.rfind("synth:", 0) == 0) {
      scenario = make_synth_scenario(parse_topogen_spec(source.substr(6)));
    } else {
      scenario = load_scenario_from_file(source);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[1], e.what());
    return 1;
  }
  for (const auto clear : disarms) clear(scenario);
  try {
    for (const auto& overlay : overlays) overlay(scenario);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  // Replications: seed i is derived from the base seed, and every replicate
  // is an independent grid job, so `--jobs` changes wall-clock only.
  std::vector<GridJob> grid;
  for (std::size_t i = 0; i < seeds; ++i) {
    RunConfig replicate = config;
    replicate.seed = replicate_seed(config.seed, i);
    grid.push_back({&scenario, replicate, "replicate"});
  }
  GridOptions options;
  options.jobs = jobs;
  std::vector<ExperimentResult> results;
  try {
    results = run_experiment_grid(grid, options);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "invalid run: %s\n", e.what());
    return 2;
  }
  const ExperimentResult& r = results.front();

  // Demand-trace export (first replicate): offered vs. controller-estimated
  // vs. forecast RPS per (class, cluster) control period.
  if (!dump_demand_path.empty()) {
    std::ofstream out(dump_demand_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", dump_demand_path.c_str());
      return 1;
    }
    out << "time,class,cluster,offered_rps,estimated_rps,forecast_rps\n";
    char buf[64];
    for (const DemandTracePoint& p : r.demand_trace) {
      std::snprintf(buf, sizeof buf, "%.3f,", p.time);
      out << buf
          << scenario.app->traffic_class(ClassId{p.cls}).name << ','
          << scenario.topology->cluster_name(ClusterId{p.cluster}) << ',';
      std::snprintf(buf, sizeof buf, "%.4f,%.4f,%.4f\n", p.offered_rps,
                    p.estimated_rps, p.forecast_rps);
      out << buf;
    }
    std::fprintf(stderr, "wrote %zu demand trace rows to %s\n",
                 r.demand_trace.size(), dump_demand_path.c_str());
  }

  if (seeds > 1) {
    std::vector<double> mean_ms, p99_ms, goodput, cost;
    for (const ExperimentResult& rep : results) {
      mean_ms.push_back(rep.mean_latency() * 1e3);
      p99_ms.push_back(rep.p99() * 1e3);
      goodput.push_back(rep.goodput_rps());
      cost.push_back(rep.egress_cost_dollars);
    }
    const MeanCI mean_ci = mean_ci95(mean_ms);
    const MeanCI p99_ci = mean_ci95(p99_ms);
    const MeanCI good_ci = mean_ci95(goodput);
    const MeanCI cost_ci = mean_ci95(cost);
    std::printf("scenario %s under %s: %zu replications (base seed %llu)\n",
                r.scenario.c_str(), r.policy.c_str(), seeds,
                static_cast<unsigned long long>(config.seed));
    std::printf("  mean latency  %8.2f +/- %6.2f ms   (95%% CI)\n",
                mean_ci.mean, mean_ci.ci95);
    std::printf("  p99 latency   %8.2f +/- %6.2f ms\n", p99_ci.mean,
                p99_ci.ci95);
    std::printf("  goodput       %8.1f +/- %6.1f rps\n", good_ci.mean,
                good_ci.ci95);
    std::printf("  egress cost   $%.5f +/- %.5f\n", cost_ci.mean, cost_ci.ci95);
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::printf("data,replicate,%zu,%llu,%.3f,%.3f,%.1f,%.5f\n", i,
                  static_cast<unsigned long long>(grid[i].config.seed),
                  mean_ms[i], p99_ms[i], goodput[i], cost[i]);
    }
    return 0;
  }

  std::printf("scenario %s under %s: %llu requests measured over %.0fs\n",
              r.scenario.c_str(), r.policy.c_str(),
              static_cast<unsigned long long>(r.completed), r.measured_seconds);
  std::printf("  latency  mean %.2f ms   p50 %.2f   p95 %.2f   p99 %.2f\n",
              r.mean_latency() * 1e3, r.p50() * 1e3, r.p95() * 1e3,
              r.p99() * 1e3);
  std::printf("  egress   %.2f MB ($%.5f), local bytes %.2f MB\n",
              static_cast<double>(r.egress_bytes) / (1024.0 * 1024.0),
              r.egress_cost_dollars,
              static_cast<double>(r.local_bytes) / (1024.0 * 1024.0));
  if (r.server_cost_dollars > 0.0) {
    std::printf("  servers  %.2f server-hours ($%.5f), total cost $%.5f\n",
                r.server_seconds / 3600.0, r.server_cost_dollars,
                r.total_cost_dollars());
  }
  for (ClassId k : scenario.app->all_classes()) {
    if (r.e2e_by_class[k.index()].empty()) continue;
    std::printf("  class %-12s mean %8.2f ms over %zu requests\n",
                scenario.app->traffic_class(k).name.c_str(),
                r.e2e_by_class[k.index()].mean() * 1e3,
                r.e2e_by_class[k.index()].count());
  }
  print_counters(r);
  std::printf("  %-11s error_rate=%.2f%% goodput_rps=%.1f", "derived",
              r.error_rate() * 100.0, r.goodput_rps());
  if (r.rule_delta_count > 0) {
    std::printf(" mean_rule_delta=%.3f", r.mean_rule_delta());
  }
  std::printf("\n");
  if (r.solver_solves > 0) {
    std::printf("  %-11s wall-clock mean_solve_ms=%.2f\n", "derived",
                r.mean_solve_seconds() * 1e3);
  }
  // Per-class SLO attainment under front-door admission.
  for (ClassId k : scenario.app->all_classes()) {
    const std::size_t i = k.index();
    if (r.admission_admitted_by_class[i] + r.admission_rejected_by_class[i] ==
        0) {
      continue;
    }
    const std::size_t done = r.e2e_by_class[i].count();
    std::printf("  class %-12s SLO attainment %.1f%%, goodput %.1f rps\n",
                scenario.app->traffic_class(k).name.c_str(),
                done > 0 ? 100.0 * static_cast<double>(r.slo_hits_by_class[i]) /
                               static_cast<double>(done)
                         : 0.0,
                r.measured_seconds > 0.0
                    ? static_cast<double>(done) / r.measured_seconds
                    : 0.0);
  }
  if (print_cdf) {
    std::printf("\n  %-8s %12s\n", "quantile", "latency_ms");
    for (int i = 0; i <= 20; ++i) {
      const double q = i / 20.0;
      std::printf("  %-8.2f %12.3f\n", q, r.e2e.quantile(q) * 1e3);
    }
  }
  return 0;
}

// Microbenchmark of the simulation engine's hot path.
//
// Runs representative end-to-end scenarios and reports raw engine
// throughput (simulator events per wall-clock second) and allocation
// pressure (heap allocations per simulated request / per event) via a
// counting global operator new. Emits BENCH_simulator.json so the perf
// trajectory is tracked from PR to PR:
//
//   $ ./bench/micro_simulator [output.json]
//
// The routing execution logic "should be simple and heavily optimized since
// it is in the critical path of request processing" (paper §3.1) — this is
// the bench that keeps the engine honest about it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench_util.h"
#include "net/gcp_topology.h"
#include "runtime/scenarios.h"
#include "topogen/topogen.h"
#include "workload/generators.h"

// --- Counting allocator hook ------------------------------------------------
//
// Global replacement of operator new/delete for this binary only. Relaxed
// atomics: the engine under test is single-threaded; the counter only needs
// to not tear.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace slate;

namespace {

struct Case {
  const char* name;
  Scenario scenario;
  RunConfig config;
};

struct Measurement {
  const char* name;
  const char* policy;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t requests = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;

  [[nodiscard]] double events_per_sec() const {
    return wall_ms > 0.0 ? static_cast<double>(events) / (wall_ms / 1e3) : 0.0;
  }
  [[nodiscard]] double allocs_per_request() const {
    return requests > 0
               ? static_cast<double>(allocs) / static_cast<double>(requests)
               : 0.0;
  }
  [[nodiscard]] double allocs_per_event() const {
    return events > 0
               ? static_cast<double>(allocs) / static_cast<double>(events)
               : 0.0;
  }
};

// Measured passes per case; the reported row is the pass with the median
// wall time (a full Measurement from one real pass, so events/allocs stay
// mutually consistent — no cross-pass averaging).
constexpr int kRepeats = 5;

Measurement run_case(const char* name, const Scenario& scenario,
                     const RunConfig& config) {
  // Warm the scenario once (first-touch allocations: model fitting, rule
  // tables, station setup) so the measured passes reflect steady state.
  {
    RunConfig warm = config;
    warm.duration = std::min(config.duration, config.warmup + 2.0);
    (void)run_experiment(scenario, warm);
  }

  std::vector<Measurement> passes;
  passes.reserve(kRepeats);
  for (int i = 0; i < kRepeats; ++i) {
    const std::uint64_t alloc0 = g_alloc_count.load(std::memory_order_relaxed);
    const std::uint64_t bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    const ExperimentResult r = run_experiment(scenario, config);
    const auto t1 = std::chrono::steady_clock::now();

    Measurement m;
    m.name = name;
    m.policy = to_string(config.policy);
    m.wall_ms = std::chrono::duration_cast<
                    std::chrono::duration<double, std::milli>>(t1 - t0)
                    .count();
    m.events = r.sim_events;
    m.requests = r.generated;
    m.allocs = g_alloc_count.load(std::memory_order_relaxed) - alloc0;
    m.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed) - bytes0;
    passes.push_back(m);
  }
  std::sort(passes.begin(), passes.end(),
            [](const Measurement& a, const Measurement& b) {
              return a.wall_ms < b.wall_ms;
            });
  return passes[passes.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("Micro", "simulator hot path: events/sec, allocs/request");

  RunConfig config;
  config.duration = 30.0;
  config.warmup = 5.0;
  config.seed = 7;

  std::vector<Measurement> rows;

  {
    TwoClusterChainParams params;
    params.west_rps = 800.0;
    params.east_rps = 100.0;
    const Scenario scenario = make_two_cluster_chain_scenario(params);
    for (PolicyKind policy : {PolicyKind::kWaterfall, PolicyKind::kSlate}) {
      RunConfig c = config;
      c.policy = policy;
      rows.push_back(run_case("chain-2c", scenario, c));
    }
    // Failure semantics exercise the retry/timeout machinery on the same
    // scenario (its allocation profile differs from the fair-weather path).
    RunConfig c = config;
    c.policy = PolicyKind::kSlate;
    c.failure.enabled = true;
    c.failure.call_timeout = 0.5;
    rows.push_back(run_case("chain-2c-failure", scenario, c));
    // Full overload stack armed (bounded queues + CoDel, deadline
    // propagation, breakers): the gates sit on every submit/dispatch, so
    // this run prices the per-event overhead of the protection machinery.
    Scenario overloaded = scenario;
    overloaded.overload.queue.max_queue = 64;
    overloaded.overload.queue.codel_target = 0.02;
    overloaded.overload.deadline.enabled = true;
    overloaded.overload.deadline.default_deadline = 0.5;
    overloaded.overload.breaker.enabled = true;
    rows.push_back(run_case("chain-2c-overload", overloaded, c));
    // Front-door admission on top of the overload stack, with buckets
    // sized above the offered load: every arrival pays the token-bucket
    // gate and the adaptation loop retunes each control period, but
    // nothing sheds — this prices the gate itself, not the rejections.
    Scenario admitted = overloaded;
    admitted.admission.enabled = true;
    admitted.admission.default_rate = 900.0;
    rows.push_back(run_case("chain-2c-admission", admitted, c));
    // N-1 headroom armed: every control period pays one simulated reroute
    // per cluster (plus padded re-solves when the margin overflows) — this
    // run prices the contingency check on top of the control loop
    // (docs/resilience.md).
    Scenario n1 = scenario;
    n1.contingency.enabled = true;
    RunConfig slate_config = config;
    slate_config.policy = PolicyKind::kSlate;
    rows.push_back(run_case("chain-2c-contingency", n1, slate_config));
    // Bi-level co-design armed on a priced copy: every control period the
    // coordinator builds the effective-capacity overlay, the LP carries
    // the server-cost term, and the plan pushes back down to the
    // autoscalers — this run prices the full autoscaling x TE loop
    // (docs/autoscaling.md).
    Scenario priced = make_two_cluster_chain_scenario(params);
    priced.topology->set_uniform_server_price(0.10);
    priced.bilevel.enabled = true;
    RunConfig bl = slate_config;
    bl.autoscaler_enabled = true;
    bl.autoscaler.evaluation_period = 1.0;
    rows.push_back(run_case("chain-2c-bilevel", priced, bl));
    // Forecast armed on time-varying demand: the piecewise generator steps
    // churn arrival rates every 0.5 s and the Holt-Winters per-cell
    // forecasters + rolling backtest score every control period — this run
    // prices the full predictive pipeline on top of the engine hot path.
    Scenario diurnal = make_two_cluster_chain_scenario(params);
    diurnal.demand = DemandSchedule{};
    DiurnalSpec west;
    west.base = 450.0;
    west.amplitude = 350.0;
    west.period = 10.0;
    west.end = config.duration + west.period;
    west.step = 0.5;
    DiurnalSpec east = west;
    east.phase = west.period / 2.0;
    add_diurnal(diurnal.demand, ClassId{0}, ClusterId{0}, west);
    add_diurnal(diurnal.demand, ClassId{0}, ClusterId{1}, east);
    RunConfig f = slate_config;
    f.control_period = 1.0;
    diurnal.forecast.kind = ForecastKind::kHoltWinters;
    diurnal.forecast.season =
        static_cast<std::size_t>(west.period / f.control_period);
    rows.push_back(run_case("chain-2c-forecast", diurnal, f));
  }
  {
    Scenario scenario = make_uniform_scenario(
        "social-network", make_social_network_app(), make_gcp_topology(), 2);
    const Application& app = *scenario.app;
    const ClassId read = app.find_class("read-timeline");
    const ClassId write = app.find_class("write-post");
    const ClassId profile = app.find_class("view-profile");
    for (std::size_t c = 0; c < 4; ++c) {
      scenario.demand.set_rate(read, ClusterId{c}, c == 0 ? 700.0 : 80.0);
      scenario.demand.set_rate(write, ClusterId{c}, c == 0 ? 140.0 : 20.0);
      scenario.demand.set_rate(profile, ClusterId{c}, c == 0 ? 220.0 : 40.0);
    }
    RunConfig c = config;
    c.policy = PolicyKind::kSlate;
    rows.push_back(run_case("social-gcp", scenario, c));
    // The same world partitioned by latency island: one event loop per
    // island, conservative lookahead from the inter-island RTT floor, and
    // the resolve_tolerance gate armed (steady demand should not re-solve
    // every period; the floor keeps sub-128-RPS Poisson noise from forcing
    // one). This is the production configuration for large steady runs.
    RunConfig s = c;
    s.shards = 8;
    s.slate.resolve_tolerance = 0.15;
    s.slate.resolve_floor_rps = 128.0;
    rows.push_back(run_case("social-gcp-sharded", scenario, s));
  }
  {
    // Planet-scale synthetic world (docs/scenario_format.md §topology-synth):
    // 30 clusters x 200 services, sharded. Prices the engine at the paper's
    // motivating scale rather than the hand-written 4-cluster scenarios.
    const Scenario scenario = make_synth_scenario(
        parse_topogen_spec("clusters=30,services=200,seed=11"));
    RunConfig c = config;
    c.policy = PolicyKind::kSlate;
    c.duration = 10.0;
    c.warmup = 2.0;
    c.shards = 8;
    c.slate.resolve_tolerance = 0.15;
    c.slate.resolve_floor_rps = 128.0;
    rows.push_back(run_case("synth-30x200", scenario, c));
  }

  std::printf("%-18s %-12s %10s %12s %14s %12s %12s\n", "case", "policy",
              "wall_ms", "events", "events/sec", "allocs/req", "allocs/evt");
  double total_events = 0.0, total_wall = 0.0;
  for (const Measurement& m : rows) {
    std::printf("%-18s %-12s %10.1f %12llu %14.0f %12.2f %12.3f\n", m.name,
                m.policy, m.wall_ms, static_cast<unsigned long long>(m.events),
                m.events_per_sec(), m.allocs_per_request(), m.allocs_per_event());
    std::printf("data,micro,%s,%s,%.2f,%llu,%.0f,%.3f,%.4f\n", m.name, m.policy,
                m.wall_ms, static_cast<unsigned long long>(m.events),
                m.events_per_sec(), m.allocs_per_request(), m.allocs_per_event());
    total_events += static_cast<double>(m.events);
    total_wall += m.wall_ms;
  }
  std::printf("\naggregate: %.0f events/sec over %.0f ms of engine time\n",
              total_wall > 0 ? total_events / (total_wall / 1e3) : 0.0,
              total_wall);

  // JSON baseline (BENCH_simulator.json at the repo root tracks this).
  bench::JsonWriter json;
  json.begin_object();
  json.field("bench", "micro_simulator");
  json.field("duration_s", config.duration);
  json.field("seed", config.seed);
  json.field("repeats", kRepeats);
  json.begin_array("runs");
  for (const Measurement& m : rows) {
    json.begin_object();
    json.field("case", m.name);
    json.field("policy", m.policy);
    json.field("wall_ms", m.wall_ms);
    json.field("events", m.events);
    json.field("requests", m.requests);
    json.field("events_per_sec", m.events_per_sec());
    json.field("allocs", m.allocs);
    json.field("alloc_bytes", m.alloc_bytes);
    json.field("allocs_per_request", m.allocs_per_request());
    json.field("allocs_per_event", m.allocs_per_event());
    json.end_object();
  }
  json.end_array();
  json.end_object();

  const char* out = argc > 1 ? argv[1] : "BENCH_simulator.json";
  if (json.write_file(out)) {
    std::printf("wrote %s\n", out);
  } else {
    std::fprintf(stderr, "failed to write %s\n", out);
    return 1;
  }
  return 0;
}

// Randomized end-to-end property tests.
//
// Generates random worlds — topology size/latencies, call-tree shapes,
// partial replication, demand mixes — runs each policy briefly, and checks
// the invariants that must hold regardless of configuration:
//   * the run completes (no crash, no stuck simulation);
//   * requests are conserved (completed <= generated; flows consistent);
//   * routing never targets an undeployed station (the engine throws);
//   * measured quantiles are ordered and finite;
//   * egress bytes appear iff some call crossed clusters;
//   * identical seeds reproduce identical results.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "guard/report_validator.h"
#include "net/gcp_topology.h"
#include "result_checks.h"
#include "runtime/parallel.h"
#include "runtime/scenario_loader.h"
#include "runtime/scenarios.h"
#include "runtime/simulation.h"
#include "util/strfmt.h"
#include "workload/generators.h"

namespace slate {
namespace {

// Random application: tree of up to `max_services` services, 1-3 classes
// with varying compute and sizes.
Application random_app(Rng& rng) {
  Application app;
  const std::size_t services = 2 + rng.uniform_u64(5);
  for (std::size_t s = 0; s < services; ++s) {
    app.add_service(strfmt("svc-%zu", s));
  }
  const std::size_t classes = 1 + rng.uniform_u64(3);
  for (std::size_t k = 0; k < classes; ++k) {
    TrafficClassSpec spec;
    spec.name = strfmt("class-%zu", k);
    spec.attributes.path = strfmt("/api/%zu", k);
    // Random tree: each node's parent is a previously created node.
    const std::size_t nodes = 1 + rng.uniform_u64(services);
    spec.graph.set_root(ServiceId{0}, rng.uniform(0.1e-3, 3e-3),
                        64 + rng.uniform_u64(4096),
                        64 + rng.uniform_u64(16384));
    for (std::size_t n = 1; n < nodes; ++n) {
      const std::size_t parent = rng.uniform_u64(n);
      const ServiceId service{1 + rng.uniform_u64(services - 1)};
      const std::size_t node = spec.graph.add_call(
          parent, service, rng.uniform(0.1e-3, 4e-3),
          64 + rng.uniform_u64(4096), 64 + rng.uniform_u64(16384),
          rng.bernoulli(0.2) ? 0.5 : 1.0);
      if (rng.bernoulli(0.3)) {
        spec.graph.set_invocation_mode(node, InvocationMode::kParallel);
      }
    }
    app.add_class(std::move(spec));
  }
  app.validate();
  return app;
}

Scenario random_scenario(std::uint64_t seed) {
  Rng rng(seed);
  Scenario scenario;
  scenario.name = strfmt("fuzz-%llu", static_cast<unsigned long long>(seed));
  scenario.app = std::make_unique<Application>(random_app(rng));

  const std::size_t clusters = 2 + rng.uniform_u64(3);
  scenario.topology = std::make_unique<Topology>();
  for (std::size_t c = 0; c < clusters; ++c) {
    scenario.topology->add_cluster(strfmt("c%zu", c));
  }
  for (std::size_t a = 0; a < clusters; ++a) {
    for (std::size_t b = a + 1; b < clusters; ++b) {
      scenario.topology->set_rtt(ClusterId{a}, ClusterId{b},
                                 rng.uniform(2e-3, 80e-3));
    }
  }
  scenario.topology->set_uniform_egress_price(rng.uniform(0.01, 0.15));
  if (rng.bernoulli(0.4)) scenario.topology->set_jitter_fraction(0.1);

  scenario.deployment = std::make_unique<Deployment>(*scenario.app, clusters);
  for (ServiceId s : scenario.app->all_services()) {
    // Deploy in a random non-empty subset of clusters; the entry service of
    // every class must exist somewhere (guaranteed: non-empty subset).
    bool any = false;
    for (std::size_t c = 0; c < clusters; ++c) {
      if (rng.bernoulli(0.7)) {
        scenario.deployment->deploy(s, ClusterId{c}, 1 + rng.uniform_u64(3),
                                    rng.uniform(100.0, 900.0));
        any = true;
      }
    }
    if (!any) {
      scenario.deployment->deploy(s, ClusterId{rng.uniform_u64(clusters)},
                                  1 + rng.uniform_u64(3),
                                  rng.uniform(100.0, 900.0));
    }
  }
  scenario.deployment->validate();

  for (ClassId k : scenario.app->all_classes()) {
    for (std::size_t c = 0; c < clusters; ++c) {
      if (rng.bernoulli(0.6)) {
        scenario.demand.set_rate(k, ClusterId{c}, rng.uniform(10.0, 300.0));
      }
    }
  }
  return scenario;
}

// Random fault schedule over the world: 1-4 faults of any kind, windows
// landing anywhere in (or straddling) a `duration`-second run.
void add_random_faults(FaultPlan& plan, Rng& rng, std::size_t clusters,
                       std::size_t services, double duration) {
  const std::size_t n = 1 + rng.uniform_u64(4);
  for (std::size_t i = 0; i < n; ++i) {
    const double start = rng.uniform(0.0, duration);
    const double len = rng.uniform(0.5, duration / 2.0);
    const ClusterId a{rng.uniform_u64(clusters)};
    switch (rng.uniform_u64(5)) {
      case 0:
        plan.cluster_outage(a, start, len);
        break;
      case 1:
        plan.telemetry_blackout(a, start, len);
        break;
      case 2:
        plan.service_slowdown(ServiceId{rng.uniform_u64(services)},
                              rng.bernoulli(0.5) ? a : ClusterId{}, start, len,
                              rng.uniform(1.5, 20.0));
        break;
      default: {
        ClusterId b{(a.index() + 1 + rng.uniform_u64(clusters - 1)) % clusters};
        if (rng.bernoulli(0.3)) {
          plan.link_partition(a, b, start, len);
        } else {
          plan.link_degradation(a, b, start, len, rng.uniform(1.5, 10.0),
                                rng.uniform(0.0, 0.05));
        }
        break;
      }
    }
  }
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, AllPoliciesSatisfyInvariants) {
  const auto seed = static_cast<std::uint64_t>(7000 + GetParam());
  const Scenario scenario = random_scenario(seed);

  for (PolicyKind policy :
       {PolicyKind::kLocalityFailover, PolicyKind::kRoundRobin,
        PolicyKind::kWaterfall, PolicyKind::kSlate}) {
    SCOPED_TRACE(to_string(policy));
    RunConfig config;
    config.policy = policy;
    config.duration = 12.0;
    config.warmup = 4.0;
    config.seed = seed;
    const ExperimentResult r = run_experiment(scenario, config);

    // Conservation & basic sanity.
    EXPECT_LE(r.completed, r.generated);
    if (scenario.demand.total_rate_at(0.0) > 0.0) {
      EXPECT_GT(r.generated, 0u);
    }
    if (r.completed > 0) {
      EXPECT_GT(r.mean_latency(), 0.0);
      EXPECT_TRUE(std::isfinite(r.p99()));
      EXPECT_LE(r.p50(), r.p95() + 1e-12);
      EXPECT_LE(r.p95(), r.p99() + 1e-12);
    }

    // Flows only between valid clusters; egress consistent with flows.
    std::uint64_t cross_calls = 0;
    for (const auto& per_class : r.flows) {
      for (const auto& m : per_class) {
        for (std::size_t i = 0; i < m.rows(); ++i) {
          for (std::size_t j = 0; j < m.cols(); ++j) {
            if (i != j) cross_calls += m(i, j);
          }
        }
      }
    }
    if (cross_calls == 0) {
      EXPECT_EQ(r.egress_bytes, 0u);
    } else {
      EXPECT_GT(r.egress_bytes, 0u);
    }

    // Station utilization entries are -1 (not deployed) or within [0, ~1.5]
    // (transient shrink overshoot allowed).
    for (double u : r.station_utilization) {
      EXPECT_TRUE(u == -1.0 || (u >= 0.0 && u < 2.0)) << u;
    }
  }
}

TEST_P(FuzzTest, DeterministicAcrossRuns) {
  const auto seed = static_cast<std::uint64_t>(9000 + GetParam());
  const Scenario scenario = random_scenario(seed);
  RunConfig config;
  config.policy = PolicyKind::kSlate;
  config.duration = 8.0;
  config.warmup = 2.0;
  config.seed = seed;
  const ExperimentResult a = run_experiment(scenario, config);
  expect_same_result(a, run_experiment(scenario, config));
}

TEST_P(FuzzTest, FaultedRunsSatisfyInvariantsAndDeterminism) {
  const auto seed = static_cast<std::uint64_t>(11000 + GetParam());
  Scenario scenario = random_scenario(seed);
  Rng rng(seed ^ 0xfau);
  add_random_faults(scenario.faults, rng, scenario.topology->cluster_count(),
                    scenario.app->service_count(), 12.0);

  for (PolicyKind policy : {PolicyKind::kLocalityFailover, PolicyKind::kSlate}) {
    SCOPED_TRACE(to_string(policy));
    RunConfig config;
    config.policy = policy;
    config.duration = 12.0;
    config.warmup = 4.0;
    config.seed = seed;
    config.timeseries_bucket = 1.0;
    // Half the runs get the full timeout/retry machinery.
    config.failure.enabled = rng.bernoulli(0.5);

    const ExperimentResult a = run_experiment(scenario, config);
    // Repeat first: the p99() checks below sort a.e2e in place.
    expect_same_result(a, run_experiment(scenario, config));
    // Conservation: every measured finish is a success or an error, and the
    // whole-run series can't exceed the arrivals.
    EXPECT_LE(a.completed, a.generated);
    std::uint64_t series_total = 0;
    for (std::size_t i = 0; i < a.completed_series.size(); ++i) {
      series_total += a.completed_series[i] + a.failed_series[i];
    }
    EXPECT_LE(series_total, a.generated);
    if (a.completed > 0) {
      EXPECT_TRUE(std::isfinite(a.p99()));
      EXPECT_LE(a.p50(), a.p99() + 1e-12);
    }
  }
}

// Random fault directive lines through the text loader: every line either
// parses into a plan entry or is rejected with a line-numbered error —
// never a crash, never a silently half-applied fault.
TEST_P(FuzzTest, FaultDirectivesParseOrFailCleanly) {
  const auto seed = static_cast<std::uint64_t>(13000 + GetParam());
  Rng rng(seed);
  const std::string base =
      "cluster west\ncluster east\nrtt west east 20ms\n"
      "service s\nclass k\ncall k root s compute=1ms\n"
      "deploy * * servers=1 capacity=200\ndemand k west 50\n";

  auto token = [&](std::initializer_list<const char*> options) {
    auto it = options.begin();
    std::advance(it, rng.uniform_u64(options.size()));
    return std::string(*it);
  };
  for (int line = 0; line < 24; ++line) {
    std::string directive =
        "fault " + token({"outage", "blackout", "slowdown", "link", "rain"});
    const std::size_t extras = rng.uniform_u64(5);
    for (std::size_t i = 0; i < extras; ++i) {
      directive += " " + token({"west", "east", "s", "*", "@1s", "@-3s", "2s",
                                "0s", "factor=2", "factor=x", "extra=5ms",
                                "partition", "bogus"});
    }
    const std::string text = base + directive + "\n";
    try {
      const Scenario s = load_scenario_from_string(text);
      EXPECT_EQ(s.faults.size(), 1u) << directive;
      s.faults.validate(s.topology->cluster_count(), s.app->service_count());
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 9"), std::string::npos)
          << directive << " -> " << e.what();
    }
  }
}

// Random but valid overload-control configuration.
OverloadPolicy random_overload(Rng& rng, std::size_t classes) {
  OverloadPolicy p;
  if (rng.bernoulli(0.7)) {
    p.queue.max_queue = 1 + rng.uniform_u64(128);
    p.queue.priority_shedding = rng.bernoulli(0.5);
  }
  if (rng.bernoulli(0.4)) {
    p.queue.codel_target = rng.uniform(0.005, 0.05);
    p.queue.codel_interval = rng.uniform(0.02, 0.2);
  }
  if (rng.bernoulli(0.7)) {
    p.deadline.enabled = true;
    p.deadline.default_deadline = rng.uniform(0.05, 1.0);
    p.deadline.propagate = rng.bernoulli(0.7);
    for (std::size_t k = 0; k < classes; ++k) {
      if (rng.bernoulli(0.3)) {
        p.deadline.per_class.resize(classes, 0.0);
        p.deadline.per_class[k] = rng.uniform(0.05, 2.0);
      }
    }
  }
  for (std::size_t k = 0; k < classes; ++k) {
    if (rng.bernoulli(0.3)) {
      p.queue.class_priority.resize(classes, 0);
      p.queue.class_priority[k] = static_cast<int>(rng.uniform_u64(10)) - 3;
    }
  }
  if (rng.bernoulli(0.5)) {
    p.breaker.enabled = true;
    p.breaker.window = rng.uniform(1.0, 8.0);
    p.breaker.min_volume = 5 + rng.uniform_u64(40);
    p.breaker.failure_ratio = rng.uniform(0.2, 1.0);
    p.breaker.ejection_base = rng.uniform(1.0, 5.0);
    p.breaker.max_ejection = 30.0;
    p.breaker.half_open_probes = 1 + rng.uniform_u64(5);
  }
  return p;
}

// Overload control interleaved with random faults: the run must neither
// crash nor leak jobs. Conservation — every job a station admitted is
// served, cancelled, evicted, or still in flight at run end; everything
// else was shed at the door — plus seed determinism with the whole
// subsystem active.
TEST_P(FuzzTest, OverloadRunsSatisfyConservationAndDeterminism) {
  const auto seed = static_cast<std::uint64_t>(15000 + GetParam());
  Scenario scenario = random_scenario(seed);
  Rng rng(seed ^ 0x0eu);
  if (rng.bernoulli(0.6)) {
    add_random_faults(scenario.faults, rng, scenario.topology->cluster_count(),
                      scenario.app->service_count(), 12.0);
  }

  for (PolicyKind policy : {PolicyKind::kLocalityFailover, PolicyKind::kSlate}) {
    SCOPED_TRACE(to_string(policy));
    RunConfig config;
    config.policy = policy;
    config.duration = 12.0;
    config.warmup = 4.0;
    config.seed = seed;
    config.failure.enabled = rng.bernoulli(0.7);
    scenario.overload = random_overload(rng, scenario.app->class_count());

    const ExperimentResult a = run_experiment(scenario, config);
    // Repeat first: the p99() checks below sort a.e2e in place.
    expect_same_result(a, run_experiment(scenario, config));
    expect_conserved(a, /*admission_armed=*/false);
    EXPECT_EQ(a.jobs_evicted, a.shed_evictions);
    EXPECT_GE(a.jobs_shed, a.shed_queue_full + a.shed_queue_delay);
    EXPECT_LE(a.completed, a.generated);
    if (a.completed > 0) {
      EXPECT_TRUE(std::isfinite(a.p99()));
    }
    // Wasted server time requires deadlines carried without propagation.
    if (!a.generated || !scenario.overload.deadline.enabled ||
        scenario.overload.deadline.propagate) {
      EXPECT_EQ(a.wasted_server_seconds, 0.0);
    }
  }
}

// Random overload directive lines through the text loader: like the fault
// fuzz — parse into policy state or fail with a line-numbered error.
TEST_P(FuzzTest, OverloadDirectivesParseOrFailCleanly) {
  const auto seed = static_cast<std::uint64_t>(17000 + GetParam());
  Rng rng(seed);
  const std::string base =
      "cluster west\ncluster east\nrtt west east 20ms\n"
      "service s\nclass k\ncall k root s compute=1ms\n"
      "deploy * * servers=1 capacity=200\ndemand k west 50\n";

  auto token = [&](std::initializer_list<const char*> options) {
    auto it = options.begin();
    std::advance(it, rng.uniform_u64(options.size()));
    return std::string(*it);
  };
  for (int line = 0; line < 24; ++line) {
    std::string directive =
        "overload " + token({"queue", "deadline", "priority", "breaker",
                             "meteor"});
    const std::size_t extras = rng.uniform_u64(5);
    for (std::size_t i = 0; i < extras; ++i) {
      directive += " " + token({"k", "s", "500ms", "-1s", "0s", "limit=32",
                                "limit=-4", "limit=x", "codel_target=10ms",
                                "priority_shedding=on", "propagate=off",
                                "propagate=41", "window=5s", "ratio=0.5",
                                "ratio=7", "min_volume=10", "probes=0",
                                "eject=5s", "7", "1.5", "bogus=1"});
    }
    const std::string text = base + directive + "\n";
    try {
      const Scenario s = load_scenario_from_string(text);
      // Whatever parsed must be a coherent policy for this world.
      s.overload.validate(s.app->class_count());
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 9"), std::string::npos)
          << directive << " -> " << e.what();
    }
  }
}

// Random but valid front-door admission configuration.
AdmissionPolicy random_admission(Rng& rng, std::size_t classes) {
  AdmissionPolicy p;
  p.enabled = true;
  p.default_rate = rng.uniform(20.0, 600.0);
  p.burst = rng.uniform(0.05, 2.0);
  p.default_slo = rng.uniform(0.05, 2.0);
  p.adapt = rng.bernoulli(0.8);
  p.target_attainment = rng.uniform(0.5, 1.0);
  p.gain = rng.uniform(0.05, 0.9);
  p.headroom = 1.0 + rng.uniform(0.0, 0.5);
  p.fair_floor = rng.uniform(0.0, 0.5);
  p.evidence = rng.uniform(5.0, 200.0);
  p.min_rate = rng.uniform(0.5, 5.0);
  p.max_rate = rng.uniform(1e3, 1e6);
  for (std::size_t k = 0; k < classes; ++k) {
    if (rng.bernoulli(0.3)) {
      p.class_rate.resize(classes, 0.0);
      p.class_rate[k] = rng.uniform(10.0, 400.0);
    }
    if (rng.bernoulli(0.3)) {
      p.class_slo.resize(classes, 0.0);
      p.class_slo[k] = rng.uniform(0.05, 2.0);
    }
  }
  return p;
}

// Front-door admission interleaved with random faults and random mid-tree
// overload control: the gate's conservation law (every generated request
// is either admitted or rejected at the door, per class and in total)
// must hold under any interleaving, and the whole stack stays
// bit-deterministic for a fixed seed.
TEST_P(FuzzTest, AdmissionRunsSatisfyConservationAndDeterminism) {
  const auto seed = static_cast<std::uint64_t>(27000 + GetParam());
  Scenario scenario = random_scenario(seed);
  Rng rng(seed ^ 0xadu);
  if (rng.bernoulli(0.5)) {
    add_random_faults(scenario.faults, rng, scenario.topology->cluster_count(),
                      scenario.app->service_count(), 12.0);
  }

  for (PolicyKind policy : {PolicyKind::kLocalityFailover, PolicyKind::kSlate}) {
    SCOPED_TRACE(to_string(policy));
    RunConfig config;
    config.policy = policy;
    config.duration = 12.0;
    config.warmup = 4.0;
    config.seed = seed;
    config.failure.enabled = rng.bernoulli(0.5);
    Scenario armed = scenario;
    armed.admission = random_admission(rng, scenario.app->class_count());
    if (rng.bernoulli(0.5)) {
      armed.overload = random_overload(rng, scenario.app->class_count());
    }

    const ExperimentResult a = run_experiment(armed, config);
    // Repeat first: the p99() checks below sort a.e2e in place.
    expect_same_result(a, run_experiment(armed, config));
    // Door conservation: every arrival is admitted or rejected, per class
    // and in total, and only admitted requests reach the engine; mid-tree
    // job conservation is unaffected by the door.
    expect_conserved(a, /*admission_armed=*/true);
    std::uint64_t admitted_by_class = 0;
    std::uint64_t rejected_by_class = 0;
    for (const std::uint64_t v : a.admission_admitted_by_class) {
      admitted_by_class += v;
    }
    for (const std::uint64_t v : a.admission_rejected_by_class) {
      rejected_by_class += v;
    }
    EXPECT_EQ(admitted_by_class, a.admission_admitted);
    EXPECT_EQ(rejected_by_class, a.admission_rejected);
    EXPECT_LE(a.completed, a.admission_admitted);
    if (!armed.admission.adapt) {
      EXPECT_EQ(a.admission_rate_raises, 0u);
      EXPECT_EQ(a.admission_rate_cuts, 0u);
    }
    if (a.completed > 0) {
      EXPECT_TRUE(std::isfinite(a.p99()));
    }
  }
}

// Random admission directive lines through the text loader: parse into a
// policy that validates, or fail with a line-numbered error.
TEST_P(FuzzTest, AdmissionDirectivesParseOrFailCleanly) {
  const auto seed = static_cast<std::uint64_t>(29000 + GetParam());
  Rng rng(seed);
  const std::string base =
      "cluster west\ncluster east\nrtt west east 20ms\n"
      "service s\nclass k\ncall k root s compute=1ms\n"
      "deploy * * servers=1 capacity=200\ndemand k west 50\n";

  auto token = [&](std::initializer_list<const char*> options) {
    auto it = options.begin();
    std::advance(it, rng.uniform_u64(options.size()));
    return std::string(*it);
  };
  for (int line = 0; line < 24; ++line) {
    std::string directive = "admission";
    if (rng.bernoulli(0.3)) {
      directive += " class " + token({"k", "nope"});
      const std::size_t extras = rng.uniform_u64(3);
      for (std::size_t i = 0; i < extras; ++i) {
        directive += " " + token({"rate=120", "rate=-5", "rate=x",
                                  "slo=250ms", "slo=0s", "burst=1s",
                                  "bogus=1"});
      }
    } else {
      const std::size_t extras = rng.uniform_u64(6);
      directive += " " + token({"rate=450", "rate=0", "rate=x"});
      for (std::size_t i = 0; i < extras; ++i) {
        directive +=
            " " + token({"burst=200ms", "burst=0s", "slo=500ms",
                         "attainment=0.9", "attainment=2", "gain=0.5",
                         "gain=1", "headroom=1.25", "headroom=0.5",
                         "fair_floor=0.2", "fair_floor=1.5", "evidence=50",
                         "evidence=0", "min_rate=1", "max_rate=1e6",
                         "max_rate=0.5", "adapt=on", "adapt=off",
                         "adapt=maybe", "bogus=1", "7"});
      }
    }
    const std::string text = base + directive + "\n";
    try {
      const Scenario s = load_scenario_from_string(text);
      // Whatever parsed must be a coherent policy for this world.
      s.admission.validate(s.app->class_count());
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 9"), std::string::npos)
          << directive << " -> " << e.what();
    } catch (const std::invalid_argument& e) {
      ADD_FAILURE() << "parsed but invalid: " << directive << " -> "
                    << e.what();
    }
  }
}

// --- Corrupted-report fuzzing (control-plane hardening) ---------------------

// Poisons random fields of a report the way a byzantine reporter would:
// NaN/Inf/negative values, implausible magnitudes, permuted or out-of-range
// class/service indices, wrong-sized per-class vectors.
void poison_report(ClusterReport& report, Rng& rng) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto poison = [&](double& v) {
    switch (rng.uniform_u64(6)) {
      case 0: v = kNaN; break;
      case 1: v = kInf; break;
      case 2: v = -std::abs(v) - 1.0; break;
      case 3: v *= 1e9; break;
      case 4: v = 0.0; break;
      default: v *= rng.uniform(0.0, 100.0); break;
    }
  };
  for (double& v : report.ingress_rps) {
    if (rng.bernoulli(0.5)) poison(v);
  }
  for (auto& m : report.request_metrics) {
    if (rng.bernoulli(0.3)) poison(m.mean_latency);
    if (rng.bernoulli(0.3)) poison(m.completion_rps);
    if (rng.bernoulli(0.3)) poison(m.mean_service_time);
    if (rng.bernoulli(0.2)) m.cls = ClassId{rng.uniform_u64(64)};
    if (rng.bernoulli(0.2)) m.service = ServiceId{rng.uniform_u64(64)};
  }
  for (auto& sm : report.station_metrics) {
    if (rng.bernoulli(0.3)) poison(sm.utilization);
    if (rng.bernoulli(0.2)) sm.service = ServiceId{rng.uniform_u64(64)};
  }
  for (auto& e : report.e2e) {
    if (rng.bernoulli(0.3)) poison(e.mean_latency);
    if (rng.bernoulli(0.3)) poison(e.p99_latency);
  }
  if (rng.bernoulli(0.2)) {
    report.ingress_rps.resize(rng.uniform_u64(8), 50.0);
  }
  if (rng.bernoulli(0.1)) report.cluster = ClusterId{rng.uniform_u64(64)};
}

// The validator must block every poisoned field: after admit(), nothing
// non-finite, negative, implausible, or out-of-range survives in the
// report, regardless of the corruption drawn.
TEST_P(FuzzTest, ValidatorBlocksEveryPoisonedField) {
  const auto seed = static_cast<std::uint64_t>(19000 + GetParam());
  Rng rng(seed);
  const std::size_t services = 1 + rng.uniform_u64(5);
  const std::size_t classes = 1 + rng.uniform_u64(3);
  const std::size_t clusters = 2 + rng.uniform_u64(3);
  AdmissionOptions options;
  options.enabled = true;
  ReportValidator validator(services, classes, clusters, options);

  for (int round = 0; round < 200; ++round) {
    ClusterReport report;
    report.cluster = ClusterId{rng.uniform_u64(clusters)};
    report.period_start = round;
    report.period_end = round + 1.0;
    report.ingress_rps.assign(classes, rng.uniform(10.0, 500.0));
    for (std::size_t s = 0; s < services; ++s) {
      ServiceClassMetrics m;
      m.service = ServiceId{s};
      m.cls = ClassId{rng.uniform_u64(classes)};
      m.completed = 50;
      m.completion_rps = rng.uniform(10.0, 400.0);
      m.mean_latency = rng.uniform(1e-3, 50e-3);
      m.max_latency = m.mean_latency * 2.0;
      m.mean_service_time = rng.uniform(1e-3, 10e-3);
      report.request_metrics.push_back(m);
      StationMetrics sm;
      sm.service = ServiceId{s};
      sm.servers = 1 + static_cast<unsigned>(rng.uniform_u64(4));
      sm.utilization = rng.uniform(0.0, 1.0);
      report.station_metrics.push_back(sm);
    }
    report.e2e.assign(classes, E2eMetrics{40, 20e-3, 45e-3});
    if (rng.bernoulli(0.8)) poison_report(report, rng);

    validator.admit(report);

    for (const double v : report.ingress_rps) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, validator.options().max_rps);
    }
    for (const auto& m : report.request_metrics) {
      EXPECT_LT(m.service.index(), services);
      EXPECT_LT(m.cls.index(), classes);
      EXPECT_TRUE(std::isfinite(m.mean_latency));
      EXPECT_GE(m.mean_latency, 0.0);
      EXPECT_TRUE(std::isfinite(m.completion_rps));
      EXPECT_GE(m.completion_rps, 0.0);
      EXPECT_TRUE(std::isfinite(m.mean_service_time));
      EXPECT_GE(m.mean_service_time, 0.0);
    }
    for (const auto& sm : report.station_metrics) {
      EXPECT_TRUE(std::isfinite(sm.utilization));
      EXPECT_GE(sm.utilization, 0.0);
    }
    for (const auto& e : report.e2e) {
      if (e.count == 0) continue;
      EXPECT_TRUE(std::isfinite(e.mean_latency));
      EXPECT_GE(e.mean_latency, 0.0);
      EXPECT_TRUE(std::isfinite(e.p99_latency));
    }
  }
}

// Guard-armed end-to-end runs under telemetry corruption and solver
// outages: the simulation never crashes, conserves requests, and stays
// bit-deterministic for a fixed seed.
TEST_P(FuzzTest, GuardArmedChaosRunsSatisfyInvariantsAndDeterminism) {
  const auto seed = static_cast<std::uint64_t>(21000 + GetParam());
  Scenario scenario = random_scenario(seed);
  Rng rng(seed ^ 0x6du);
  const std::size_t clusters = scenario.topology->cluster_count();
  const std::size_t n = 1 + rng.uniform_u64(3);
  for (std::size_t i = 0; i < n; ++i) {
    const double start = rng.uniform(0.0, 12.0);
    const double len = rng.uniform(0.5, 6.0);
    if (rng.bernoulli(0.6)) {
      scenario.faults.telemetry_corruption(ClusterId{rng.uniform_u64(clusters)},
                                           start, len,
                                           rng.uniform(1.5, 50.0));
    } else {
      scenario.faults.solver_outage(start, len);
    }
  }
  scenario.guard.admission.enabled = true;
  scenario.guard.solver.enabled = rng.bernoulli(0.7);
  scenario.guard.rollout.enabled = rng.bernoulli(0.7);

  RunConfig config;
  config.policy = PolicyKind::kSlate;
  config.duration = 12.0;
  config.warmup = 4.0;
  config.seed = seed;
  config.timeseries_bucket = 1.0;
  config.failure.enabled = rng.bernoulli(0.5);

  const ExperimentResult a = run_experiment(scenario, config);
  // Repeat first: the p99() checks below sort a.e2e in place.
  expect_same_result(a, run_experiment(scenario, config));
  expect_conserved(a, /*admission_armed=*/false);
  EXPECT_LE(a.completed, a.generated);
  if (a.completed > 0) {
    EXPECT_TRUE(std::isfinite(a.p99()));
    EXPECT_LE(a.p50(), a.p99() + 1e-12);
  }
}

// --- Forecasting & time-varying demand fuzzing ------------------------------

// Random demand-generator and forecast directive lines through the text
// loader: every line parses into schedule/forecast state or is rejected
// with a line-numbered error — never a crash, never a half-built schedule.
TEST_P(FuzzTest, DemandAndForecastDirectivesParseOrFailCleanly) {
  const auto seed = static_cast<std::uint64_t>(23000 + GetParam());
  Rng rng(seed);
  const std::string base =
      "cluster west\ncluster east\nrtt west east 20ms\n"
      "service s\nclass k\ncall k root s compute=1ms\n"
      "deploy * * servers=1 capacity=200\ndemand k west 50\n";

  auto token = [&](std::initializer_list<const char*> options) {
    auto it = options.begin();
    std::advance(it, rng.uniform_u64(options.size()));
    return std::string(*it);
  };
  for (int line = 0; line < 24; ++line) {
    std::string directive;
    if (rng.bernoulli(0.5)) {
      directive = "demand " + token({"diurnal", "ramp", "pulse"}) + " " +
                  token({"k", "nope"}) + " " + token({"west", "east", "mars"});
      const std::size_t extras = rng.uniform_u64(6);
      for (std::size_t i = 0; i < extras; ++i) {
        directive +=
            " " + token({"base=100", "base=x", "amp=50", "amp=-2",
                         "period=5s", "period=0s", "until=10s", "until=0s",
                         "phase=2s", "start=8s", "step=0.5s", "step=0s",
                         "from=10", "to=200", "@2s", "3s", "peak=500",
                         "decay=2s", "bogus=1"});
      }
    } else {
      directive = "forecast " + token({"last", "ewma", "linear",
                                       "holtwinters", "oracle", "arima"});
      const std::size_t extras = rng.uniform_u64(5);
      for (std::size_t i = 0; i < extras; ++i) {
        directive +=
            " " + token({"alpha=0.5", "alpha=2", "window=4", "window=1",
                         "season=8", "season=x", "hw_alpha=0.3", "hw_beta=2",
                         "hw_gamma=0.1", "backtest=6", "backtest=0",
                         "min_history=2", "smape_scale=0.6",
                         "max_confidence=0.9", "max_confidence=2", "bogus=1",
                         "7"});
      }
    }
    const std::string text = base + directive + "\n";
    try {
      const Scenario s = load_scenario_from_string(text);
      // Whatever parsed is coherent: a forecast directive armed a real
      // kind, and demand schedules validate against add_step's ordering
      // rules (enforced during finalize).
      if (directive.rfind("forecast", 0) == 0) {
        EXPECT_NE(s.forecast.kind, ForecastKind::kNone) << directive;
        s.forecast.validate();
      }
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 9"), std::string::npos)
          << directive << " -> " << e.what();
    }
  }
}

// Random but valid forecast configuration (kinds, gains, gating).
ForecastOptions random_forecast(Rng& rng) {
  ForecastOptions o;
  constexpr ForecastKind kKinds[] = {ForecastKind::kLast, ForecastKind::kEwma,
                                     ForecastKind::kLinear,
                                     ForecastKind::kHoltWinters,
                                     ForecastKind::kOracle};
  o.kind = kKinds[rng.uniform_u64(5)];
  o.ewma_alpha = rng.uniform(0.05, 1.0);
  o.window = 2 + rng.uniform_u64(10);
  o.season = 2 + rng.uniform_u64(12);
  o.backtest_window = 1 + rng.uniform_u64(16);
  o.min_history = rng.uniform_u64(6);
  o.smape_scale = rng.uniform(0.2, 1.5);
  o.max_confidence = rng.uniform(0.3, 1.0);
  return o;
}

// Replaces the scenario's demand with random time-varying streams: a mix of
// constant rates, diurnal sinusoids, ramps, and flash-crowd pulses.
void randomize_demand(DemandSchedule& demand, Rng& rng, const Application& app,
                      std::size_t clusters, double duration) {
  demand = DemandSchedule{};
  bool any = false;
  for (ClassId k : app.all_classes()) {
    for (std::size_t c = 0; c < clusters; ++c) {
      if (!rng.bernoulli(0.7)) continue;
      any = true;
      switch (rng.uniform_u64(4)) {
        case 0:
          demand.set_rate(k, ClusterId{c}, rng.uniform(10.0, 250.0));
          break;
        case 1: {
          DiurnalSpec s;
          s.base = rng.uniform(50.0, 200.0);
          s.amplitude = rng.uniform(10.0, s.base);
          s.period = rng.uniform(3.0, duration);
          s.phase = rng.uniform(0.0, s.period);
          s.end = duration;
          s.step = 0.5;
          add_diurnal(demand, k, ClusterId{c}, s);
          break;
        }
        case 2: {
          RampSpec s;
          s.from_rps = rng.uniform(10.0, 150.0);
          s.to_rps = rng.uniform(10.0, 300.0);
          s.start = rng.uniform(0.0, duration / 2.0);
          s.duration = rng.uniform(1.0, duration / 2.0);
          s.step = 0.5;
          add_ramp(demand, k, ClusterId{c}, s);
          break;
        }
        default: {
          PulseSpec s;
          s.base = rng.uniform(10.0, 100.0);
          s.peak = rng.uniform(s.base, 400.0);
          s.start = rng.uniform(0.5, duration / 2.0);
          s.width = rng.uniform(0.5, 4.0);
          s.decay = rng.bernoulli(0.5) ? rng.uniform(0.5, 4.0) : 0.0;
          add_pulse(demand, k, ClusterId{c}, s);
          break;
        }
      }
    }
  }
  if (!any) demand.set_rate(ClassId{0}, ClusterId{0}, 100.0);
}

// Forecast-armed runs over time-varying demand: job conservation holds, the
// run stays deterministic, and a serial grid is byte-identical to a
// parallel one (forecast state is per-simulation, nothing shared).
TEST_P(FuzzTest, ForecastArmedRunsConserveAndParallelizeIdentically) {
  const auto seed = static_cast<std::uint64_t>(25000 + GetParam());
  Scenario scenario = random_scenario(seed);
  Rng rng(seed ^ 0xf0u);
  const double duration = 14.0;
  randomize_demand(scenario.demand, rng, *scenario.app,
                   scenario.topology->cluster_count(), duration);

  std::vector<Scenario> worlds(3, scenario);
  std::vector<GridJob> jobs;
  for (std::size_t i = 0; i < worlds.size(); ++i) {
    worlds[i].forecast = random_forecast(rng);
    worlds[i].overload = random_overload(rng, scenario.app->class_count());
    RunConfig config;
    config.policy = PolicyKind::kSlate;
    config.duration = duration;
    config.warmup = 4.0;
    config.seed = seed + i;
    jobs.push_back(GridJob{&worlds[i], config, strfmt("job-%zu", i)});
  }

  GridOptions serial;
  serial.jobs = 1;
  GridOptions parallel;
  parallel.jobs = 4;
  const std::vector<ExperimentResult> a = run_experiment_grid(jobs, serial);
  const std::vector<ExperimentResult> b = run_experiment_grid(jobs, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(jobs[i].label);
    // Conservation with forecasting armed.
    expect_conserved(a[i], /*admission_armed=*/false);
    EXPECT_LE(a[i].completed, a[i].generated);
    EXPECT_GT(a[i].forecast_solves, 0u);
    // Serial and parallel execution are byte-identical.
    expect_same_result(a[i], b[i]);
  }
}

// Random drains over a random world: 1-2 evacuations with arbitrary
// overlap against faults, admission, and overload control. Whatever the
// interleaving — drain completing, pausing on sag, or cancelled by an
// outage of the same cluster — conservation laws and run-to-run
// determinism must hold.
std::vector<DrainSpec> random_drains(Rng& rng, std::size_t clusters) {
  std::vector<DrainSpec> drains;
  const std::size_t n = 1 + rng.uniform_u64(2);
  for (std::size_t i = 0; i < n; ++i) {
    DrainSpec spec;
    spec.cluster = ClusterId{rng.uniform_u64(clusters)};
    spec.start = rng.uniform(0.0, 12.0);
    spec.over = rng.uniform(1.0, 8.0);
    spec.step = rng.uniform(0.1, 1.0);
    spec.sag_threshold = rng.uniform(0.5, 0.95);
    drains.push_back(spec);
  }
  return drains;
}

TEST_P(FuzzTest, DrainRunsSatisfyConservationAndDeterminism) {
  const auto seed = static_cast<std::uint64_t>(31000 + GetParam());
  Scenario scenario = random_scenario(seed);
  Rng rng(seed ^ 0xd3u);
  if (rng.bernoulli(0.5)) {
    add_random_faults(scenario.faults, rng, scenario.topology->cluster_count(),
                      scenario.app->service_count(), 12.0);
  }

  for (PolicyKind policy : {PolicyKind::kLocalityFailover, PolicyKind::kSlate}) {
    SCOPED_TRACE(to_string(policy));
    RunConfig config;
    config.policy = policy;
    config.duration = 12.0;
    config.warmup = 4.0;
    config.seed = seed;
    config.failure.enabled = rng.bernoulli(0.5);
    Scenario armed = scenario;
    armed.drains = random_drains(rng, scenario.topology->cluster_count());
    if (rng.bernoulli(0.5)) armed.contingency.enabled = true;
    if (rng.bernoulli(0.5)) {
      armed.admission = random_admission(rng, scenario.app->class_count());
    }
    if (rng.bernoulli(0.5)) {
      armed.overload = random_overload(rng, scenario.app->class_count());
    }

    const ExperimentResult a = run_experiment(armed, config);
    // Repeat first: the p99() checks below sort a.e2e in place.
    expect_same_result(a, run_experiment(armed, config));
    // Job and door conservation survive any drain interleaving.
    expect_conserved(a, armed.admission.enabled);
    if (!(armed.overload.deadline.enabled &&
          !armed.overload.deadline.propagate)) {
      EXPECT_EQ(a.wasted_server_seconds, 0.0);
    }
    // Every drain resolves to exactly one terminal (or stays in flight at
    // the end of a short run); none is double-counted.
    EXPECT_LE(a.drains_completed + a.drains_cancelled, a.drains_started);
    EXPECT_LE(a.drains_started, armed.drains.size());
    if (a.completed > 0) {
      EXPECT_TRUE(std::isfinite(a.p99()));
    }
  }
}

// Random key=value lines for the directive families the fuzzers above never
// reach: known, unknown and repeated keys with values in range, on a
// boundary, out of range, negative, malformed or in the wrong unit. A line
// either fails with a line-numbered runtime_error, or the scenario loads
// and a Simulation can be built from it; no other exception escapes.
TEST_P(FuzzTest, AttributeDirectivesParseOrFailCleanly) {
  const auto seed = static_cast<std::uint64_t>(31000 + GetParam());
  Rng rng(seed);
  const std::string base =
      "cluster west\ncluster east\nrtt west east 20ms\n"
      "service s\nservice t\nclass k\ncall k root s compute=1ms\n"
      "deploy * * servers=1 capacity=200\ndemand k west 50\n";
  // Each family: the directive head, its keys, and in-range values for some
  // of them so that enough lines load to reach the Simulation.
  struct Family {
    const char* head;
    std::vector<const char*> keys;
    std::vector<const char*> good;
  };
  const std::vector<Family> families = {
      {"guard admission",
       {"max_rps", "max_latency", "max_utilization", "window", "min_history",
        "threshold", "noise_floor", "trust_decay", "trust_recovery",
        "min_trust"},
       {"max_rps=500", "window=8", "threshold=4", "trust_decay=0.5"}},
      {"guard solver",
       {"budget", "local_bias"},
       {"budget=50ms", "local_bias=1.5"}},
      {"guard rollout",
       {"max_delta", "canary", "goodput_drop", "p99_rise", "min_samples",
        "flap_threshold", "flap_window", "freeze", "damping_floor"},
       {"max_delta=0.2", "canary=2", "goodput_drop=0.3", "flap_window=4"}},
      {"contingency",
       {"cap", "pad_step", "min_cap", "hysteresis"},
       {"cap=0.9", "pad_step=0.05", "min_cap=0.5", "hysteresis=0.01"}},
      {"drain east @2s",
       {"over", "step", "sag"},
       {"over=4s", "step=0.25", "sag=0.8"}},
      {"bilevel",
       {"horizon", "ttl", "weight", "target"},
       {"horizon=10s", "ttl=5s", "weight=0.5", "target=0.7"}},
      {"fault campaign",
       {"seed", "events", "start", "spacing", "mean_duration", "kinds"},
       {"events=3", "seed=7", "spacing=2s", "kinds=outage,drain"}},
      {"call k s t",
       {"compute", "req", "resp", "mult", "label", "mode"},
       {"compute=1ms", "req=1KB", "mult=0.5", "mode=par", "label=t2"}},
      {"deploy t west",
       {"servers", "capacity"},
       {"servers=2", "capacity=150"}},
  };
  // In range, on a boundary, out of range, negative, malformed, wrong unit.
  const std::vector<const char*> values = {
      "1",  "2",   "0.5", "0.9", "256", "257", "0",  "1.0",      "-1",
      "-0.5", "x", "",    "5ms", "2s",  "0s",  "-3s", "3parsecs", "2KB",
      "on", "off", "maybe", "seq", "par", "outage,drain", "gray,meteor",
      "30", "1.5"};

  auto pick = [&](const auto& options) {
    return std::string(options[rng.uniform_u64(options.size())]);
  };
  for (int line = 0; line < 24; ++line) {
    const Family& family = families[rng.uniform_u64(families.size())];
    std::string directive = family.head;
    std::vector<std::string> keys;
    const std::size_t extras = 1 + rng.uniform_u64(4);
    for (std::size_t i = 0; i < extras; ++i) {
      const double roll = rng.next_double();
      std::string token;
      if (roll < 0.1) {
        token = "bogus=" + pick(values);
      } else if (roll < 0.2 && !keys.empty()) {
        token = keys[rng.uniform_u64(keys.size())] + "=" + pick(values);
      } else if (roll < 0.6) {
        token = pick(family.good);
      } else {
        token = pick(family.keys) + "=" + pick(values);
      }
      keys.push_back(token.substr(0, token.find('=')));
      directive += " " + token;
    }
    const std::string text = base + directive + "\n";
    try {
      const Scenario s = load_scenario_from_string(text);
      Simulation sim(s, RunConfig{});
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 10"), std::string::npos)
          << directive << " -> " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "escaped: " << directive << " -> " << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace slate

// Tests for the text scenario format.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "runtime/scenario_loader.h"
#include "runtime/simulation.h"

namespace slate {
namespace {

constexpr const char* kBasic = R"(
# comment line
scenario demo

cluster west
cluster east
rtt west east 25ms
egress_price 0.08

service ingress
service worker

class api GET /api/v1
call api root ingress compute=0.1ms req=512B resp=2KB
call api ingress worker compute=2ms req=512B resp=2KB

deploy * * servers=1 capacity=475
demand api west 400
demand api east 100
)";

TEST(ScenarioLoader, ParsesBasicScenario) {
  const Scenario s = load_scenario_from_string(kBasic);
  EXPECT_EQ(s.name, "demo");
  EXPECT_EQ(s.topology->cluster_count(), 2u);
  EXPECT_DOUBLE_EQ(
      s.topology->rtt(ClusterId{0}, ClusterId{1}), 0.025);
  EXPECT_DOUBLE_EQ(
      s.topology->egress_price_per_gb(ClusterId{0}, ClusterId{1}), 0.08);
  EXPECT_EQ(s.app->service_count(), 2u);
  EXPECT_EQ(s.app->class_count(), 1u);

  const TrafficClassSpec& spec = s.app->traffic_class(ClassId{0});
  EXPECT_EQ(spec.name, "api");
  EXPECT_EQ(spec.attributes.method, "GET");
  EXPECT_EQ(spec.attributes.path, "/api/v1");
  ASSERT_EQ(spec.graph.node_count(), 2u);
  EXPECT_DOUBLE_EQ(spec.graph.node(0).compute_time_mean, 0.1e-3);
  EXPECT_EQ(spec.graph.node(1).request_bytes, 512u);
  EXPECT_EQ(spec.graph.node(1).response_bytes, 2048u);

  EXPECT_TRUE(s.deployment->is_deployed(ServiceId{1}, ClusterId{1}));
  EXPECT_DOUBLE_EQ(s.deployment->capacity_rps(ServiceId{0}, ClusterId{0}), 475.0);
  EXPECT_DOUBLE_EQ(s.demand.rate_at(ClassId{0}, ClusterId{0}, 0.0), 400.0);
}

TEST(ScenarioLoader, ParsedScenarioRuns) {
  const Scenario s = load_scenario_from_string(kBasic);
  RunConfig config;
  config.policy = PolicyKind::kSlate;
  config.duration = 10.0;
  config.warmup = 2.0;
  const ExperimentResult r = run_experiment(s, config);
  EXPECT_GT(r.completed, 1000u);
  EXPECT_GT(r.mean_latency(), 0.0);
}

TEST(ScenarioLoader, DurationAndSizeUnits) {
  const Scenario s = load_scenario_from_string(R"(
cluster a
cluster b
one_way a b 1500us
service svc
class k
call k root svc compute=0.5ms req=1KB resp=1MB
deploy * * servers=2 capacity=100
demand k a 10
)");
  EXPECT_DOUBLE_EQ(s.topology->one_way_latency(ClusterId{0}, ClusterId{1}),
                   1.5e-3);
  EXPECT_DOUBLE_EQ(s.topology->one_way_latency(ClusterId{1}, ClusterId{0}), 0.0);
  const auto& node = s.app->traffic_class(ClassId{0}).graph.node(0);
  EXPECT_EQ(node.request_bytes, 1024u);
  EXPECT_EQ(node.response_bytes, 1024u * 1024u);
}

TEST(ScenarioLoader, DemandSteps) {
  const Scenario s = load_scenario_from_string(R"(
cluster a
service svc
class k
call k root svc compute=1ms
deploy * * servers=1 capacity=100
demand k a 50
demand k a @30s 200
)");
  EXPECT_DOUBLE_EQ(s.demand.rate_at(ClassId{0}, ClusterId{0}, 10.0), 50.0);
  EXPECT_DOUBLE_EQ(s.demand.rate_at(ClassId{0}, ClusterId{0}, 31.0), 200.0);
}

TEST(ScenarioLoader, PartialReplicationViaUndeploy) {
  const Scenario s = load_scenario_from_string(R"(
cluster a
cluster b
service front
service db
class k
call k root front compute=1ms
call k front db compute=1ms
deploy * * servers=1 capacity=100
undeploy db a
demand k a 10
)");
  EXPECT_FALSE(s.deployment->is_deployed(ServiceId{1}, ClusterId{0}));
  EXPECT_TRUE(s.deployment->is_deployed(ServiceId{1}, ClusterId{1}));
}

TEST(ScenarioLoader, LabelsDisambiguateRepeatedServices) {
  const Scenario s = load_scenario_from_string(R"(
cluster a
service front
service store
class k
call k root front compute=1ms
call k front store label=read compute=1ms
call k read store label=write compute=2ms
deploy * * servers=1 capacity=100
demand k a 10
)");
  const CallGraph& g = s.app->traffic_class(ClassId{0}).graph;
  ASSERT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.node(2).parent, 1u);
  EXPECT_DOUBLE_EQ(g.node(2).compute_time_mean, 2e-3);
}

TEST(ScenarioLoader, ParallelMode) {
  const Scenario s = load_scenario_from_string(R"(
cluster a
service root-svc
service c1
service c2
class k
call k root root-svc compute=1ms mode=par
call k root-svc c1 compute=1ms
call k root-svc c2 compute=1ms
deploy * * servers=1 capacity=100
demand k a 10
)");
  EXPECT_EQ(s.app->traffic_class(ClassId{0}).graph.node(0).mode,
            InvocationMode::kParallel);
}

// --- Diagnostics ----------------------------------------------------------------

void expect_error(const std::string& text, const std::string& fragment) {
  try {
    load_scenario_from_string(text);
    FAIL() << "expected parse error containing '" << fragment << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "actual: " << e.what();
  }
}

TEST(ScenarioLoader, ErrorsCarryLineNumbers) {
  expect_error("cluster a\nbogus directive\n", "line 2");
}

TEST(ScenarioLoader, UnknownReferencesRejected) {
  expect_error("cluster a\nrtt a nowhere 1ms\n", "unknown cluster");
  expect_error("cluster a\nservice s\nclass k\ncall k root other compute=1ms\n",
               "unknown service");
  expect_error(
      "cluster a\nservice s\nclass k\ncall k missing s compute=1ms\n",
      "unknown parent");
}

TEST(ScenarioLoader, StructuralErrorsRejected) {
  expect_error("service s\n", "no clusters");
  expect_error("cluster a\nservice s\nclass k\ndeploy * * capacity=10\ndemand k a 5\n",
               "no root call");
  expect_error(
      "cluster a\nservice s\nclass k\ncall k root s compute=1ms\n"
      "deploy * * servers=1 capacity=10\ndemand other a 5\n",
      "unknown class");
  expect_error("cluster a\ncluster a\n", "duplicate cluster");
}

TEST(ScenarioLoader, BadValuesRejected) {
  expect_error("cluster a\ncluster b\nrtt a b 5parsecs\n", "unit");
  expect_error(
      "cluster a\nservice s\nclass k\ncall k root s compute=abc\n", "bad");
  expect_error(
      "cluster a\nservice s\nclass k\ncall k root s compute=1ms\n"
      "deploy * *\ndemand k a 5\n",
      "capacity");
}

TEST(ScenarioLoader, TrailingTokensRejectedWithLineNumber) {
  expect_error("cluster a extra\n", "trailing token 'extra'");
  expect_error("cluster a\ncluster b\nrtt a b 1ms oops\n", "line 3");
  expect_error("cluster a\njitter 0.1 0.2\n", "trailing token");
  expect_error("scenario demo demo2\n", "trailing token");
}

constexpr const char* kFaultBase = R"(
cluster west
cluster east
rtt west east 25ms
service s
class k
call k root s compute=1ms
deploy * * servers=1 capacity=100
demand k west 50
)";

TEST(ScenarioLoader, ParsesFaultDirectives) {
  const Scenario s = load_scenario_from_string(
      std::string(kFaultBase) +
      "fault outage east @40s 10s\n"
      "fault blackout west @70s 12s\n"
      "fault slowdown s west @5s 3s factor=4\n"
      "fault slowdown s * @6s 1s factor=2\n"
      "fault link west east @10s 5s factor=3 extra=50ms\n"
      "fault link east west @10s 5s partition\n");
  ASSERT_EQ(s.faults.size(), 6u);
  const auto& f = s.faults.faults();

  EXPECT_EQ(f[0].kind, FaultKind::kClusterOutage);
  EXPECT_EQ(f[0].cluster, ClusterId{1});
  EXPECT_DOUBLE_EQ(f[0].start, 40.0);
  EXPECT_DOUBLE_EQ(f[0].duration, 10.0);

  EXPECT_EQ(f[1].kind, FaultKind::kTelemetryBlackout);
  EXPECT_EQ(f[1].cluster, ClusterId{0});

  EXPECT_EQ(f[2].kind, FaultKind::kServiceSlowdown);
  EXPECT_EQ(f[2].service, ServiceId{0});
  EXPECT_EQ(f[2].cluster, ClusterId{0});
  EXPECT_DOUBLE_EQ(f[2].factor, 4.0);
  EXPECT_FALSE(f[3].cluster.valid());  // '*' = every cluster

  EXPECT_EQ(f[4].kind, FaultKind::kLinkDegradation);
  EXPECT_DOUBLE_EQ(f[4].factor, 3.0);
  EXPECT_DOUBLE_EQ(f[4].extra_latency, 0.05);
  EXPECT_FALSE(f[4].partition);
  EXPECT_TRUE(f[5].partition);
  EXPECT_EQ(f[5].cluster, ClusterId{1});
  EXPECT_EQ(f[5].to, ClusterId{0});
}

TEST(ScenarioLoader, FaultDirectiveForwardReferencesResolve) {
  // Faults may appear before the clusters/services they name.
  const Scenario s = load_scenario_from_string(
      "fault outage east @40s 10s\n" + std::string(kFaultBase));
  ASSERT_EQ(s.faults.size(), 1u);
  EXPECT_EQ(s.faults.faults()[0].cluster, ClusterId{1});
}

TEST(ScenarioLoader, BadFaultDirectivesRejected) {
  const std::string base = kFaultBase;
  expect_error(base + "fault meteor west @1s 2s\n", "unknown fault kind");
  expect_error(base + "fault outage nowhere @1s 2s\n", "unknown cluster");
  expect_error(base + "fault slowdown bogus west @1s 2s factor=2\n",
               "unknown service");
  expect_error(base + "fault outage east 1s 2s\n", "expected @<start-time>");
  expect_error(base + "fault outage east @1s 2s extra=1ms\n",
               "trailing token");
  expect_error(base + "fault slowdown s west @1s 2s\n", "requires factor");
  expect_error(base + "fault link west east @1s 2s\n", "needs an effect");
  expect_error(base + "fault link west west @1s 2s partition\n", "line 10");
  expect_error(base + "fault outage east @1s 0s\n", "line 10");
  expect_error(base + "fault slowdown s west @1s 2s factor=2 partition\n",
               "key=value");
}

TEST(ScenarioLoader, MissingFileThrows) {
  EXPECT_THROW(load_scenario_from_file("/nonexistent/path.slate"),
               std::runtime_error);
}

// --- Loader hardening: values that used to wrap, truncate, or slip through

TEST(ScenarioLoader, NegativeAndMalformedValuesRejected) {
  expect_error("cluster a\ncluster b\nrtt a b -5ms\n", "negative duration");
  expect_error(
      "cluster a\nservice s\nclass k\ncall k root s compute=1ms req=-4KB\n",
      "negative size");
  expect_error(
      "cluster a\nservice s\nclass k\ncall k root s compute=1ms\n"
      "deploy * * servers=-2 capacity=10\ndemand k a 5\n",
      "servers must be >= 1");
  expect_error(
      "cluster a\nservice s\nclass k\ncall k root s compute=1ms\n"
      "deploy * * servers=1.5 capacity=10\ndemand k a 5\n",
      "servers must be an integer");
  expect_error(
      "cluster a\nservice s\nclass k\ncall k root s compute=1ms\n"
      "deploy * * servers=1 capacity=10\ndemand k a -5\n",
      "demand");
  expect_error("cluster a\negress_price -0.1\n", "egress_price");
}

TEST(ScenarioLoader, NonPositiveFaultFactorRejected) {
  const std::string base = kFaultBase;
  expect_error(base + "fault slowdown s west @1s 2s factor=0\n",
               "factor must be > 0");
  expect_error(base + "fault slowdown s west @1s 2s factor=-3\n",
               "factor must be > 0");
}

// --- Overload directives ---------------------------------------------------

TEST(ScenarioLoader, ParsesOverloadDirectives) {
  const Scenario s = load_scenario_from_string(
      std::string(kFaultBase) +
      "overload queue limit=64 codel_target=20ms codel_interval=100ms "
      "priority_shedding=off\n"
      "overload deadline 500ms propagate=off\n"
      "overload priority k 7\n"
      "overload breaker window=4s ratio=0.6 min_volume=15 eject=3s "
      "max_eject=30s probes=2\n");
  const OverloadPolicy& p = s.overload;
  EXPECT_EQ(p.queue.max_queue, 64u);
  EXPECT_DOUBLE_EQ(p.queue.codel_target, 0.02);
  EXPECT_DOUBLE_EQ(p.queue.codel_interval, 0.1);
  EXPECT_FALSE(p.queue.priority_shedding);
  EXPECT_TRUE(p.queue.enabled());

  EXPECT_TRUE(p.deadline.enabled);
  EXPECT_DOUBLE_EQ(p.deadline.default_deadline, 0.5);
  EXPECT_FALSE(p.deadline.propagate);

  ASSERT_EQ(p.queue.class_priority.size(), 1u);
  EXPECT_EQ(p.queue.class_priority[0], 7);
  EXPECT_EQ(p.queue.priority_of(ClassId{0}), 7);

  EXPECT_TRUE(p.breaker.enabled);
  EXPECT_DOUBLE_EQ(p.breaker.window, 4.0);
  EXPECT_DOUBLE_EQ(p.breaker.failure_ratio, 0.6);
  EXPECT_EQ(p.breaker.min_volume, 15u);
  EXPECT_DOUBLE_EQ(p.breaker.ejection_base, 3.0);
  EXPECT_DOUBLE_EQ(p.breaker.max_ejection, 30.0);
  EXPECT_EQ(p.breaker.half_open_probes, 2u);
  EXPECT_TRUE(p.any_enabled());
}

TEST(ScenarioLoader, PerClassDeadlineEnablesAndResolvesForwardReferences) {
  // The per-class form appears before the class declaration and still
  // resolves; it also switches deadlines on by itself.
  const Scenario s = load_scenario_from_string(
      "overload deadline k 2s\n" + std::string(kFaultBase));
  EXPECT_TRUE(s.overload.deadline.enabled);
  ASSERT_EQ(s.overload.deadline.per_class.size(), 1u);
  EXPECT_DOUBLE_EQ(s.overload.deadline.per_class[0], 2.0);
  EXPECT_DOUBLE_EQ(s.overload.deadline.deadline_for(ClassId{0}), 2.0);
}

TEST(ScenarioLoader, BareBreakerDirectiveEnablesDefaults) {
  const Scenario s =
      load_scenario_from_string(std::string(kFaultBase) + "overload breaker\n");
  EXPECT_TRUE(s.overload.breaker.enabled);
  EXPECT_DOUBLE_EQ(s.overload.breaker.window, BreakerPolicy{}.window);
}

TEST(ScenarioLoader, OverloadScenarioRunsEndToEnd) {
  const Scenario s = load_scenario_from_string(
      std::string(kFaultBase) + "overload queue limit=32\n"
                                "overload deadline 300ms\n");
  RunConfig config;
  config.policy = PolicyKind::kLocalOnly;
  config.duration = 10.0;
  config.warmup = 2.0;
  const ExperimentResult r = run_experiment(s, config);
  EXPECT_GT(r.completed, 100u);
}

TEST(ScenarioLoader, BadOverloadDirectivesRejected) {
  const std::string base = kFaultBase;
  expect_error(base + "overload\n", "overload <queue|deadline");
  expect_error(base + "overload meteor limit=3\n", "unknown overload kind");
  expect_error(base + "overload queue\n", "overload queue limit");
  expect_error(base + "overload queue limit=-1\n", "limit must be >= 0");
  expect_error(base + "overload queue limit=2.5\n", "limit must be an integer");
  expect_error(base + "overload queue codel_target=0s\n",
               "codel_target must be > 0");
  expect_error(base + "overload queue bogus=1\n",
               "unknown overload queue attribute");
  expect_error(base + "overload queue limit\n", "expected key=value");
  expect_error(base + "overload deadline 0s\n", "deadline must be > 0");
  expect_error(base + "overload deadline -1s\n", "negative duration");
  expect_error(base + "overload deadline 1s propagate=maybe\n",
               "propagate must be on or off");
  expect_error(base + "overload deadline 1s retry=2\n",
               "unknown overload deadline attribute");
  expect_error(base + "overload deadline nope 1s\n", "unknown class 'nope'");
  expect_error(base + "overload priority nope 3\n", "unknown class 'nope'");
  expect_error(base + "overload priority k 1.5\n",
               "priority level must be an integer");
  expect_error(base + "overload priority k 1 extra\n", "overload priority");
  expect_error(base + "overload breaker ratio=0\n", "ratio must be in (0, 1]");
  expect_error(base + "overload breaker ratio=1.2\n", "ratio must be in (0, 1]");
  expect_error(base + "overload breaker window=0s\n", "window must be > 0");
  expect_error(base + "overload breaker min_volume=0\n",
               "min_volume must be >= 1");
  expect_error(base + "overload breaker probes=0\n", "probes must be >= 1");
  expect_error(base + "overload breaker spin=7\n",
               "unknown overload breaker attribute");
  // Errors carry the directive's source line.
  expect_error(base + "overload queue limit=-1\n", "line 10");
}

// --- Guard directives -------------------------------------------------------

TEST(ScenarioLoader, ParsesGuardDirectives) {
  const Scenario s = load_scenario_from_string(
      std::string(kFaultBase) +
      "guard admission threshold=6 window=32 min_history=4 trust_decay=0.5\n"
      "guard solver budget=100ms local_bias=3\n"
      "guard rollout max_delta=0.2 canary=3 goodput_drop=0.3 freeze=5\n");
  EXPECT_TRUE(s.guard.admission.enabled);
  EXPECT_DOUBLE_EQ(s.guard.admission.mad_threshold, 6.0);
  EXPECT_EQ(s.guard.admission.mad_window, 32u);
  EXPECT_EQ(s.guard.admission.min_history, 4u);
  EXPECT_DOUBLE_EQ(s.guard.admission.trust_decay, 0.5);
  EXPECT_TRUE(s.guard.solver.enabled);
  EXPECT_DOUBLE_EQ(s.guard.solver.wall_budget, 0.1);
  EXPECT_DOUBLE_EQ(s.guard.solver.split_local_bias, 3.0);
  EXPECT_TRUE(s.guard.rollout.enabled);
  EXPECT_DOUBLE_EQ(s.guard.rollout.max_weight_delta, 0.2);
  EXPECT_EQ(s.guard.rollout.canary_periods, 3u);
  EXPECT_DOUBLE_EQ(s.guard.rollout.goodput_drop, 0.3);
  EXPECT_EQ(s.guard.rollout.freeze_periods, 5u);
}

TEST(ScenarioLoader, BareGuardDirectivesEnableDefaults) {
  const Scenario s = load_scenario_from_string(std::string(kFaultBase) +
                                               "guard admission\n");
  EXPECT_TRUE(s.guard.admission.enabled);
  EXPECT_FALSE(s.guard.solver.enabled);
  EXPECT_FALSE(s.guard.rollout.enabled);
}

TEST(ScenarioLoader, BadGuardDirectivesRejected) {
  const std::string base = kFaultBase;
  expect_error(base + "guard turbo\n", "unknown guard kind");
  expect_error(base + "guard admission threshold=0\n", "threshold must be > 0");
  expect_error(base + "guard admission window=500\n", "window must be <= 256");
  expect_error(base + "guard rollout max_delta=2\n", "max_delta must be in");
  expect_error(base + "guard rollout bogus=1\n",
               "unknown guard rollout attribute");
  expect_error(base + "guard solver local_bias=0.5\n", "local_bias must be >= 1");
}

TEST(ScenarioLoader, ParsesControlPlaneFaultDirectives) {
  const Scenario s = load_scenario_from_string(
      std::string(kFaultBase) +
      "fault corrupt west @25s 50s factor=8\n"
      "fault solver @35s 10s\n");
  ASSERT_EQ(s.faults.size(), 2u);
  const auto& f = s.faults.faults();
  EXPECT_EQ(f[0].kind, FaultKind::kTelemetryCorruption);
  EXPECT_EQ(f[0].cluster, ClusterId{0});
  EXPECT_DOUBLE_EQ(f[0].start, 25.0);
  EXPECT_DOUBLE_EQ(f[0].duration, 50.0);
  EXPECT_DOUBLE_EQ(f[0].factor, 8.0);
  EXPECT_EQ(f[1].kind, FaultKind::kSolverOutage);
  EXPECT_DOUBLE_EQ(f[1].start, 35.0);
}

// --- Duplicate deploy targets ----------------------------------------------

TEST(ScenarioLoader, DuplicateExplicitDeployTargetsRejected) {
  const std::string base =
      "cluster west\ncluster east\nrtt west east 20ms\n"
      "service s\nclass k\ncall k root s compute=1ms\n";
  // Two explicit deploys of the same (service, cluster): the second would
  // silently overwrite the first.
  expect_error(base +
                   "deploy s west servers=1 capacity=100\n"
                   "deploy s west servers=4 capacity=900\n"
                   "demand k west 10\n",
               "duplicate deploy target 's west'");
  // The error names the first declaration's line (line 7 here).
  expect_error(base +
                   "deploy s west servers=1 capacity=100\n"
                   "deploy s west servers=4 capacity=900\n"
                   "demand k west 10\n",
               "line 7");
  // Duplicate undeploys of the same target are equally a spec mistake.
  expect_error(base +
                   "deploy * * servers=1 capacity=100\n"
                   "undeploy s east\nundeploy s east\n"
                   "demand k west 10\n",
               "duplicate undeploy target 's east'");
}

TEST(ScenarioLoader, WildcardThenSpecificOverrideStillAllowed) {
  // `deploy * *` followed by a specific override is the documented idiom
  // and must keep working.
  const Scenario s = load_scenario_from_string(
      "cluster west\ncluster east\nrtt west east 20ms\n"
      "service s\nclass k\ncall k root s compute=1ms\n"
      "deploy * * servers=1 capacity=100\n"
      "deploy s west servers=4 capacity=900\n"
      "demand k west 10\n");
  EXPECT_EQ(s.deployment->servers(ServiceId{0}, ClusterId{0}), 4u);
  EXPECT_EQ(s.deployment->servers(ServiceId{0}, ClusterId{1}), 1u);
}

// --- Demand generators & forecast directives --------------------------------

TEST(ScenarioLoader, ParsesDemandGeneratorDirectives) {
  const Scenario s = load_scenario_from_string(
      std::string(kFaultBase) +
      "demand diurnal k east base=100 amp=50 period=10s until=20s step=5s\n");
  // Midpoint-sampled segments at t = 2.5, 7.5, ...: sin(pi/2) and
  // sin(3pi/2) -> 150 / 50 alternating.
  EXPECT_NEAR(s.demand.rate_at(ClassId{0}, ClusterId{1}, 0.0), 150.0, 1e-9);
  EXPECT_NEAR(s.demand.rate_at(ClassId{0}, ClusterId{1}, 5.0), 50.0, 1e-9);
  EXPECT_NEAR(s.demand.rate_at(ClassId{0}, ClusterId{1}, 10.0), 150.0, 1e-9);
  // The plain-step directive from the base is untouched.
  EXPECT_DOUBLE_EQ(s.demand.rate_at(ClassId{0}, ClusterId{0}, 0.0), 50.0);

  const Scenario ramp = load_scenario_from_string(
      std::string(kFaultBase) +
      "demand ramp k east @5s 10s from=10 to=110 step=5s\n");
  EXPECT_DOUBLE_EQ(ramp.demand.rate_at(ClassId{0}, ClusterId{1}, 4.9), 0.0);
  EXPECT_NEAR(ramp.demand.rate_at(ClassId{0}, ClusterId{1}, 5.0), 35.0, 1e-9);
  EXPECT_NEAR(ramp.demand.rate_at(ClassId{0}, ClusterId{1}, 12.0), 85.0, 1e-9);
  EXPECT_DOUBLE_EQ(ramp.demand.rate_at(ClassId{0}, ClusterId{1}, 15.0), 110.0);

  const Scenario pulse = load_scenario_from_string(
      std::string(kFaultBase) +
      "demand pulse k east @2s 3s base=10 peak=99\n");
  EXPECT_DOUBLE_EQ(pulse.demand.rate_at(ClassId{0}, ClusterId{1}, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(pulse.demand.rate_at(ClassId{0}, ClusterId{1}, 2.0), 99.0);
  EXPECT_DOUBLE_EQ(pulse.demand.rate_at(ClassId{0}, ClusterId{1}, 5.0), 10.0);
}

TEST(ScenarioLoader, ParsesForecastDirective) {
  const Scenario s = load_scenario_from_string(
      std::string(kFaultBase) +
      "forecast holtwinters season=30 hw_alpha=0.5 hw_beta=0.2 hw_gamma=0.4 "
      "backtest=9 min_history=3 smape_scale=0.8 max_confidence=0.5\n");
  EXPECT_EQ(s.forecast.kind, ForecastKind::kHoltWinters);
  EXPECT_EQ(s.forecast.season, 30u);
  EXPECT_DOUBLE_EQ(s.forecast.hw_alpha, 0.5);
  EXPECT_DOUBLE_EQ(s.forecast.hw_beta, 0.2);
  EXPECT_DOUBLE_EQ(s.forecast.hw_gamma, 0.4);
  EXPECT_EQ(s.forecast.backtest_window, 9u);
  EXPECT_EQ(s.forecast.min_history, 3u);
  EXPECT_DOUBLE_EQ(s.forecast.smape_scale, 0.8);
  EXPECT_DOUBLE_EQ(s.forecast.max_confidence, 0.5);
  s.forecast.validate();

  const Scenario bare =
      load_scenario_from_string(std::string(kFaultBase) + "forecast ewma\n");
  EXPECT_EQ(bare.forecast.kind, ForecastKind::kEwma);
  // Unarmed scenarios stay reactive.
  const Scenario none = load_scenario_from_string(std::string(kFaultBase));
  EXPECT_EQ(none.forecast.kind, ForecastKind::kNone);
}

TEST(ScenarioLoader, BadDemandGeneratorDirectivesRejected) {
  const std::string base = kFaultBase;
  expect_error(base + "demand diurnal k east base=100 amp=50\n",
               "usage: demand diurnal");
  expect_error(base + "demand diurnal k east base=100 amp=50 period=5s "
                      "until=0s\n",
               "diurnal: need 0 <= start < until");
  expect_error(base + "demand diurnal k east base=1 amp=1 period=5s "
                      "until=10s spin=3\n",
               "unknown demand diurnal attribute");
  expect_error(base + "demand diurnal nope east base=1 amp=1 period=5s "
                      "until=10s\n",
               "unknown class 'nope'");
  expect_error(base + "demand ramp k east 5s 10s from=1 to=2\n",
               "expected @<start-time>");
  expect_error(base + "demand ramp k east @5s 10s from=1\n",
               "usage: demand ramp");
  expect_error(base + "demand pulse k east @2s 0s base=1 peak=2\n",
               "pulse: width must be > 0");
  // A generator whose steps collide with an earlier directive for the same
  // stream is rejected, not silently merged.
  expect_error(base + "demand pulse k west @2s 3s base=1 peak=2\n",
               "increasing time order");
  // Errors carry the directive's source line.
  expect_error(base + "demand diurnal k east base=100 amp=50\n", "line 10");
}

TEST(ScenarioLoader, BadForecastDirectivesRejected) {
  const std::string base = kFaultBase;
  expect_error(base + "forecast\n", "forecast <none|last");
  expect_error(base + "forecast arima\n", "unknown forecast kind");
  expect_error(base + "forecast ewma alpha=2\n", "alpha must be in (0, 1]");
  expect_error(base + "forecast ewma alpha\n", "expected key=value");
  expect_error(base + "forecast linear window=1\n", "window");
  expect_error(base + "forecast holtwinters season=1\n", "season");
  expect_error(base + "forecast holtwinters hw_beta=2\n",
               "hw_beta must be in [0, 1]");
  expect_error(base + "forecast last backtest=0\n", "backtest");
  expect_error(base + "forecast last smape_scale=0\n",
               "smape_scale must be > 0");
  expect_error(base + "forecast last max_confidence=2\n",
               "max_confidence must be in [0, 1]");
  expect_error(base + "forecast last turbo=1\n", "unknown forecast attribute");
  expect_error(base + "forecast arima\n", "line 10");
}

TEST(ScenarioLoader, SampleFilesParse) {
  // Every shipped sample scenario must stay valid.
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(SLATE_SOURCE_DIR) / "examples/scenarios")) {
    if (entry.path().extension() == ".slate") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_GE(paths.size(), 11u);
  for (const auto& path : paths) {
    SCOPED_TRACE(path.string());
    EXPECT_NO_THROW({
      const Scenario s = load_scenario_from_file(path.string());
      s.app->validate();
      s.deployment->validate();
    });
  }
}

// --- Contingency / drain / campaign directives -----------------------------

TEST(ScenarioLoader, ParsesContingencyDirective) {
  const std::string base = kFaultBase;
  const Scenario bare = load_scenario_from_string(base + "contingency\n");
  EXPECT_TRUE(bare.contingency.enabled);
  EXPECT_DOUBLE_EQ(bare.contingency.max_post_failure_utilization, 0.95);

  const Scenario s = load_scenario_from_string(
      base + "contingency cap=0.9 pad_step=0.04 min_cap=0.4 hysteresis=0.02\n");
  EXPECT_TRUE(s.contingency.enabled);
  EXPECT_DOUBLE_EQ(s.contingency.max_post_failure_utilization, 0.9);
  EXPECT_DOUBLE_EQ(s.contingency.pad_step, 0.04);
  EXPECT_DOUBLE_EQ(s.contingency.min_utilization, 0.4);
  EXPECT_DOUBLE_EQ(s.contingency.relax_hysteresis, 0.02);
}

TEST(ScenarioLoader, BadContingencyDirectivesRejected) {
  const std::string base = kFaultBase;  // 9 content lines; directive is line 10
  expect_error(base + "contingency cap=1.5\n", "cap must be in (0, 1]");
  expect_error(base + "contingency cap=0\n", "line 10");
  expect_error(base + "contingency pad_step=1\n", "pad_step must be in (0, 1)");
  expect_error(base + "contingency hysteresis=-0.1\n", "hysteresis");
  expect_error(base + "contingency cap=0.5 min_cap=0.7\n",
               "contingency needs min_cap <= cap");
  expect_error(base + "contingency frobnicate=1\n",
               "unknown contingency attribute");
}

TEST(ScenarioLoader, ParsesDrainDirective) {
  const Scenario s = load_scenario_from_string(
      std::string(kFaultBase) + "drain east @30s over=10s step=0.2 sag=0.9\n");
  ASSERT_EQ(s.drains.size(), 1u);
  EXPECT_EQ(s.drains[0].cluster, ClusterId{1});
  EXPECT_DOUBLE_EQ(s.drains[0].start, 30.0);
  EXPECT_DOUBLE_EQ(s.drains[0].over, 10.0);
  EXPECT_DOUBLE_EQ(s.drains[0].step, 0.2);
  EXPECT_DOUBLE_EQ(s.drains[0].sag_threshold, 0.9);
}

TEST(ScenarioLoader, DrainDirectiveForwardReferencesResolve) {
  const Scenario s = load_scenario_from_string(
      "drain east @5s over=4s\n" + std::string(kFaultBase));
  ASSERT_EQ(s.drains.size(), 1u);
  EXPECT_EQ(s.drains[0].cluster, ClusterId{1});
}

TEST(ScenarioLoader, BadDrainDirectivesRejected) {
  const std::string base = kFaultBase;
  expect_error(base + "drain nowhere @5s over=4s\n", "unknown cluster");
  expect_error(base + "drain east 5s over=4s\n", "expected @<start-time>");
  expect_error(base + "drain east @5s step=0.5\n",
               "drain requires over=<duration>");
  expect_error(base + "drain east @5s over=0s\n", "over must be > 0");
  expect_error(base + "drain east @5s over=4s step=2\n",
               "step must be in (0, 1]");
  expect_error(base + "drain east @5s over=4s sag=1\n", "sag must be in (0, 1)");
  expect_error(base + "drain east @5s over=4s color=red\n",
               "unknown drain attribute");
  expect_error(base + "drain east @5s over=4s\ndrain east @5s over=4s\nxx\n",
               "line 12");  // errors carry the right line past multiple drains
}

TEST(ScenarioLoader, CampaignExpandsDeterministically) {
  const std::string text =
      std::string(kFaultBase) +
      "fault campaign seed=5 events=6 start=20s spacing=8s "
      "kinds=outage,drain\n";
  const Scenario a = load_scenario_from_string(text);
  const Scenario b = load_scenario_from_string(text);
  EXPECT_EQ(a.faults.size() + a.drains.size(), 6u);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults.faults()[i].kind, FaultKind::kClusterOutage);
    EXPECT_EQ(a.faults.faults()[i].kind, b.faults.faults()[i].kind);
    EXPECT_DOUBLE_EQ(a.faults.faults()[i].start, b.faults.faults()[i].start);
    EXPECT_EQ(a.faults.faults()[i].cluster, b.faults.faults()[i].cluster);
    EXPECT_GE(a.faults.faults()[i].start, 20.0);
  }
  ASSERT_EQ(a.drains.size(), b.drains.size());
  for (std::size_t i = 0; i < a.drains.size(); ++i) {
    EXPECT_EQ(a.drains[i].cluster, b.drains[i].cluster);
    EXPECT_DOUBLE_EQ(a.drains[i].start, b.drains[i].start);
    EXPECT_DOUBLE_EQ(a.drains[i].over, b.drains[i].over);
  }
}

TEST(ScenarioLoader, BadCampaignDirectivesRejected) {
  const std::string base = kFaultBase;
  expect_error(base + "fault campaign seed=5\n",
               "fault campaign requires events=<k>");
  expect_error(base + "fault campaign seed=5 events=0\n", "events");
  expect_error(base + "fault campaign events=3 kinds=meteor\n",
               "unknown campaign kind");
  expect_error(base + "fault campaign events=3 bogus=1\n",
               "unknown campaign attribute");
  expect_error(base + "fault campaign events=3 spacing=0s\n",
               "spacing must be > 0");
  // Expansion failures surface on the campaign's line: a world with one
  // cluster cannot host partitions.
  expect_error(
      "cluster solo\nservice s\nclass k\ncall k root s compute=1ms\n"
      "deploy * * servers=1 capacity=100\ndemand k solo 5\n"
      "fault campaign events=2 kinds=partition\n",
      "line 7");
}

// --- Attribute rules shared by every directive ------------------------------

TEST(ScenarioLoader, RepeatedAttributeKeysRejected) {
  const std::string base = kFaultBase;  // 9 content lines; directive is line 10
  expect_error(base + "contingency cap=0.5 cap=0.9\n",
               "line 10: duplicate contingency attribute 'cap'");
  expect_error(base + "guard rollout canary=2 max_delta=0.5 canary=3\n",
               "line 10: duplicate guard rollout attribute 'canary'");
  expect_error(base + "drain east @5s over=4s over=6s\n",
               "line 10: duplicate drain attribute 'over'");
  expect_error(base + "fault link west east @1s 2s factor=2 factor=3\n",
               "line 10: duplicate fault link attribute 'factor'");
  expect_error(base + "admission rate=100 slo=1s rate=200\n",
               "line 10: duplicate admission attribute 'rate'");
  expect_error(base + "bilevel ttl=5s ttl=5s\n",
               "line 10: duplicate bilevel attribute 'ttl'");
  expect_error(base + "fault campaign events=2 seed=1 seed=2\n",
               "line 10: duplicate campaign attribute 'seed'");
  expect_error(
      "cluster a\nservice s\nclass k\n"
      "call k root s compute=1ms compute=2ms\n",
      "line 4: duplicate call attribute 'compute'");
  expect_error("cluster a\nservice s\nundeploy s a servers=1 servers=2\n",
               "line 3: duplicate deploy attribute 'servers'");
}

TEST(ScenarioLoader, AttributeBoundsAndCountsRejected) {
  const std::string base = kFaultBase;
  expect_error(base + "guard admission window=1\n",
               "window must be >= 2, got '1'");
  expect_error(base + "guard admission window=257\n", "window must be <= 256");
  expect_error(base + "guard rollout canary=inf\n",
               "canary must be an integer, got 'inf'");
  expect_error(base + "bilevel target=1\n", "target must be in (0, 1)");
  expect_error(base + "forecast ewma hw_gamma=-0.5\n",
               "hw_gamma must be in [0, 1]");
  expect_error(base + "overload queue priority_shedding=yes\n",
               "priority_shedding must be on or off, got 'yes'");
  // The call graph needs a positive multiplicity; the loader says so.
  expect_error(
      "cluster a\nservice s\nservice t\nclass k\n"
      "call k root s compute=1ms\ncall k s t mult=0\n",
      "line 6: mult must be > 0");
  // Tokens are checked in order: the first bad token names the error.
  expect_error(base + "fault corrupt west @1s 2s factor=0.5 bogus=1\n",
               "corrupt factor must be > 1");
  expect_error(base + "fault corrupt west @1s 2s bogus=1 factor=0.5\n",
               "unknown fault corrupt attribute 'bogus'");
}

TEST(ScenarioLoader, BoundaryValuesAccepted) {
  const Scenario s = load_scenario_from_string(
      std::string(kFaultBase) +
      "contingency cap=1 min_cap=1 hysteresis=0\n"
      "guard admission window=256 noise_floor=0\n"
      "forecast holtwinters hw_beta=0 hw_gamma=1 min_history=0\n");
  EXPECT_DOUBLE_EQ(s.contingency.max_post_failure_utilization, 1.0);
  EXPECT_DOUBLE_EQ(s.contingency.min_utilization, 1.0);
  EXPECT_EQ(s.guard.admission.mad_window, 256u);
  EXPECT_DOUBLE_EQ(s.forecast.hw_beta, 0.0);
  EXPECT_EQ(s.forecast.min_history, 0u);
}

}  // namespace
}  // namespace slate

// Contingency subsystem tests (docs/resilience.md): N-1 headroom math,
// drain orchestration, chaos-campaign determinism, and the two headline
// results bench/ext_contingency is built around.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "contingency/drain_orchestrator.h"
#include "core/plan_eval.h"
#include "fault/chaos_campaign.h"
#include "result_checks.h"
#include "runtime/scenario_loader.h"
#include "runtime/simulation.h"

namespace slate {
namespace {

// --- N-1 headroom (worst_case_margin) ---------------------------------------

// One service, one class, two clusters, one server each at 4ms compute
// (250 RPS per server), 100 RPS of ingress demand per cluster, all-local
// rules. If either cluster fails, its 100 RPS anycasts to the survivor:
// 200 RPS against one server = utilization 0.8.
TEST(Headroom, SingleFailureReroutesDemandToSurvivor) {
  Application app;
  app.add_service("s");
  TrafficClassSpec spec;
  spec.name = "k";
  spec.graph.set_root(ServiceId{0}, 4.0e-3, 512, 1024);
  app.add_class(std::move(spec));
  app.validate();

  Topology topology(2);
  topology.set_rtt(ClusterId{0}, ClusterId{1}, 20e-3);
  Deployment deployment(app, 2);
  deployment.deploy(ServiceId{0}, ClusterId{0}, 1, 250.0);
  deployment.deploy(ServiceId{0}, ClusterId{1}, 1, 250.0);

  LatencyModel model(1, 1, 2);
  for (std::size_t c = 0; c < 2; ++c) {
    model.set_service_time(ServiceId{0}, ClassId{0}, ClusterId{c}, 4.0e-3);
  }

  FlatMatrix<double> demand(1, 2, 0.0);
  demand(0, 0) = 100.0;
  demand(0, 1) = 100.0;

  RoutingRuleSet rules;
  for (std::size_t c = 0; c < 2; ++c) {
    RouteWeights w;
    w.clusters = {ClusterId{c}};
    w.weights = {1.0};
    rules.set_rule(ClassId{0}, 0, ClusterId{c}, std::move(w));
  }

  const double after_b = failure_max_utilization(
      app, deployment, topology, model, demand, rules, nullptr, ClusterId{1});
  EXPECT_NEAR(after_b, 0.8, 1e-9);

  ClusterId worst;
  const double margin = worst_case_margin(app, deployment, topology, model,
                                          demand, rules, nullptr, &worst);
  EXPECT_NEAR(margin, 0.8, 1e-9);  // symmetric world: either failure

  // Pre-failure utilization for comparison: 100 * 4ms / 1 = 0.4 — the
  // margin is genuinely about the post-failure world.
  const double pre_rate[1] = {100.0};
  EXPECT_NEAR(model.utilization(ServiceId{0}, ClusterId{0}, pre_rate, 1), 0.4,
              1e-9);
}

TEST(Headroom, DemandWithNoSurvivingEntryIsLostNotRerouted) {
  Application app;
  app.add_service("s");
  TrafficClassSpec spec;
  spec.name = "k";
  spec.graph.set_root(ServiceId{0}, 4.0e-3, 512, 1024);
  app.add_class(std::move(spec));
  app.validate();

  // The service exists ONLY in cluster 0: when cluster 0 fails there is no
  // reroute target, the demand is lost, and no surviving station heats up.
  Topology topology(2);
  topology.set_rtt(ClusterId{0}, ClusterId{1}, 20e-3);
  Deployment deployment(app, 2);
  deployment.deploy(ServiceId{0}, ClusterId{0}, 1, 250.0);

  LatencyModel model(1, 1, 2);
  model.set_service_time(ServiceId{0}, ClassId{0}, ClusterId{0}, 4.0e-3);

  FlatMatrix<double> demand(1, 2, 0.0);
  demand(0, 0) = 100.0;

  RoutingRuleSet rules;
  RouteWeights w;
  w.clusters = {ClusterId{0}};
  w.weights = {1.0};
  rules.set_rule(ClassId{0}, 0, ClusterId{0}, std::move(w));

  EXPECT_DOUBLE_EQ(failure_max_utilization(app, deployment, topology, model,
                                           demand, rules, nullptr, ClusterId{0}),
                   0.0);
}

// --- DrainOrchestrator -----------------------------------------------------

struct DrainHarness {
  std::uint64_t served = 0;
  bool down = false;
  std::vector<std::pair<ClusterId, double>> applied;

  DrainOrchestrator::Hooks hooks() {
    DrainOrchestrator::Hooks h;
    h.jobs_served = [this]() { return served; };
    h.cluster_down = [this](ClusterId) { return down; };
    h.apply_keep = [this](ClusterId c, double keep) {
      applied.emplace_back(c, keep);
    };
    return h;
  }
};

DrainSpec spec_for(ClusterId c, double start, double over,
                   double step = 0.25) {
  DrainSpec spec;
  spec.cluster = c;
  spec.start = start;
  spec.over = over;
  spec.step = step;
  return spec;
}

TEST(DrainOrchestrator, ValidatesSpecs) {
  DrainHarness h;
  EXPECT_THROW(DrainOrchestrator({spec_for(ClusterId{}, 0.0, 5.0)}, 1.0,
                                 h.hooks()),
               std::invalid_argument);
  EXPECT_THROW(DrainOrchestrator({spec_for(ClusterId{0}, 0.0, 0.0)}, 1.0,
                                 h.hooks()),
               std::invalid_argument);
  EXPECT_THROW(DrainOrchestrator({spec_for(ClusterId{0}, 0.0, 5.0, 1.5)}, 1.0,
                                 h.hooks()),
               std::invalid_argument);
  EXPECT_THROW(DrainOrchestrator({spec_for(ClusterId{0}, 0.0, 5.0)}, 0.0,
                                 h.hooks()),
               std::invalid_argument);
}

TEST(DrainOrchestrator, WalksKeepToZeroOverTheConfiguredWindow) {
  DrainHarness h;
  DrainOrchestrator orch({spec_for(ClusterId{2}, 2.0, 4.0, 1.0)}, 1.0,
                         h.hooks());
  // Healthy goodput throughout: +100 jobs per period.
  for (int t = 1; t <= 10; ++t) {
    h.served += 100;
    orch.tick(static_cast<double>(t));
  }
  EXPECT_EQ(orch.drains_started(), 1u);
  EXPECT_EQ(orch.drains_completed(), 1u);
  EXPECT_EQ(orch.drains_cancelled(), 0u);
  EXPECT_EQ(orch.drain_pause_periods(), 0u);
  // over=4s at control_period=1 caps the per-period step at 1/4: exactly 4
  // steps, landing on keep = 0.
  EXPECT_EQ(orch.drain_steps(), 4u);
  EXPECT_DOUBLE_EQ(orch.keep_fraction(ClusterId{2}), 0.0);
  ASSERT_FALSE(h.applied.empty());
  EXPECT_EQ(h.applied.front().first, ClusterId{2});
  EXPECT_DOUBLE_EQ(h.applied.back().second, 0.0);
  // Keep-fractions only ever move down while draining.
  for (std::size_t i = 1; i < h.applied.size(); ++i) {
    EXPECT_LT(h.applied[i].second, h.applied[i - 1].second);
  }
}

TEST(DrainOrchestrator, PausesWhileGoodputSagsAndResumesAfter) {
  DrainHarness h;
  DrainOrchestrator orch({spec_for(ClusterId{0}, 2.0, 4.0, 1.0)}, 1.0,
                         h.hooks());
  // Establish a healthy baseline before the drain starts.
  for (int t = 1; t <= 3; ++t) {
    h.served += 100;
    orch.tick(static_cast<double>(t));
  }
  const std::uint64_t steps_before = orch.drain_steps();
  // Goodput collapses: the drain must hold, not keep cutting.
  for (int t = 4; t <= 6; ++t) {
    h.served += 5;
    orch.tick(static_cast<double>(t));
  }
  EXPECT_GT(orch.drain_pause_periods(), 0u);
  EXPECT_EQ(orch.drain_steps(), steps_before);
  EXPECT_GT(orch.keep_fraction(ClusterId{0}), 0.0);
  // Health returns: the drain resumes and completes.
  for (int t = 7; t <= 20; ++t) {
    h.served += 100;
    orch.tick(static_cast<double>(t));
  }
  EXPECT_EQ(orch.drains_completed(), 1u);
  EXPECT_DOUBLE_EQ(orch.keep_fraction(ClusterId{0}), 0.0);
}

TEST(DrainOrchestrator, OutageCancelsDrainAndRestoresKeep) {
  DrainHarness h;
  DrainOrchestrator orch({spec_for(ClusterId{1}, 1.0, 4.0, 1.0)}, 1.0,
                         h.hooks());
  for (int t = 1; t <= 3; ++t) {
    h.served += 100;
    orch.tick(static_cast<double>(t));
  }
  EXPECT_LT(orch.keep_fraction(ClusterId{1}), 1.0);
  // The cluster goes down mid-drain: the outage wins.
  h.down = true;
  h.served += 100;
  orch.tick(4.0);
  EXPECT_EQ(orch.drains_cancelled(), 1u);
  EXPECT_EQ(orch.drains_completed(), 0u);
  EXPECT_DOUBLE_EQ(orch.keep_fraction(ClusterId{1}), 1.0);
  // A cancelled drain stays cancelled once the outage lifts.
  h.down = false;
  const std::uint64_t steps = orch.drain_steps();
  for (int t = 5; t <= 10; ++t) {
    h.served += 100;
    orch.tick(static_cast<double>(t));
  }
  EXPECT_EQ(orch.drain_steps(), steps);
  EXPECT_DOUBLE_EQ(orch.keep_fraction(ClusterId{1}), 1.0);
  EXPECT_EQ(orch.drains_cancelled(), 1u);
}

// --- Chaos campaigns -------------------------------------------------------

TEST(ChaosCampaign, ExpansionIsAPureFunctionOfSpecAndWorld) {
  CampaignSpec spec;
  spec.seed = 42;
  spec.events = 12;
  FaultPlan plan_a, plan_b;
  std::vector<DrainSpec> drains_a, drains_b;
  expand_campaign(spec, 4, 3, &plan_a, &drains_a);
  expand_campaign(spec, 4, 3, &plan_b, &drains_b);

  EXPECT_EQ(plan_a.size() + drains_a.size(), 12u);
  ASSERT_EQ(plan_a.size(), plan_b.size());
  for (std::size_t i = 0; i < plan_a.size(); ++i) {
    EXPECT_EQ(plan_a.faults()[i].kind, plan_b.faults()[i].kind);
    EXPECT_DOUBLE_EQ(plan_a.faults()[i].start, plan_b.faults()[i].start);
    EXPECT_DOUBLE_EQ(plan_a.faults()[i].duration,
                     plan_b.faults()[i].duration);
    EXPECT_EQ(plan_a.faults()[i].cluster, plan_b.faults()[i].cluster);
  }
  ASSERT_EQ(drains_a.size(), drains_b.size());
  for (std::size_t i = 0; i < drains_a.size(); ++i) {
    EXPECT_EQ(drains_a[i].cluster, drains_b[i].cluster);
    EXPECT_DOUBLE_EQ(drains_a[i].start, drains_b[i].start);
    EXPECT_DOUBLE_EQ(drains_a[i].over, drains_b[i].over);
  }
  // A different seed yields a different gauntlet.
  CampaignSpec other = spec;
  other.seed = 43;
  FaultPlan plan_c;
  std::vector<DrainSpec> drains_c;
  expand_campaign(other, 4, 3, &plan_c, &drains_c);
  bool differs = plan_c.size() != plan_a.size();
  for (std::size_t i = 0; !differs && i < plan_a.size(); ++i) {
    differs = plan_a.faults()[i].start != plan_c.faults()[i].start ||
              plan_a.faults()[i].kind != plan_c.faults()[i].kind;
  }
  EXPECT_TRUE(differs || drains_a.size() != drains_c.size());
}

TEST(ChaosCampaign, KindFilterAndValidationEnforced) {
  CampaignSpec spec;
  spec.events = 8;
  spec.kinds = {true, false, false, false};  // outages only
  FaultPlan plan;
  std::vector<DrainSpec> drains;
  expand_campaign(spec, 3, 2, &plan, &drains);
  EXPECT_EQ(plan.size(), 8u);
  EXPECT_TRUE(drains.empty());
  for (const FaultSpec& f : plan.faults()) {
    EXPECT_EQ(f.kind, FaultKind::kClusterOutage);
    EXPECT_GE(f.start, spec.start);
    EXPECT_GT(f.duration, 0.0);
  }

  CampaignSpec bad;
  bad.events = 0;
  EXPECT_THROW(expand_campaign(bad, 3, 2, &plan, &drains),
               std::invalid_argument);
  CampaignSpec none;
  none.events = 1;
  none.kinds = {false, false, false, false};
  EXPECT_THROW(expand_campaign(none, 3, 2, &plan, &drains),
               std::invalid_argument);
  CampaignSpec gray_no_services;
  gray_no_services.events = 1;
  gray_no_services.kinds = {false, true, false, false};
  EXPECT_THROW(expand_campaign(gray_no_services, 3, 0, &plan, &drains),
               std::invalid_argument);
  CampaignSpec partition_one_cluster;
  partition_one_cluster.events = 1;
  partition_one_cluster.kinds = {false, false, true, false};
  EXPECT_THROW(expand_campaign(partition_one_cluster, 1, 2, &plan, &drains),
               std::invalid_argument);
}

// --- Headline results (bench/ext_contingency, pinned) ----------------------

// The bench's triangle: a and b (500 RPS capacity each, 400 RPS demand,
// 10ms apart) with a big cluster c (1000 RPS capacity, 100 RPS demand)
// 30ms from both. b's failure doubles a's ingress unless the plan
// pre-spread load onto c.
Scenario triangle_scenario() {
  return load_scenario_from_string(R"(
scenario contingency-triangle
cluster a
cluster b
cluster c
rtt a b 10ms
rtt a c 30ms
rtt b c 30ms
egress_price 0.08

service ingress
service svc-1
class chain GET /chain
call chain root ingress compute=0.1ms req=512B resp=2KB
call chain ingress svc-1 compute=4ms req=512B resp=2KB

deploy ingress * servers=2 capacity=19000
deploy svc-1 a servers=2 capacity=475
deploy svc-1 b servers=2 capacity=475
deploy svc-1 c servers=4 capacity=950

demand chain a 400
demand chain b 400
demand chain c 100

overload deadline 500ms propagate=off
)");
}

RunConfig triangle_config() {
  RunConfig config;
  config.policy = PolicyKind::kSlate;
  config.duration = 70.0;
  config.warmup = 10.0;
  config.seed = 17;
  config.control_period = 1.0;
  config.timeseries_bucket = 1.0;
  config.failure.enabled = true;
  config.failure.call_timeout = 0.5;
  config.failure.max_retries = 2;
  return config;
}

// Headline pin (a): under a surprise single-cluster outage, the
// contingency-armed run holds >= 95% of pre-fault goodput through the
// failure window; the reactive-only run collapses.
TEST(ContingencyHeadline, ArmedRoutingHoldsGoodputThroughOutage) {
  Scenario scenario = triangle_scenario();
  scenario.faults.cluster_outage(ClusterId{1}, 40.0, 10.0);

  const ExperimentResult r = run_experiment(scenario, triangle_config());

  Scenario armed = scenario;
  armed.contingency.enabled = true;
  armed.contingency.max_post_failure_utilization = 0.95;
  const ExperimentResult c = run_experiment(armed, triangle_config());

  const double r_pre = r.goodput_in_window(30.0, 40.0);
  const double r_during = r.goodput_in_window(42.0, 49.0);
  const double c_pre = c.goodput_in_window(30.0, 40.0);
  const double c_during = c.goodput_in_window(42.0, 49.0);
  ASSERT_GT(r_pre, 0.0);
  ASSERT_GT(c_pre, 0.0);

  // Armed: >= 95% goodput held through the outage window.
  EXPECT_GE(c_during, 0.95 * c_pre);
  // Reactive-only: collapse (well under 60% of pre-fault goodput).
  EXPECT_LT(r_during, 0.6 * r_pre);

  // Telemetry: the armed run actually evaluated margins and re-priced;
  // the reactive run never touched the subsystem.
  EXPECT_GT(c.contingency_evals, 0u);
  EXPECT_GT(c.contingency_resolves, 0u);
  EXPECT_GT(c.contingency_margin_worst, 0.0);
  EXPECT_EQ(r.contingency_evals, 0u);
  EXPECT_EQ(r.contingency_resolves, 0u);
  EXPECT_EQ(r.contingency_margin_worst, 0.0);
}

// Headline pin (b): a coordinated drain beats yanking the cluster by
// >= 10x on lost goodput + wasted server-seconds.
TEST(ContingencyHeadline, CoordinatedDrainBeatsAbruptRemovalTenfold) {
  Scenario yank_world = triangle_scenario();
  yank_world.faults.cluster_outage(ClusterId{1}, 40.0, 30.0);
  const ExperimentResult yank = run_experiment(yank_world, triangle_config());

  Scenario drain_world = triangle_scenario();
  DrainSpec spec;
  spec.cluster = ClusterId{1};
  spec.start = 40.0;
  spec.over = 15.0;
  drain_world.drains.push_back(spec);
  const ExperimentResult drain = run_experiment(drain_world, triangle_config());

  auto removal_score = [](const ExperimentResult& r) {
    const double pre = r.goodput_in_window(30.0, 40.0);
    double served = 0.0;
    for (std::size_t t = 40; t < 65 && t < r.completed_series.size(); ++t) {
      served += static_cast<double>(r.completed_series[t]);
    }
    const double lost = std::max(0.0, pre * 25.0 - served);
    return lost + r.wasted_server_seconds;
  };

  const double yank_score = removal_score(yank);
  const double drain_score = removal_score(drain);
  EXPECT_GE(yank_score, 10.0 * std::max(drain_score, 1.0));

  // The drain actually ran to completion in bounded steps.
  EXPECT_EQ(drain.drains_started, 1u);
  EXPECT_EQ(drain.drains_completed, 1u);
  EXPECT_EQ(drain.drains_cancelled, 0u);
  EXPECT_GT(drain.drain_steps, 1u);
  // The yank run never touched the drain machinery.
  EXPECT_EQ(yank.drains_started, 0u);
  EXPECT_EQ(yank.drain_steps, 0u);
}

// Disabled contingency and absent drains leave zero telemetry and change
// nothing: two identical runs of the plain world agree bit-for-bit with a
// run where the subsystem is explicitly disarmed.
TEST(ContingencyHeadline, DisabledSubsystemIsInert) {
  const Scenario with_directives = load_scenario_from_string(R"(
cluster a
cluster b
rtt a b 20ms
service s
class k
call k root s compute=2ms
deploy * * servers=2 capacity=900
demand k a 300
demand k b 100
contingency cap=0.9
drain b @3s over=4s
)");
  Scenario plain = load_scenario_from_string(R"(
cluster a
cluster b
rtt a b 20ms
service s
class k
call k root s compute=2ms
deploy * * servers=2 capacity=900
demand k a 300
demand k b 100
)");

  RunConfig config;
  config.policy = PolicyKind::kSlate;
  config.duration = 10.0;
  config.warmup = 2.0;
  config.seed = 5;

  // Disarmed the way slate_cli --no-contingency --no-drains does it: the
  // fields cleared on the loaded scenario.
  Scenario disarmed = with_directives;
  disarmed.contingency = ContingencyOptions{};
  disarmed.drains.clear();

  const ExperimentResult b = run_experiment(disarmed, config);
  expect_same_result(run_experiment(plain, config), b);
  EXPECT_EQ(b.contingency_evals, 0u);
  EXPECT_EQ(b.drains_started, 0u);

  // And the armed version of the same world does engage both subsystems.
  const ExperimentResult armed = run_experiment(with_directives, config);
  EXPECT_GT(armed.contingency_evals, 0u);
  EXPECT_EQ(armed.drains_started, 1u);
}

}  // namespace
}  // namespace slate

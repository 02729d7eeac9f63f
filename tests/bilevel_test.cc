// Bi-level autoscaling x TE co-design tests (docs/autoscaling.md):
// server-price plumbing, server-hours accounting, the `bilevel`/`price`
// scenario directives, the disabled-is-inert guarantees, and the headline
// result bench/ext_bilevel is built around — co-design strictly beats the
// open-loop arm on total dollars at equal-or-better goodput and SLO
// attainment.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cluster/service_station.h"
#include "result_checks.h"
#include "runtime/scenario_loader.h"
#include "runtime/scenarios.h"
#include "runtime/simulation.h"
#include "workload/generators.h"

namespace slate {
namespace {

// --- Server pricing plumbing -----------------------------------------------

TEST(ServerPrice, DefaultsToZeroAndSetsPerCluster) {
  Topology topology(3);
  EXPECT_DOUBLE_EQ(topology.server_price_per_hour(ClusterId{1}), 0.0);
  topology.set_server_price(ClusterId{1}, 0.12);
  EXPECT_DOUBLE_EQ(topology.server_price_per_hour(ClusterId{1}), 0.12);
  EXPECT_DOUBLE_EQ(topology.server_price_per_hour(ClusterId{0}), 0.0);
  topology.set_uniform_server_price(0.05);
  EXPECT_DOUBLE_EQ(topology.server_price_per_hour(ClusterId{0}), 0.05);
  EXPECT_DOUBLE_EQ(topology.server_price_per_hour(ClusterId{2}), 0.05);
  EXPECT_THROW(topology.set_server_price(ClusterId{0}, -0.01),
               std::invalid_argument);
  EXPECT_THROW(topology.set_uniform_server_price(-1.0), std::invalid_argument);
}

TEST(ServerPrice, LifetimeServerSecondsIntegratesFleetChanges) {
  Simulator sim;
  Rng rng(7);
  ServiceStation st(sim, rng.fork(0), ServiceId{0}, ClusterId{0}, 4);
  sim.schedule_at(10.0, [&] { st.set_servers(2); });
  sim.schedule_at(15.0, [&] { st.set_servers(6); });
  sim.run_until(20.0);
  // 4 servers for 10s, 2 for 5s, 6 for 5s.
  EXPECT_DOUBLE_EQ(st.lifetime_server_seconds(), 4 * 10.0 + 2 * 5.0 + 6 * 5.0);
}

// --- Scenario directives ---------------------------------------------------

constexpr const char* kPricedScenario = R"(
scenario priced

cluster west
cluster east
rtt west east 25ms
egress_price 0.08
price west 0.15
price east 0.04

service ingress
service worker

class api GET /api/v1
call api root ingress compute=0.1ms req=512B resp=2KB
call api ingress worker compute=2ms req=512B resp=2KB

deploy * * servers=2 capacity=950
demand api west 400
demand api east 100

bilevel horizon=3s ttl=4s weight=2 target=0.7
)";

TEST(ScenarioLoader, ParsesPriceAndBilevelDirectives) {
  const Scenario s = load_scenario_from_string(kPricedScenario);
  EXPECT_DOUBLE_EQ(s.topology->server_price_per_hour(ClusterId{0}), 0.15);
  EXPECT_DOUBLE_EQ(s.topology->server_price_per_hour(ClusterId{1}), 0.04);
  EXPECT_TRUE(s.bilevel.enabled);
  EXPECT_DOUBLE_EQ(s.bilevel.horizon, 3.0);
  EXPECT_DOUBLE_EQ(s.bilevel.plan_ttl, 4.0);
  EXPECT_DOUBLE_EQ(s.bilevel.server_cost_weight, 2.0);
  EXPECT_DOUBLE_EQ(s.bilevel.price_target, 0.7);
}

TEST(ScenarioLoader, UniformPriceAndBadDirectivesRejected) {
  const Scenario s = load_scenario_from_string(R"(
scenario p
cluster a
cluster b
price * 0.10
service s
class k GET /
call k root s compute=1ms req=1KB resp=1KB
deploy * * servers=1 capacity=900
demand k a 100
)");
  EXPECT_DOUBLE_EQ(s.topology->server_price_per_hour(ClusterId{0}), 0.10);
  EXPECT_DOUBLE_EQ(s.topology->server_price_per_hour(ClusterId{1}), 0.10);

  EXPECT_THROW(load_scenario_from_string("scenario p\ncluster a\nprice a -1\n"),
               std::runtime_error);
  EXPECT_THROW(
      load_scenario_from_string("scenario p\ncluster a\nbilevel weight=-1\n"),
      std::runtime_error);
  EXPECT_THROW(
      load_scenario_from_string("scenario p\ncluster a\nbilevel target=1.5\n"),
      std::runtime_error);
  EXPECT_THROW(
      load_scenario_from_string("scenario p\ncluster a\nbilevel bogus=1\n"),
      std::runtime_error);
}

// --- Off-by-default / inert guarantees -------------------------------------

// Server-hour accounting is pure bookkeeping: with no prices set the dollar
// figure is zero, but server-seconds are still measured.
TEST(Bilevel, AccountingWithoutPricesIsFree) {
  const Scenario s = make_two_cluster_chain_scenario();
  RunConfig config;
  config.policy = PolicyKind::kSlate;
  config.duration = 20.0;
  config.warmup = 5.0;
  const ExperimentResult r = run_experiment(s, config);
  EXPECT_GT(r.server_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.server_cost_dollars, 0.0);
  EXPECT_DOUBLE_EQ(r.total_cost_dollars(), r.egress_cost_dollars);
  EXPECT_EQ(r.bilevel_plans_pushed, 0u);
}

// bilevel requires the slate policy AND the autoscaler; enabled without
// either it must silently disarm and leave the run untouched.
TEST(Bilevel, InertWithoutPrerequisites) {
  RunConfig base;
  base.policy = PolicyKind::kSlate;
  base.duration = 20.0;
  base.warmup = 5.0;
  const ExperimentResult plain =
      run_experiment(make_two_cluster_chain_scenario(), base);

  Scenario armed = make_two_cluster_chain_scenario();
  armed.bilevel.enabled = true;
  const ExperimentResult r1 = run_experiment(armed, base);  // no autoscaler
  EXPECT_EQ(r1.bilevel_plans_pushed, 0u);
  expect_same_result(r1, plain);

  RunConfig wrong_policy = base;
  wrong_policy.policy = PolicyKind::kLocalityFailover;
  wrong_policy.autoscaler_enabled = true;
  const ExperimentResult r2 = run_experiment(armed, wrong_policy);
  EXPECT_EQ(r2.bilevel_plans_pushed, 0u);
  EXPECT_EQ(r2.bilevel_capacity_overrides, 0u);
}

// A solver hold keeps the last solved plan in force: the coordinator keeps
// re-pushing its planned load through a mid-run outage of the armed ladder,
// exactly as it does on periods that solve.
TEST(Bilevel, SolverHoldKeepsPushingThePlanInForce) {
  Scenario scenario = make_two_cluster_chain_scenario();
  scenario.bilevel.enabled = true;
  scenario.guard.solver.enabled = true;
  RunConfig config;
  config.policy = PolicyKind::kSlate;
  config.duration = 30.0;
  config.warmup = 5.0;
  config.autoscaler_enabled = true;
  const ExperimentResult steady = run_experiment(scenario, config);

  Scenario outage(scenario);
  outage.faults.solver_outage(12.0, 5.0);  // shorter than hold_fresh_periods
  const ExperimentResult held = run_experiment(outage, config);
  ASSERT_GT(held.solver_holds, 0u);
  EXPECT_EQ(held.solver_arm_split, 0u);
  EXPECT_GT(steady.bilevel_plans_pushed, 0u);
  EXPECT_EQ(held.bilevel_plans_pushed, steady.bilevel_plans_pushed);
}

// --- The headline: co-design dominates open-loop ---------------------------

constexpr double kSloSeconds = 0.100;

// Mirror of bench/ext_bilevel's follow-the-sun world: three near-equilateral
// clusters, phase-shifted diurnals (constant 900 RPS total), cheap egress,
// and a 5x server-price spread so spill placement is a cost decision.
Scenario make_sun_scenario() {
  LinearChainOptions app;
  app.chain_length = 1;
  app.service_compute_mean = 4.0e-3;
  Scenario scenario;
  scenario.name = "follow-the-sun";
  scenario.app = std::make_unique<Application>(make_linear_chain_app(app));

  Topology topology(3);
  topology.set_rtt(ClusterId{0}, ClusterId{1}, 8e-3);
  topology.set_rtt(ClusterId{0}, ClusterId{2}, 10e-3);
  topology.set_rtt(ClusterId{1}, ClusterId{2}, 10e-3);
  topology.set_uniform_egress_price(0.01);
  topology.set_server_price(ClusterId{0}, 0.15);
  topology.set_server_price(ClusterId{1}, 0.12);
  topology.set_server_price(ClusterId{2}, 0.03);
  scenario.topology = std::make_unique<Topology>(std::move(topology));

  scenario.deployment = std::make_unique<Deployment>(*scenario.app, 3);
  for (ServiceId s : scenario.app->all_services()) {
    const bool gateway = scenario.app->service_name(s) == "ingress";
    for (std::size_t i = 0; i < 3; ++i) {
      const unsigned n = gateway ? 2 : 4;
      const double mu = gateway ? 1.0 / 0.1e-3 : 1.0 / 4.0e-3;
      scenario.deployment->deploy(s, ClusterId{i}, n, 0.95 * mu * n);
    }
  }

  const ClassId chain = scenario.app->find_class("chain");
  DiurnalSpec spec;
  spec.base = 300.0;
  spec.amplitude = 250.0;
  spec.period = 120.0;
  spec.end = 400.0;
  spec.step = 1.0;
  for (std::size_t i = 0; i < 3; ++i) {
    spec.phase = 40.0 * static_cast<double>(i);
    add_diurnal(scenario.demand, chain, ClusterId{i}, spec);
  }
  return scenario;
}

RunConfig sun_config() {
  RunConfig config;
  config.policy = PolicyKind::kSlate;
  config.duration = 300.0;
  config.warmup = 120.0;
  config.seed = 23;
  config.control_period = 1.0;
  config.autoscaler_enabled = true;
  config.autoscaler.target_utilization = 0.6;
  config.autoscaler.evaluation_period = 5.0;
  config.autoscaler.provision_delay = 10.0;
  config.autoscaler.up_cooldown = 5.0;
  config.autoscaler.down_cooldown = 20.0;
  config.autoscaler.min_servers = 1;
  config.autoscaler.max_servers = 16;
  return config;
}

double slo_attainment(const ExperimentResult& r) {
  std::size_t hits = 0, total = 0;
  for (const SampleSet& s : r.e2e_by_class) {
    for (double v : s.samples()) {
      ++total;
      if (v <= kSloSeconds) ++hits;
    }
  }
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
}

TEST(Bilevel, CoDesignDominatesOpenLoopOnTotalDollars) {
  const Scenario scenario = make_sun_scenario();
  Scenario co_design = scenario;
  co_design.bilevel.enabled = true;
  co_design.bilevel.server_cost_weight = 3600.0;

  const ExperimentResult open = run_experiment(scenario, sun_config());
  const ExperimentResult co = run_experiment(co_design, sun_config());

  // The coordinator actually ran and priced the fleet.
  EXPECT_GT(co.bilevel_plans_pushed, 0u);
  EXPECT_GT(co.server_cost_dollars, 0.0);
  EXPECT_GT(open.server_cost_dollars, 0.0);

  // Strict dominance on total dollars (egress + server-hours)...
  EXPECT_LT(co.total_cost_dollars(), open.total_cost_dollars());
  // ...at equal-or-better goodput and p99 SLO attainment.
  EXPECT_GE(co.goodput_rps(), 0.999 * open.goodput_rps());
  EXPECT_GE(slo_attainment(co) + 1e-4, slo_attainment(open));
  EXPECT_GE(slo_attainment(co), 0.99);
}

}  // namespace
}  // namespace slate

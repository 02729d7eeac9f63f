// Extension experiment: bi-level autoscaling x TE co-design on a
// follow-the-sun diurnal (docs/autoscaling.md; paper §5 "Interaction
// between request routing and autoscaler").
//
// Three clusters running the two-stage chain (ingress -> svc-1 @ 4ms),
// phase-shifted diurnal sinusoids (the 120s "sun" walks a -> b -> c; total
// offered load is constant at 900 RPS but each region swings 50..550), and
// differentiated server prices: c runs on cheap power at a fraction of a's
// $/server-hour. Egress is deliberately cheap ($0.01/GB) and the triangle
// nearly equilateral, so WHERE spill lands is a cost decision, not a
// latency decision.
//
// Four arms, all scored on total dollars (egress + server-hours) over the
// measured window, goodput, and p99-vs-SLO attainment:
//
//   te-fixed     SLATE TE, capacity frozen at peak provisioning. The
//                routing is optimal but every trough's servers idle at
//                full price.
//   scaler-only  locality failover + per-station autoscalers. Cheap — no
//                egress, troughs scaled in — but every ramp outruns the
//                provisioning delay with nowhere to spill, so p99 blows
//                through the SLO twice per period.
//   open-loop    SLATE TE + autoscalers, no coupling. Each loop chases
//                the other: TE spreads a ramp onto capacity the scaler is
//                still provisioning, the scaler sizes for load TE already
//                moved away, and nobody sees server prices.
//   co-design    the `bilevel` coordinator: the solver prices planned busy
//                work at each cluster's $/server-hour and shifts spill
//                toward cheap capacity, autoscalers provision for the
//                routed plan, and the solver plans on provisioning-lag-
//                aware effective capacity.
//
// The pinned reading (tests/bilevel_test.cc): co-design strictly beats
// open-loop on total dollars at equal-or-better goodput and SLO
// attainment, and beats every arm on cost-at-SLO.
#include <cstdio>

#include "bench_util.h"
#include "runtime/scenarios.h"
#include "workload/generators.h"

using namespace slate;

namespace {

constexpr double kSloSeconds = 0.100;  // per-request p99 SLO

Scenario make_follow_the_sun_scenario() {
  LinearChainOptions app;
  app.chain_length = 1;
  app.service_compute_mean = 4.0e-3;  // 250 RPS per server
  Scenario scenario;
  scenario.name = "follow-the-sun";
  scenario.app = std::make_unique<Application>(make_linear_chain_app(app));

  Topology topology(3);
  const ClusterId a{0}, b{1}, c{2};
  topology.set_rtt(a, b, 8e-3);
  topology.set_rtt(a, c, 10e-3);
  topology.set_rtt(b, c, 10e-3);
  topology.set_uniform_egress_price(0.01);
  // The cost landscape: c's server-hours cost a fifth of a's.
  topology.set_server_price(a, 0.15);
  topology.set_server_price(b, 0.12);
  topology.set_server_price(c, 0.03);
  scenario.topology = std::make_unique<Topology>(std::move(topology));

  // Peak-provisioned: 4 svc-1 servers = 1000 RPS per cluster against a 550
  // RPS regional peak. The fixed arm runs this fleet as-is; the autoscaled
  // arms walk troughs down and peaks back up.
  scenario.deployment = std::make_unique<Deployment>(*scenario.app, 3);
  for (ServiceId s : scenario.app->all_services()) {
    const bool gateway = scenario.app->service_name(s) == "ingress";
    for (std::size_t i = 0; i < 3; ++i) {
      const unsigned n = gateway ? 2 : 4;
      const double mu = gateway ? 1.0 / 0.1e-3 : 1.0 / 4.0e-3;
      scenario.deployment->deploy(s, ClusterId{i}, n, 0.95 * mu * n);
    }
  }

  // The sun: 120s period, each region 40s behind the previous, constant
  // 900 RPS total. end covers the longest run below.
  const ClassId chain = scenario.app->find_class("chain");
  DiurnalSpec spec;
  spec.base = 300.0;
  spec.amplitude = 250.0;
  spec.period = 120.0;
  spec.end = 600.0;
  spec.step = 1.0;
  for (std::size_t i = 0; i < 3; ++i) {
    spec.phase = 40.0 * static_cast<double>(i);
    add_diurnal(scenario.demand, chain, ClusterId{i}, spec);
  }
  return scenario;
}

RunConfig base_config() {
  RunConfig config;
  config.policy = PolicyKind::kSlate;
  config.duration = 360.0;  // two full periods measured after warmup
  config.warmup = 120.0;
  config.seed = 23;
  config.control_period = 1.0;
  return config;
}

AutoscalerOptions scaler_options() {
  AutoscalerOptions options;
  options.target_utilization = 0.6;
  options.evaluation_period = 5.0;
  options.provision_delay = 10.0;
  options.up_cooldown = 5.0;
  options.down_cooldown = 20.0;  // ups chase the sun, downs lag the trough
  options.min_servers = 1;
  options.max_servers = 16;
  return options;
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

}  // namespace

int main() {
  bench::print_header("Extension",
                      "bi-level autoscaling x TE co-design, follow-the-sun");

  const Scenario scenario = make_follow_the_sun_scenario();
  Scenario co_design_world = scenario;
  co_design_world.bilevel.enabled = true;
  co_design_world.bilevel.server_cost_weight = 3600.0;  // $/server-HOUR parity

  std::vector<GridJob> jobs;
  {
    RunConfig fixed = base_config();
    jobs.push_back({&scenario, fixed, "te-fixed"});

    RunConfig scaler_only = base_config();
    scaler_only.policy = PolicyKind::kLocalityFailover;
    scaler_only.autoscaler_enabled = true;
    scaler_only.autoscaler = scaler_options();
    jobs.push_back({&scenario, scaler_only, "scaler-only"});

    RunConfig open_loop = base_config();
    open_loop.autoscaler_enabled = true;
    open_loop.autoscaler = scaler_options();
    jobs.push_back({&scenario, open_loop, "open-loop"});

    jobs.push_back({&co_design_world, open_loop, "co-design"});
  }

  const std::vector<ExperimentResult> results = bench::run_grid(jobs);

  std::printf("\n%-12s %10s %10s %10s %10s %8s %8s %9s\n", "arm",
              "total_$", "server_$", "egress_$", "goodput", "p99_ms",
              "slo_att", "srv_hours");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    std::printf("%-12s %10.5f %10.5f %10.5f %10.1f %8.2f %8.4f %9.3f\n",
                jobs[i].label.c_str(), r.total_cost_dollars(),
                r.server_cost_dollars, r.egress_cost_dollars, r.goodput_rps(),
                r.p99() * 1e3, slo_attainment(r), r.server_seconds / 3600.0);
    std::printf("data,%s,%.6f,%.6f,%.6f,%.2f,%.3f,%.5f\n",
                jobs[i].label.c_str(), r.total_cost_dollars(),
                r.server_cost_dollars, r.egress_cost_dollars, r.goodput_rps(),
                r.p99() * 1e3, slo_attainment(r));
  }

  const ExperimentResult& co = results[3];
  std::printf(
      "\nbilevel telemetry: %llu plans pushed down, %llu capacity overrides, "
      "%llu ups / %llu downs\n",
      static_cast<unsigned long long>(co.bilevel_plans_pushed),
      static_cast<unsigned long long>(co.bilevel_capacity_overrides),
      static_cast<unsigned long long>(co.autoscaler_scale_ups),
      static_cast<unsigned long long>(co.autoscaler_scale_downs));

  std::printf(
      "\nreading: te-fixed pays peak servers around the clock; scaler-only "
      "is cheap\nbut blows the SLO on every ramp (no spill path while "
      "capacity provisions);\nopen-loop couples two controllers that "
      "cannot see each other and prices\nnothing. co-design routes spill "
      "toward cheap capacity, provisions for the\nplan, and plans on "
      "capacity that will actually exist — lowest total dollars\namong "
      "SLO-attaining arms.\n");
  return 0;
}

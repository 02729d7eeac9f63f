// Extension experiment: generality beyond the paper's microbenchmarks.
//
// The paper's introduction motivates SLATE with production-scale apps
// ("tens or hundreds of microservices", "trees of endpoint API calls").
// This bench runs the 8-service, 3-class social-network app (parallel
// fan-out, fractional sub-calls, 50KB media responses) on the real GCP
// topology with one hot region, comparing every policy in the library.
#include <cstdio>

#include "bench_util.h"
#include "net/gcp_topology.h"
#include "runtime/scenarios.h"

using namespace slate;

int main() {
  bench::print_header("Extension", "social-network app on the GCP topology");

  // SLATE_SHARDS=<n> runs every job partitioned by latency island (one
  // island per GCP region) with up to n workers; 0 / unset keeps the whole
  // world on one island, the reference partition. Results are
  // byte-identical across worker counts n >= 1, so CI's TSan smoke uses
  // this to race-test the exact workload measured here.
  const std::size_t shards = bench::env_count("SLATE_SHARDS", 0);
  if (shards > 0) std::printf("latency islands: SLATE_SHARDS=%zu\n", shards);

  Scenario scenario = make_uniform_scenario(
      "social-network", make_social_network_app(), make_gcp_topology(), 2);
  // OR is the hot region (think: US-West evening peak).
  const Application& app = *scenario.app;
  const ClassId read = app.find_class("read-timeline");
  const ClassId write = app.find_class("write-post");
  const ClassId profile = app.find_class("view-profile");
  const ClusterId orc{0}, ut{1}, iow{2}, sc{3};
  scenario.demand.set_rate(read, orc, 700.0);
  scenario.demand.set_rate(write, orc, 140.0);
  scenario.demand.set_rate(profile, orc, 220.0);
  for (ClusterId c : {ut, iow, sc}) {
    scenario.demand.set_rate(read, c, 80.0);
    scenario.demand.set_rate(write, c, 20.0);
    scenario.demand.set_rate(profile, c, 40.0);
  }

  RunConfig config;
  config.duration = 60.0;
  config.warmup = 15.0;
  config.seed = 71;
  config.shards = shards;

  // Five policies, one grid job each.
  std::vector<GridJob> jobs;
  for (PolicyKind policy :
       {PolicyKind::kLocalityFailover, PolicyKind::kRoundRobin,
        PolicyKind::kStaticWeights, PolicyKind::kWaterfall,
        PolicyKind::kSlate}) {
    config.policy = policy;
    jobs.push_back({&scenario, config, to_string(policy)});
  }
  const std::vector<ExperimentResult> results = bench::run_grid(jobs);

  std::printf("%-20s %10s %10s %10s | %10s %10s %10s\n", "policy", "mean",
              "p95", "p99", "read", "write", "profile");
  ExperimentResult best_baseline, slate;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const PolicyKind policy = jobs[i].config.policy;
    const ExperimentResult& r = results[i];
    std::printf("%-20s %8.2fms %8.2fms %8.2fms | %8.2fms %8.2fms %8.2fms\n",
                r.policy.c_str(), r.mean_latency() * 1e3, r.p95() * 1e3,
                r.p99() * 1e3, r.e2e_by_class[read.index()].mean() * 1e3,
                r.e2e_by_class[write.index()].mean() * 1e3,
                r.e2e_by_class[profile.index()].mean() * 1e3);
    std::printf("data,social,%s,%.3f,%.3f,%.3f\n", r.policy.c_str(),
                r.mean_latency() * 1e3, r.p95() * 1e3, r.p99() * 1e3);
    if (policy == PolicyKind::kWaterfall) best_baseline = r;
    if (policy == PolicyKind::kSlate) slate = r;
  }
  std::printf("\nslate vs waterfall: %.2fx mean latency, %.2fx egress cost\n",
              best_baseline.mean_latency() / slate.mean_latency(),
              slate.egress_cost_dollars > 0
                  ? best_baseline.egress_cost_dollars / slate.egress_cost_dollars
                  : 0.0);
  std::printf(
      "\nreading: class-aware, multi-hop optimization generalizes past the\n"
      "paper's 3-service chains — the heavy parallel-fanout read class is\n"
      "steered independently of cheap profile reads.\n");
  return 0;
}

// Ablation: resilience to prediction error (paper §5).
//
// We inject a wrong latency model (every service time scaled by a factor)
// into SLATE's global controller with online re-fitting disabled, so the
// optimizer plans against systematically bad predictions. Compared
// configurations:
//   * unguarded  — rules applied at full step every period;
//   * guarded    — guarded rollout (§5's sketch): damped steps toward the
//                  target, a canary that rolls back a push when live
//                  goodput/p99 regress, and a flap freeze;
//   * refit      — misprediction present initially but online fitting on
//                  (the deployed configuration).
#include <cstdio>

#include "bench_util.h"
#include "runtime/scenarios.h"

using namespace slate;

namespace {

struct Variant {
  double scale;
  const char* name;
  bool guarded;
  bool refit;
};

}  // namespace

int main() {
  bench::print_header("Ablation",
                      "guarded rollout under model misprediction (§5)");

  TwoClusterChainParams params;
  params.west_rps = 700.0;
  params.east_rps = 100.0;
  const Scenario scenario = make_two_cluster_chain_scenario(params);
  Scenario guarded_scenario(scenario);
  guarded_scenario.guard.rollout.enabled = true;

  std::vector<Variant> variants;
  for (double scale : {1.0, 4.0, 0.25}) {
    variants.push_back({scale, "unguarded, frozen", false, false});
    variants.push_back({scale, "guarded, frozen", true, false});
    variants.push_back({scale, "unguarded, refit", false, true});
  }
  std::vector<GridJob> jobs;
  for (const Variant& v : variants) {
    RunConfig config;
    config.policy = PolicyKind::kSlate;
    config.duration = 60.0;
    config.warmup = 20.0;
    config.seed = 41;
    config.slate.initial_model_scale = v.scale;
    config.slate.freeze_model = !v.refit;
    jobs.push_back({v.guarded ? &guarded_scenario : &scenario, config, v.name});
  }
  const std::vector<ExperimentResult> results = bench::run_grid(jobs);

  std::printf("%-12s %-22s %14s %12s %10s\n", "model_scale", "configuration",
              "mean (ms)", "p99 (ms)", "rollbacks");
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const Variant& v = variants[i];
    const ExperimentResult& r = results[i];
    std::printf("%-12.2f %-22s %14.2f %12.2f %10llu\n", v.scale, v.name,
                r.mean_latency() * 1e3, r.p99() * 1e3,
                static_cast<unsigned long long>(r.rollout_rollbacks));
    std::printf("data,guardrails,%.2f,%s,%.3f,%.3f,%llu\n", v.scale, v.name,
                r.mean_latency() * 1e3, r.p99() * 1e3,
                static_cast<unsigned long long>(r.rollout_rollbacks));
  }
  std::printf(
      "\nreading: with an exact model (scale 1) all configurations agree.\n"
      "Pessimistic misprediction (scale 4: services look slower than they\n"
      "are) causes mild over-offloading. Optimistic misprediction (scale\n"
      "0.25: the model believes capacity is ample) is the dangerous case -\n"
      "the optimizer never proposes offloading, the local cluster melts\n"
      "down, and guarded rollout cannot help because there is no bad *change*\n"
      "to roll back; only online re-fitting (the deployed configuration)\n"
      "recovers.\n"
      "This sharpens the paper's §5 point: incremental-apply-and-verify\n"
      "bounds damage from wrong shifts, but model re-learning is what\n"
      "handles wrong models.\n");
  return 0;
}

// Contingency-aware traffic engineering: shared types.
//
// Reactive mechanisms in this repo (fault age-out, breakers, rollout
// rollback, admission cuts) all engage after a failure has landed and queues
// have built. The contingency subsystem plans ahead instead:
//
//   * N-1 headroom planning (worst_case_margin in core/plan_eval.h, run by
//     the global controller) verifies that the
//     post-failure reroute of the chosen routing plan fits within per-station
//     utilization caps for every single-cluster failure, and pads the
//     optimizer's utilization cap until it does.
//   * Coordinated drains (drain_orchestrator.h) phase traffic off a cluster
//     in bounded per-period steps gated on downstream health, instead of
//     yanking capacity cliff-edge.
//
// Both are off by default; a disabled run schedules no events and draws no
// random numbers, so results are bit-identical to a build without the
// subsystem at every shard count.
#pragma once

#include <cstddef>
#include <stdexcept>

#include "util/ids.h"

namespace slate {

// Options for N-1 headroom planning, carried inside GlobalControllerOptions.
// When enabled, every accepted exact solve is stress-tested against the
// failure set (each cluster singly); if the worst-case post-failure max
// station utilization exceeds `max_post_failure_utilization`, the plan is
// re-priced with a padded (lower) primary utilization cap until the reroute
// fits or the pad floor is reached.
struct ContingencyOptions {
  bool enabled = false;

  // Worst-case post-failure max station utilization the plan must keep.
  double max_post_failure_utilization = 0.95;

  // Padding is quantized: level L solves with primary cap reduced by
  // L * pad_step. Quantization keeps the padded-solve inputs stable across
  // periods so the warm-start cache and steady-state memo keep hitting.
  double pad_step = 0.05;

  // The padded primary cap never goes below this floor (a plan squeezed
  // tighter than this wastes more capacity than the failure it insures).
  double min_utilization = 0.30;

  // A pad level is relaxed one step (next period) only when the margin sits
  // below cap - relax_hysteresis, preventing pad-level flapping.
  double relax_hysteresis = 0.05;

  // Throws std::invalid_argument naming the scenario attribute (cap,
  // pad_step, min_cap, hysteresis) that is out of range.
  void validate() const {
    const auto check = [](bool ok, const char* what) {
      if (!ok) throw std::invalid_argument(what);
    };
    const double cap = max_post_failure_utilization;
    check(cap > 0.0 && cap <= 1.0, "contingency cap must be in (0, 1]");
    check(pad_step > 0.0 && pad_step < 1.0,
          "contingency pad_step must be in (0, 1)");
    check(min_utilization > 0.0 && min_utilization <= 1.0,
          "contingency min_cap must be in (0, 1]");
    check(relax_hysteresis >= 0.0, "contingency hysteresis must be >= 0");
    check(min_utilization <= cap, "contingency needs min_cap <= cap");
  }
};

// One coordinated drain: phase traffic off `cluster` starting at `start`,
// reaching zero after `over` seconds of healthy progress. The orchestrator
// reduces the cluster's keep-fraction by at most `step` per control period
// (and no faster than completing in `over` seconds), pausing while measured
// goodput sags below `sag_threshold` x the pre-drain baseline.
struct DrainSpec {
  ClusterId cluster;
  double start = 0.0;
  double over = 0.0;
  double step = 0.25;
  double sag_threshold = 0.85;
};

}  // namespace slate

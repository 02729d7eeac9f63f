// Control-plane hardening knobs (docs/control_plane.md).
//
// Three independent gates sit between telemetry ingest, the optimizer, and
// rule distribution:
//
//   * admission — per-cluster ClusterReport validation: non-finite /
//     negative / implausible fields are replaced with last-good values, and
//     per-(class, cluster) spikes beyond a rolling MAD bound are clamped
//     instead of poisoning the demand matrix;
//   * solver    — the fallback ladder around the optimizer always runs
//     (primary solver → hold last-known-good); arming it adds the fast
//     heuristic and capacity-proportional split rungs in between;
//   * rollout   — versioned rule pushes with per-period weight-delta
//     damping, a canary window with auto-rollback, and a flap detector
//     that freezes updates while the weight vector oscillates.
//
// Each gate is off by default; scenario `guard` directives (or a program
// setting Scenario::guard) arm them independently.
#pragma once

#include <cstddef>
#include <cstdint>

namespace slate {

struct AdmissionOptions {
  bool enabled = false;
  // Hard plausibility ceilings. Anything above is treated like a
  // non-finite field: rejected and replaced with the last-good value.
  double max_rps = 1e6;
  double max_latency = 300.0;      // seconds
  double max_utilization = 8.0;    // utilization is busy-fraction-ish; >> 1
                                   // only under pathological reporting
  // Rolling median-absolute-deviation spike gate, per (class, cluster)
  // series. A value x is a spike when |x - median| exceeds
  // mad_threshold * max(MAD, mad_noise_floor * median). Only ADMITTED
  // values enter the reference window — a byzantine reporter cannot rot
  // the median it is judged against. A genuine level shift is readmitted
  // once min_history CONSECUTIVE rejects agree with each other (their
  // dispersion around their own median stays within the noise floor).
  std::size_t mad_window = 16;
  std::size_t min_history = 5;     // samples before the spike gate arms
  double mad_threshold = 8.0;
  double mad_noise_floor = 0.1;
  // Per-cluster trust score in [min_trust, 1]. Each period with any
  // violation decays it, each clean period recovers it; the controller
  // scales a cluster's demand-smoothing gain by its trust, so chronically
  // noisy reporters move the demand matrix slowly.
  double trust_decay = 0.25;
  double trust_recovery = 0.05;
  double min_trust = 0.05;
};

struct SolverGuardOptions {
  bool enabled = false;
  // Wall-clock budget per solve, seconds; 0 = none. Solve times are always
  // measured and reported. A set budget is enforced (the ladder descends
  // when a rung overruns it), which makes the chosen rung depend on host
  // timing — reproducible runs leave it at 0 and rely on status-based
  // descent (infeasibility, iteration limits, injected outages), which is
  // deterministic.
  double wall_budget = 0.0;
  // Local-preference multiplier for the capacity-split rung: the origin
  // cluster's own capacity counts this many times before normalizing.
  double split_local_bias = 2.0;
  // When an actuated plan exists, the ladder settles on hold-last-good for
  // this many consecutive degraded periods before actuating the
  // demand-blind capacity split: a freshly-solved plan beats a synthetic
  // one for a short outage, while a dragging outage still actuates the
  // split (live capacity may have moved since the plan was cut). 0
  // actuates immediately.
  std::size_t hold_fresh_periods = 15;
};

struct RolloutOptions {
  bool enabled = false;
  // Largest per-rule L-inf weight change applied in one push; bigger
  // targets are approached in steps (hysteresis against rule swings).
  double max_weight_delta = 0.25;
  // Periods a fresh push is canaried against the pre-push baseline.
  std::size_t canary_periods = 2;
  // Roll back when goodput falls below (1 - goodput_drop) x baseline, or
  // observed p99 rises above (1 + p99_rise) x baseline during the canary.
  double goodput_drop = 0.25;
  double p99_rise = 0.75;
  // Canary verdicts need at least this many e2e samples on both sides.
  std::uint64_t min_samples = 50;
  // Flap detector: mean L1 distance between successive pushed weight
  // vectors over flap_window pushes; above flap_threshold updates freeze
  // for freeze_periods and damping tightens until pushes calm down.
  double flap_threshold = 0.5;
  std::size_t flap_window = 4;
  std::size_t freeze_periods = 3;
  double damping_floor = 0.25;
};

struct GuardOptions {
  AdmissionOptions admission;
  SolverGuardOptions solver;
  RolloutOptions rollout;

  [[nodiscard]] bool any_enabled() const noexcept {
    return admission.enabled || solver.enabled || rollout.enabled;
  }
};

}  // namespace slate

// Guarded rule rollout (docs/control_plane.md §rollout).
//
// Every rule push is a fleet-wide actuation; this stage makes each one
// reversible and rate-limited:
//
//   * damping — the per-rule L-inf weight change of one push is capped;
//     bigger optimizer jumps are approached over several periods;
//   * canary — after a push, live goodput/p99 are compared against the
//     pre-push baseline for a window; a regression rolls the fleet back
//     to the last rule set that survived a canary (last-known-good) and
//     freezes updates while telemetry recovers;
//   * flap detection — the mean L1 distance between successive pushes is
//     tracked over a rolling window; sustained oscillation freezes
//     updates and tightens damping until pushes calm down.
//
// The caller (GlobalController) drives two phases per control period:
// observe() with this period's live telemetry before solving (canary
// verdicts and freeze bookkeeping), then apply() with the solver's target
// (damping, flap detection, and the actual push decision). The caller
// also stamps every push it returns, rollbacks included, with the epoch
// cluster controllers use to discard stale pushes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "guard/guard_options.h"
#include "routing/weighted_rules.h"

namespace slate {

struct RolloutDecision {
  // Rules to push this period; null = no push (hold current rules).
  std::shared_ptr<const RoutingRuleSet> rules;
  // True when `rules` is a rollback to last-known-good.
  bool rolled_back = false;
  // True when the caller should skip solving/pushing this period
  // (mid-canary evaluation or flap freeze).
  bool hold = false;
};

class RuleRollout {
 public:
  explicit RuleRollout(RolloutOptions options);

  // Phase 1 (every period, before solving): evaluates an active canary
  // against live telemetry and ticks freezes. `goodput_rps` and `p99` are
  // this period's observed values; `samples` the e2e sample count behind
  // them. Returns a rollback push, or hold=true while a canary/freeze is
  // pending, or an empty decision when the caller may proceed to solve.
  RolloutDecision observe(double goodput_rps, double p99,
                          std::uint64_t samples);

  // Phase 2 (same period, with the solver's target, which may be null):
  // damps the step, checks for flapping, and either applies (returning
  // the blended rules to push) or holds.
  RolloutDecision apply(std::shared_ptr<const RoutingRuleSet> target);

  [[nodiscard]] std::shared_ptr<const RoutingRuleSet> last_known_good()
      const noexcept {
    return last_good_;
  }

  [[nodiscard]] std::uint64_t pushes() const noexcept { return pushes_; }
  [[nodiscard]] std::uint64_t rollbacks() const noexcept { return rollbacks_; }
  [[nodiscard]] std::uint64_t flap_freezes() const noexcept {
    return flap_freezes_;
  }
  [[nodiscard]] std::uint64_t damped_pushes() const noexcept {
    return damped_pushes_;
  }
  [[nodiscard]] bool frozen() const noexcept { return freeze_remaining_ > 0; }
  [[nodiscard]] double damping_scale() const noexcept { return damping_; }

 private:
  RolloutOptions options_;

  std::shared_ptr<const RoutingRuleSet> current_;
  std::shared_ptr<const RoutingRuleSet> last_good_;

  // Canary state: >0 while a recent push is under evaluation.
  std::size_t canary_remaining_ = 0;
  double baseline_goodput_ = -1.0;
  double baseline_p99_ = -1.0;
  bool baseline_valid_ = false;

  std::size_t freeze_remaining_ = 0;
  double damping_ = 1.0;

  // Rolling L1 distances between successive pushes.
  std::vector<double> flap_ring_;
  std::size_t flap_next_ = 0;
  std::size_t flap_count_ = 0;

  std::uint64_t pushes_ = 0;
  std::uint64_t rollbacks_ = 0;
  std::uint64_t flap_freezes_ = 0;
  std::uint64_t damped_pushes_ = 0;
};

}  // namespace slate

// Solver fallback chain (docs/control_plane.md §solver).
//
// A control loop that returns nothing when its solver hiccups leaves the
// fleet executing stale weights indefinitely. The guard is the controller's
// one solve path: it wraps the optimizers in a descending ladder of
// cheaper, more robust plans:
//
//   rung 0  primary      the exact LP/MILP route optimizer
//   rung 1  fast         the marginal-cost descent heuristic, also selected
//                        when the exact solve blows the wall budget
//   rung 2  split        capacity-proportional weights with local bias,
//                        computed directly from deployment + live servers
//                        (a Waterfall-equivalent plan: demand-blind but
//                        always feasible)
//   rung 3  hold         no rules — the data plane keeps last-known-good
//
// The ladder always runs. Disarmed (SolverGuardOptions::enabled false) it
// has rungs 0 and 3 only: a primary that fails settles on hold. Armed, the
// `guard solver` directive adds rungs 1-2 and the hold-fresh streak.
//
// Descent is deterministic: a rung is skipped when its solver reports
// infeasibility/failure or when an injected solver outage marks the
// model-driven rungs (0-1) down. A wall-clock budget only forces descent
// when one is set — host timing must not change the plan in reproducible
// runs. Solve wall time is reported by the controller's SolveTelemetry
// (the `solver_*_seconds` result rows), not here.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>

#include "core/fast_optimizer.h"
#include "core/optimizer.h"
#include "guard/guard_options.h"

namespace slate {

enum class SolverRung : std::uint8_t {
  kPrimary = 0,
  kFastHeuristic = 1,
  kCapacitySplit = 2,
  kHoldLastGood = 3,
};

const char* to_string(SolverRung rung) noexcept;

class SolverGuard {
 public:
  SolverGuard(const Application& app, const Deployment& deployment,
              const Topology& topology, SolverGuardOptions options);

  struct Outcome {
    OptimizerResult result;
    SolverRung rung = SolverRung::kHoldLastGood;
  };

  // Runs the ladder. `primary` is the controller's exact optimizer; rung 1
  // uses the guard's own descent heuristic. `cache`, if non-null, carries
  // the primary optimizer's warm-start state across periods (rung 0 only).
  // `solver_down` marks the model-driven rungs 0-1 unavailable (an injected
  // outage / forced timeout). Armed, `have_last_good` says the caller holds
  // an actuated plan: for the first `hold_fresh_periods` consecutive
  // degraded periods the ladder then settles on hold instead of the
  // demand-blind capacity split — a fresh solved plan beats a synthetic
  // one for a short outage, while a dragging outage still actuates the
  // split (live capacity may have moved since the plan was cut). Disarmed,
  // every degraded period settles on hold. The returned result's rules are
  // null only on the hold rung.
  Outcome solve(const RouteOptimizer& primary, const LatencyModel& model,
                const FlatMatrix<double>& demand,
                const std::vector<unsigned>* live_servers,
                OptimizerCache* cache, bool solver_down, bool have_last_good);

  [[nodiscard]] std::uint64_t rung_count(SolverRung rung) const noexcept {
    return rung_counts_[static_cast<std::size_t>(rung)];
  }
  // Solves settled below the primary rung.
  [[nodiscard]] std::uint64_t fallbacks() const noexcept {
    return rung_counts_[1] + rung_counts_[2] + rung_counts_[3];
  }

 private:
  // Rung 2: capacity-proportional weights with local preference for every
  // (class, call-node, origin) the optimizer would emit a rule for.
  [[nodiscard]] OptimizerResult capacity_split(
      const LatencyModel& model, const std::vector<unsigned>* live_servers) const;

  // True when the result is usable (and, with a budget set, within it).
  [[nodiscard]] bool accept(const OptimizerResult& result,
                            double elapsed_seconds) const;

  const Application* app_;
  const Deployment* deployment_;
  const Topology* topology_;
  SolverGuardOptions options_;
  FastRouteOptimizer fast_;

  std::uint64_t rung_counts_[4] = {0, 0, 0, 0};
  // Consecutive periods the model-driven rungs (0-1) have been unusable.
  std::size_t consecutive_degraded_ = 0;
};

}  // namespace slate

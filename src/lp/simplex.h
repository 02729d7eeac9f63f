// Two-phase primal simplex for LpModel (LP relaxation: integrality ignored).
//
// Dense tableau implementation. Variables are brought to standard form by
// substitution (lower bounds shifted to zero, free variables split); finite
// upper bounds become explicit rows, not bounds in the ratio test. Phase 1
// minimizes artificial infeasibility, phase 2 the user objective. The
// entering rule is most-negative reduced cost, switching to Bland's rule
// after a fixed number of iterations to guarantee termination on degenerate
// problems.
//
// A warm start replaces phase 1: crash pivots rebuild a previous solve's
// basis, a dual simplex phase repairs it when the new rhs or coefficients
// left it primal infeasible, and phase 2 finishes from there.
//
// Problem sizes in SLATE are modest (hundreds to a few thousand variables),
// where a dense tableau is simple, cache-friendly, and fast enough; see
// bench/micro_optimizer_scaling for measured solve times.
#pragma once

#include <cstdint>

#include "lp/model.h"

namespace slate {

struct SimplexOptions {
  std::uint64_t max_iterations = 200000;
  // Iterations of most-negative-reduced-cost pivoting before switching to
  // Bland's rule.
  std::uint64_t bland_after = 20000;
  double tolerance = 1e-9;
};

struct SimplexStats {
  std::uint64_t iterations = 0;
  int phase1_rows = 0;
  int columns = 0;
  // True when the solve skipped phase 1 by reusing a caller-supplied basis.
  // `iterations` then counts dual repair pivots plus phase 2 iterations.
  bool warm_started = false;
};

// An optimal basis exported by a previous solve, reusable as a warm start
// for a structurally identical model (same constraint/variable layout; only
// coefficients, bounds, and rhs may differ — the control loop's case, where
// demand moves between periods but the LP shape is fixed). Only the basis is
// kept, not the tableau: the next solve rebuilds it by crash pivots.
// `signature` fingerprints the transformed layout; a solve handed a basis
// with a stale signature simply cold-solves and overwrites it.
struct SimplexBasis {
  std::uint64_t signature = 0;
  std::vector<int> basis;  // basic column per transformed row

  [[nodiscard]] bool valid() const noexcept { return !basis.empty(); }
};

// Solves the LP relaxation of `model`. `stats`, if non-null, receives
// iteration counts. `warm`, if non-null, is both input and output: a valid
// matching basis skips phase 1 (reconstructing the previous period's basis,
// repairing it by dual simplex if the new data made it primal infeasible,
// and resuming phase 2 from it). The solve falls back to cold only when the
// basis is numerically singular for the new coefficients or the repair
// finds no entering column (the LP may be infeasible, which the cold solve
// then reports) or hits the iteration limit. On any optimal solve the final
// basis is written back for the next period.
LpSolution solve_lp(const LpModel& model, const SimplexOptions& options = {},
                    SimplexStats* stats = nullptr,
                    SimplexBasis* warm = nullptr);

}  // namespace slate

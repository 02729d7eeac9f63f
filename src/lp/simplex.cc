#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace slate {
namespace {

// One structural column of the transformed problem, mapping back to a model
// variable: model_x = sign * column_value + offset (summed over columns that
// share the model variable, for free-variable splits).
struct ColumnMap {
  int model_var = -1;
  double sign = 1.0;
};

struct Transformed {
  // Dense constraint matrix rows (structural columns only) and rhs, already
  // normalized to rhs >= 0.
  std::vector<std::vector<double>> a;
  std::vector<double> rhs;
  std::vector<Relation> rel;
  // Phase-2 objective over structural columns (minimization) + constant.
  std::vector<double> cost;
  double cost_constant = 0.0;
  std::vector<ColumnMap> columns;
  std::vector<double> offsets;  // per model variable
  bool flip_objective = false;  // true when the model maximizes
};

// Rewrites the model into "all variables >= 0, rhs >= 0" form.
Transformed transform(const LpModel& model) {
  Transformed t;
  const int n = model.variable_count();
  t.offsets.assign(n, 0.0);
  t.flip_objective = model.objective_sense() == ObjectiveSense::kMaximize;

  // Column plan per model variable.
  std::vector<int> first_col(n, -1);
  std::vector<int> second_col(n, -1);  // for free-variable splits
  std::vector<double> extra_upper;     // finite upper bound rows, per column
  for (int j = 0; j < n; ++j) {
    const double lo = model.lower_bound(j);
    const double hi = model.upper_bound(j);
    if (lo == -kLpInfinity && hi == kLpInfinity) {
      first_col[j] = static_cast<int>(t.columns.size());
      t.columns.push_back({j, 1.0});
      extra_upper.push_back(kLpInfinity);
      second_col[j] = static_cast<int>(t.columns.size());
      t.columns.push_back({j, -1.0});
      extra_upper.push_back(kLpInfinity);
    } else if (lo == -kLpInfinity) {
      // x = hi - x^, x^ >= 0.
      first_col[j] = static_cast<int>(t.columns.size());
      t.columns.push_back({j, -1.0});
      extra_upper.push_back(kLpInfinity);
      t.offsets[j] = hi;
    } else {
      // x = lo + x^, x^ in [0, hi - lo].
      first_col[j] = static_cast<int>(t.columns.size());
      t.columns.push_back({j, 1.0});
      extra_upper.push_back(hi == kLpInfinity ? kLpInfinity : hi - lo);
      t.offsets[j] = lo;
    }
  }
  const int cols = static_cast<int>(t.columns.size());

  // Objective over columns.
  t.cost.assign(cols, 0.0);
  for (int j = 0; j < n; ++j) {
    double c = model.objective_coefficient(j);
    if (t.flip_objective) c = -c;
    t.cost_constant += c * t.offsets[j];
    t.cost[first_col[j]] += c * t.columns[first_col[j]].sign;
    if (second_col[j] >= 0) t.cost[second_col[j]] += c * t.columns[second_col[j]].sign;
  }

  auto add_row = [&](std::vector<double> row, Relation rel, double rhs) {
    if (rhs < 0.0) {
      for (double& v : row) v = -v;
      rhs = -rhs;
      rel = rel == Relation::kLessEqual    ? Relation::kGreaterEqual
            : rel == Relation::kGreaterEqual ? Relation::kLessEqual
                                             : Relation::kEqual;
    }
    t.a.push_back(std::move(row));
    t.rhs.push_back(rhs);
    t.rel.push_back(rel);
  };

  // Model constraints.
  for (const auto& row : model.rows()) {
    std::vector<double> dense(cols, 0.0);
    double rhs = row.rhs;
    for (const auto& term : row.terms) {
      rhs -= term.coeff * t.offsets[term.var];
      dense[first_col[term.var]] += term.coeff * t.columns[first_col[term.var]].sign;
      if (second_col[term.var] >= 0) {
        dense[second_col[term.var]] +=
            term.coeff * t.columns[second_col[term.var]].sign;
      }
    }
    add_row(std::move(dense), row.rel, rhs);
  }

  // Finite upper bounds as explicit rows.
  for (int c = 0; c < cols; ++c) {
    if (extra_upper[c] != kLpInfinity) {
      std::vector<double> dense(cols, 0.0);
      dense[c] = 1.0;
      add_row(std::move(dense), Relation::kLessEqual, extra_upper[c]);
    }
  }
  return t;
}

// Fingerprint of the transformed layout (row/column counts and the relation
// of every row). A basis is only reusable against the same layout — the
// same tableau geometry and slack/artificial assignment. Coefficients and
// rhs are deliberately excluded: they change every control period.
std::uint64_t layout_signature(const Transformed& t) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(t.a.size());
  mix(t.columns.size());
  for (const Relation r : t.rel) mix(static_cast<std::uint64_t>(r) + 17);
  return h;
}

// Dense tableau with explicit basis bookkeeping.
class Tableau {
 public:
  Tableau(const Transformed& t, const SimplexOptions& options)
      : options_(options), structural_cols_(static_cast<int>(t.columns.size())) {
    const int m = static_cast<int>(t.a.size());
    // Column layout: [structural | slack/surplus | artificial], then rhs.
    int slack_count = 0;
    for (Relation r : t.rel) {
      if (r != Relation::kEqual) ++slack_count;
    }
    int artificial_count = 0;
    for (std::size_t i = 0; i < t.rel.size(); ++i) {
      if (t.rel[i] != Relation::kLessEqual) ++artificial_count;
    }
    total_cols_ = structural_cols_ + slack_count + artificial_count;
    first_artificial_ = structural_cols_ + slack_count;

    rows_.assign(m, std::vector<double>(total_cols_ + 1, 0.0));
    basis_.assign(m, -1);
    // pivot() maintains the objective row unconditionally; warm-start
    // reconstruction pivots before any build_objective call, so the row
    // must exist (as zeros) from construction.
    obj_.assign(total_cols_ + 1, 0.0);

    int next_slack = structural_cols_;
    int next_artificial = first_artificial_;
    for (int i = 0; i < m; ++i) {
      auto& row = rows_[i];
      std::copy(t.a[i].begin(), t.a[i].end(), row.begin());
      row[total_cols_] = t.rhs[i];
      switch (t.rel[i]) {
        case Relation::kLessEqual:
          row[next_slack] = 1.0;
          basis_[i] = next_slack++;
          break;
        case Relation::kGreaterEqual:
          row[next_slack] = -1.0;
          ++next_slack;
          row[next_artificial] = 1.0;
          basis_[i] = next_artificial++;
          break;
        case Relation::kEqual:
          row[next_artificial] = 1.0;
          basis_[i] = next_artificial++;
          break;
      }
    }
  }

  // Runs phase 1 + phase 2. Returns the status; on kOptimal, `solution`
  // holds structural column values.
  LpStatus solve(const std::vector<double>& cost, std::vector<double>& solution,
                 double& objective, SimplexStats* stats) {
    if (first_artificial_ < total_cols_) {
      // Phase 1: minimize the sum of artificial variables.
      std::vector<double> phase1(total_cols_, 0.0);
      for (int c = first_artificial_; c < total_cols_; ++c) phase1[c] = 1.0;
      build_objective(phase1);
      const LpStatus s1 = iterate(stats);
      if (s1 != LpStatus::kOptimal) return s1;
      if (objective_value() > 1e-7) return LpStatus::kInfeasible;
      purge_artificials();
    }
    return solve_phase2(cost, solution, objective, stats);
  }

  // Phase 2 only — valid from a feasible basis (after phase 1, or after a
  // successful try_warm).
  LpStatus solve_phase2(const std::vector<double>& cost,
                        std::vector<double>& solution, double& objective,
                        SimplexStats* stats) {
    const int m = static_cast<int>(rows_.size());
    build_objective(padded_cost(cost));
    const LpStatus s2 = iterate(stats);
    if (s2 != LpStatus::kOptimal) return s2;

    solution.assign(structural_cols_, 0.0);
    for (int i = 0; i < m; ++i) {
      if (basis_[i] >= 0 && basis_[i] < structural_cols_) {
        solution[basis_[i]] = rows_[i][total_cols_];
      }
    }
    objective = objective_value();
    return LpStatus::kOptimal;
  }

  // Installs `target` (a previous solve's basis) by crash pivots, skipping
  // phase 1 entirely. When demand moved since the basis was cut, the crashed
  // point is primal infeasible yet typically a few dual pivots from the new
  // optimum, so a dual simplex phase repairs it (repair_dual). Returns
  // false — leaving the tableau unusable, the caller must cold-solve a fresh
  // one — only when the basis does not fit this tableau (wrong size,
  // numerically singular crash) or the repair fails.
  bool try_warm(const std::vector<int>& target, const std::vector<double>& cost,
                SimplexStats* stats) {
    const int m = static_cast<int>(rows_.size());
    if (static_cast<int>(target.size()) != m) return false;
    std::vector<char> in_target(total_cols_, 0);
    for (const int c : target) {
      if (c < 0 || c >= total_cols_ || in_target[c] != 0) return false;
      in_target[c] = 1;
    }
    std::vector<char> is_basic(total_cols_, 0);
    for (const int c : basis_) is_basic[c] = 1;
    for (int r = 0; r < m; ++r) {
      const int c = target[r];
      if (is_basic[c] != 0) continue;  // initial slack that stays basic
      // Bring column c into the basis against a row whose current basic
      // column is not wanted, preferring the largest pivot for stability.
      int pivot_row = -1;
      double best = 1e-7;
      for (int i = 0; i < m; ++i) {
        if (in_target[basis_[i]] != 0) continue;
        const double a = std::abs(rows_[i][c]);
        if (a > best) {
          best = a;
          pivot_row = i;
        }
      }
      if (pivot_row < 0) return false;  // numerically dependent: cold-solve
      is_basic[basis_[pivot_row]] = 0;
      pivot(pivot_row, c);
      is_basic[c] = 1;
    }
    artificials_disabled_ = true;
    if (primal_infeasible_row(false) >= 0 && !repair_dual(cost, stats)) {
      return false;
    }
    // Tiny negative rounding dust is clamped.
    for (auto& row : rows_) row[total_cols_] = std::max(row[total_cols_], 0.0);
    return true;
  }

  [[nodiscard]] const std::vector<int>& basis() const noexcept {
    return basis_;
  }

 private:
  // Rebuilds the reduced-cost row for the given column costs, pricing out
  // the current basis.
  void build_objective(const std::vector<double>& cost) {
    obj_.assign(total_cols_ + 1, 0.0);
    for (int c = 0; c < total_cols_; ++c) obj_[c] = cost[c];
    obj_[total_cols_] = 0.0;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const double cb = cost[basis_[i]];
      if (cb == 0.0) continue;
      for (int c = 0; c <= total_cols_; ++c) obj_[c] -= cb * rows_[i][c];
    }
  }

  [[nodiscard]] double objective_value() const { return -obj_[total_cols_]; }

  // Phase-2 costs over every tableau column: structural costs, zero on
  // slack and artificial columns.
  [[nodiscard]] std::vector<double> padded_cost(
      const std::vector<double>& cost) const {
    std::vector<double> full(total_cols_, 0.0);
    std::copy(cost.begin(), cost.end(), full.begin());
    return full;
  }

  // A row whose basic value is out of bounds beyond the 1e-7 dust level: a
  // negative value, or an artificial (whose only allowed value is 0) above
  // it. -1 when the basis is primal feasible. `bland` picks the row with the
  // lowest basic column; otherwise the largest violation.
  [[nodiscard]] int primal_infeasible_row(bool bland) const {
    int row = -1;
    double worst = 0.0;
    for (int i = 0; i < static_cast<int>(rows_.size()); ++i) {
      const double rhs = rows_[i][total_cols_];
      const double violation =
          basis_[i] >= first_artificial_ ? std::abs(rhs) : -rhs;
      if (violation <= 1e-7) continue;
      if (bland) {
        if (row < 0 || basis_[i] < basis_[row]) row = i;
      } else if (violation > worst) {
        worst = violation;
        row = i;
      }
    }
    return row;
  }

  // Dual simplex from a primal-infeasible basis. Negative reduced costs are
  // first zeroed (cost shifting), so the basis starts dual feasible whatever
  // the new costs; each pivot then moves an out-of-bounds basic to its bound
  // via the dual ratio test over non-artificial columns. Ends primal
  // feasible, optimal for the shifted costs; the caller's phase 2 restores
  // the true objective. False when a violated row has no entering column
  // (the LP may be infeasible) or the iteration limit is hit.
  bool repair_dual(const std::vector<double>& cost, SimplexStats* stats) {
    build_objective(padded_cost(cost));
    for (int c = 0; c < first_artificial_; ++c) obj_[c] = std::max(obj_[c], 0.0);
    std::uint64_t pivots = 0;
    bool repaired = false;
    for (; pivots < options_.max_iterations; ++pivots) {
      const bool bland = pivots >= options_.bland_after;
      const int row = primal_infeasible_row(bland);
      if (row < 0) {
        repaired = true;
        break;
      }
      const int entering = dual_entering(row, bland);
      if (entering < 0) break;
      pivot(row, entering);
    }
    if (stats != nullptr) stats->iterations += pivots;
    return repaired;
  }

  // Dual ratio test on violated row `row`: the non-artificial column whose
  // entry moves the basic towards its bound (negative entries raise a value
  // below zero, positive ones lower an artificial above zero) at the least
  // reduced cost per unit of entry, preferring the larger entry among ties
  // (the lowest column under Bland's rule). -1 when no column qualifies.
  [[nodiscard]] int dual_entering(int row, bool bland) const {
    const double tol = options_.tolerance;
    const auto& r = rows_[row];
    const double dir = r[total_cols_] < 0.0 ? -1.0 : 1.0;
    int entering = -1;
    double best_ratio = kLpInfinity;
    double best_entry = 0.0;
    for (int c = 0; c < first_artificial_; ++c) {
      const double a = dir * r[c];
      if (a <= tol) continue;
      const double ratio = std::max(obj_[c], 0.0) / a;
      if (ratio < best_ratio - tol ||
          (!bland && ratio < best_ratio + tol && a > best_entry)) {
        best_ratio = ratio;
        best_entry = a;
        entering = c;
      }
    }
    return entering;
  }

  // After phase 1: pivot lingering artificials out of the basis or drop
  // their (redundant) rows, then forbid artificial columns.
  void purge_artificials() {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (basis_[i] < first_artificial_) continue;
      // Find any usable non-artificial pivot in this row.
      int pivot_col = -1;
      for (int c = 0; c < first_artificial_; ++c) {
        if (std::abs(rows_[i][c]) > 1e-9 && !disabled_col(c)) {
          pivot_col = c;
          break;
        }
      }
      if (pivot_col >= 0) {
        pivot(static_cast<int>(i), pivot_col);
      } else {
        // Redundant row: zero it so it can never constrain anything.
        std::fill(rows_[i].begin(), rows_[i].end(), 0.0);
        // Keep the artificial basic at value 0 in a dead row.
      }
    }
    artificials_disabled_ = true;
  }

  [[nodiscard]] bool disabled_col(int c) const {
    return artificials_disabled_ && c >= first_artificial_;
  }

  LpStatus iterate(SimplexStats* stats) {
    const double tol = options_.tolerance;
    for (std::uint64_t iter = 0; iter < options_.max_iterations; ++iter) {
      if (stats != nullptr) ++stats->iterations;
      const bool bland = iter >= options_.bland_after;

      // Entering column.
      int entering = -1;
      double best = -tol;
      const int scan_limit =
          artificials_disabled_ ? first_artificial_ : total_cols_;
      for (int c = 0; c < scan_limit; ++c) {
        const double rc = obj_[c];
        if (rc < -tol) {
          if (bland) {
            entering = c;
            break;
          }
          if (rc < best) {
            best = rc;
            entering = c;
          }
        }
      }
      if (entering < 0) return LpStatus::kOptimal;

      // Ratio test.
      int leaving = -1;
      double best_ratio = kLpInfinity;
      for (std::size_t i = 0; i < rows_.size(); ++i) {
        const double a = rows_[i][entering];
        if (a > tol) {
          const double ratio = rows_[i][total_cols_] / a;
          if (ratio < best_ratio - tol ||
              (ratio < best_ratio + tol && leaving >= 0 &&
               basis_[i] < basis_[leaving])) {
            best_ratio = ratio;
            leaving = static_cast<int>(i);
          }
        }
      }
      if (leaving < 0) return LpStatus::kUnbounded;
      pivot(leaving, entering);
    }
    return LpStatus::kIterationLimit;
  }

  void pivot(int row, int col) {
    auto& pivot_row = rows_[row];
    const double p = pivot_row[col];
    for (double& v : pivot_row) v /= p;
    pivot_row[col] = 1.0;  // kill rounding residue on the pivot itself
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (static_cast<int>(i) == row) continue;
      const double factor = rows_[i][col];
      if (factor == 0.0) continue;
      auto& r = rows_[i];
      for (int c = 0; c <= total_cols_; ++c) r[c] -= factor * pivot_row[c];
      r[col] = 0.0;
    }
    const double obj_factor = obj_[col];
    if (obj_factor != 0.0) {
      for (int c = 0; c <= total_cols_; ++c) obj_[c] -= obj_factor * pivot_row[c];
      obj_[col] = 0.0;
    }
    basis_[row] = col;
  }

  SimplexOptions options_;
  int structural_cols_;
  int total_cols_ = 0;
  int first_artificial_ = 0;
  bool artificials_disabled_ = false;
  std::vector<std::vector<double>> rows_;
  std::vector<double> obj_;
  std::vector<int> basis_;
};

}  // namespace

LpSolution solve_lp(const LpModel& model, const SimplexOptions& options,
                    SimplexStats* stats, SimplexBasis* warm) {
  LpSolution result;
  const Transformed t = transform(model);
  const std::uint64_t signature = layout_signature(t);
  if (stats != nullptr) {
    stats->phase1_rows = static_cast<int>(t.a.size());
    stats->columns = static_cast<int>(t.columns.size());
  }

  std::vector<double> columns;
  double objective = 0.0;
  bool solved = false;

  if (warm != nullptr && warm->valid() && warm->signature == signature) {
    Tableau tableau(t, options);
    if (tableau.try_warm(warm->basis, t.cost, stats) &&
        tableau.solve_phase2(t.cost, columns, objective, stats) ==
            LpStatus::kOptimal) {
      result.status = LpStatus::kOptimal;
      solved = true;
      warm->basis = tableau.basis();
      if (stats != nullptr) stats->warm_started = true;
    }
    // Any warm failure falls through: a reconstruction that went sideways
    // must not degrade the answer, only the speed.
  }

  if (!solved) {
    Tableau tableau(t, options);
    result.status = tableau.solve(t.cost, columns, objective, stats);
    if (result.status != LpStatus::kOptimal) return result;
    if (warm != nullptr) {
      warm->signature = signature;
      warm->basis = tableau.basis();
    }
  }

  // Map structural columns back to model variables.
  result.values.assign(model.variable_count(), 0.0);
  for (std::size_t c = 0; c < t.columns.size(); ++c) {
    result.values[t.columns[c].model_var] += t.columns[c].sign * columns[c];
  }
  for (int j = 0; j < model.variable_count(); ++j) {
    result.values[j] += t.offsets[j];
  }
  const double min_objective = objective + t.cost_constant;
  result.objective = t.flip_objective ? -min_objective : min_objective;
  return result;
}

}  // namespace slate

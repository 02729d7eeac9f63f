// Tests for the LP/MILP solver: simplex on known programs, edge cases,
// randomized feasibility/optimality properties, branch & bound, and the
// piecewise-linear convexifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "lp/branch_and_bound.h"
#include "lp/model.h"
#include "lp/piecewise.h"
#include "lp/simplex.h"
#include "util/rng.h"

namespace slate {
namespace {

// --- Textbook LPs -----------------------------------------------------------

TEST(Simplex, SimpleMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18; optimum (2, 6) -> 36.
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  const int x = lp.add_variable(0, kLpInfinity, 3.0, "x");
  const int y = lp.add_variable(0, kLpInfinity, 5.0, "y");
  lp.add_constraint({{x, 1.0}}, Relation::kLessEqual, 4.0);
  lp.add_constraint({{y, 2.0}}, Relation::kLessEqual, 12.0);
  lp.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEqual, 18.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 36.0, 1e-7);
  EXPECT_NEAR(sol.values[x], 2.0, 1e-7);
  EXPECT_NEAR(sol.values[y], 6.0, 1e-7);
}

TEST(Simplex, MinimizationWithGreaterEqual) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3; optimum (7, 3) -> 23.
  LpModel lp;
  const int x = lp.add_variable(2.0, kLpInfinity, 2.0, "x");
  const int y = lp.add_variable(3.0, kLpInfinity, 3.0, "y");
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 10.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 23.0, 1e-7);
  EXPECT_NEAR(sol.values[x], 7.0, 1e-7);
  EXPECT_NEAR(sol.values[y], 3.0, 1e-7);
}

TEST(Simplex, EqualityConstraint) {
  // min x + 2y s.t. x + y = 5, x <= 3; optimum (3, 2) -> 7.
  LpModel lp;
  const int x = lp.add_variable(0, 3.0, 1.0, "x");
  const int y = lp.add_variable(0, kLpInfinity, 2.0, "y");
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEqual, 5.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 7.0, 1e-7);
}

TEST(Simplex, Infeasible) {
  LpModel lp;
  const int x = lp.add_variable(0, kLpInfinity, 1.0, "x");
  lp.add_constraint({{x, 1.0}}, Relation::kLessEqual, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kGreaterEqual, 2.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(Simplex, Unbounded) {
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  const int x = lp.add_variable(0, kLpInfinity, 1.0, "x");
  lp.add_constraint({{x, 1.0}}, Relation::kGreaterEqual, 1.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // min x s.t. -x <= -4  (i.e. x >= 4).
  LpModel lp;
  const int x = lp.add_variable(0, kLpInfinity, 1.0, "x");
  lp.add_constraint({{x, -1.0}}, Relation::kLessEqual, -4.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.values[x], 4.0, 1e-7);
}

TEST(Simplex, FreeVariable) {
  // min |shape|: min y s.t. y >= x - 2, y >= 2 - x with free x: optimum 0.
  LpModel lp;
  const int x = lp.add_variable(-kLpInfinity, kLpInfinity, 0.0, "x");
  const int y = lp.add_variable(-kLpInfinity, kLpInfinity, 1.0, "y");
  lp.add_constraint({{y, 1.0}, {x, -1.0}}, Relation::kGreaterEqual, -2.0);
  lp.add_constraint({{y, 1.0}, {x, 1.0}}, Relation::kGreaterEqual, 2.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 0.0, 1e-7);
  EXPECT_NEAR(sol.values[x], 2.0, 1e-6);
}

TEST(Simplex, NegativeLowerBound) {
  // min x with x in [-5, 5] -> -5.
  LpModel lp;
  const int x = lp.add_variable(-5.0, 5.0, 1.0, "x");
  lp.add_constraint({{x, 1.0}}, Relation::kLessEqual, 100.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.values[x], -5.0, 1e-7);
}

TEST(Simplex, UpperBoundOnlyVariable) {
  // max x with x <= 7 as a bound, no rows.
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  const int x = lp.add_variable(0.0, 7.0, 1.0, "x");
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.values[x], 7.0, 1e-7);
}

TEST(Simplex, DegenerateCycleGuard) {
  // Beale's classic cycling example (with Bland fallback it must terminate).
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMinimize);
  const int x1 = lp.add_variable(0, kLpInfinity, -0.75, "x1");
  const int x2 = lp.add_variable(0, kLpInfinity, 150.0, "x2");
  const int x3 = lp.add_variable(0, kLpInfinity, -0.02, "x3");
  const int x4 = lp.add_variable(0, kLpInfinity, 6.0, "x4");
  lp.add_constraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                    Relation::kLessEqual, 0.0);
  lp.add_constraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                    Relation::kLessEqual, 0.0);
  lp.add_constraint({{x3, 1.0}}, Relation::kLessEqual, 1.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, -0.05, 1e-6);
}

TEST(Simplex, RedundantEqualityRows) {
  // Duplicate equality rows exercise the artificial-purge path.
  LpModel lp;
  const int x = lp.add_variable(0, kLpInfinity, 1.0, "x");
  const int y = lp.add_variable(0, kLpInfinity, 1.0, "y");
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEqual, 4.0);
  lp.add_constraint({{x, 2.0}, {y, 2.0}}, Relation::kEqual, 8.0);  // redundant
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 4.0, 1e-7);
}

TEST(Simplex, DuplicateTermsMerged) {
  LpModel lp;
  const int x = lp.add_variable(0, kLpInfinity, 1.0, "x");
  // x + x <= 6 -> x <= 3 after merging.
  lp.add_constraint({{x, 1.0}, {x, 1.0}}, Relation::kLessEqual, 6.0);
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  const LpSolution sol = solve_lp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.values[x], 3.0, 1e-7);
}

TEST(Simplex, BlandFromTheStartStillSolves) {
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  const int x = lp.add_variable(0, kLpInfinity, 3.0, "x");
  const int y = lp.add_variable(0, kLpInfinity, 5.0, "y");
  lp.add_constraint({{x, 1.0}}, Relation::kLessEqual, 4.0);
  lp.add_constraint({{y, 2.0}}, Relation::kLessEqual, 12.0);
  lp.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEqual, 18.0);
  SimplexOptions options;
  options.bland_after = 0;  // Bland's rule for every pivot
  const LpSolution sol = solve_lp(lp, options);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 36.0, 1e-7);
}

TEST(Simplex, IterationLimitReported) {
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  std::vector<LinearTerm> row;
  for (int i = 0; i < 12; ++i) {
    const int v = lp.add_variable(0, 1.0, 1.0 + 0.1 * i);
    row.push_back({v, 1.0});
  }
  lp.add_constraint(std::move(row), Relation::kLessEqual, 6.0);
  SimplexOptions options;
  options.max_iterations = 1;  // far too few
  const LpSolution sol = solve_lp(lp, options);
  EXPECT_EQ(sol.status, LpStatus::kIterationLimit);
}

TEST(Milp, NodeLimitReturnsIncumbentWithLimitStatus) {
  // A knapsack big enough that one node cannot prove optimality.
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  std::vector<LinearTerm> row;
  Rng rng(77);
  for (int i = 0; i < 16; ++i) {
    const int v = lp.add_variable(0.0, 1.0, rng.uniform(1.0, 10.0));
    lp.set_integer(v);
    row.push_back({v, rng.uniform(1.0, 10.0)});
  }
  lp.add_constraint(std::move(row), Relation::kLessEqual, 30.0);
  MilpOptions options;
  options.max_nodes = 2;
  const LpSolution sol = solve_milp(lp, options);
  EXPECT_NE(sol.status, LpStatus::kOptimal);
}

// A random LP kept as data, so a test can perturb its rhs, costs and
// coefficients and rebuild it with the same layout.
struct RandomLp {
  std::vector<double> witness;  // a known feasible point
  std::vector<double> costs;
  std::vector<std::vector<double>> coeffs;  // dense, one per row
  std::vector<Relation> rels;
  std::vector<double> rhs;

  [[nodiscard]] LpModel model() const {
    LpModel lp;
    for (const double c : costs) lp.add_variable(0.0, 10.0, c);
    for (std::size_t i = 0; i < rhs.size(); ++i) {
      std::vector<LinearTerm> terms;
      for (std::size_t j = 0; j < costs.size(); ++j) {
        terms.push_back({static_cast<int>(j), coeffs[i][j]});
      }
      lp.add_constraint(std::move(terms), rels[i], rhs[i]);
    }
    return lp;
  }
};

// 2-7 variables in [0, 10], 1-8 rows placed so the witness satisfies each
// (inequalities with slack). Every row is <= unless `mixed`, which draws
// each row's relation from <=, >= and =.
RandomLp random_lp(Rng& rng, bool mixed) {
  const int n = 2 + static_cast<int>(rng.uniform_u64(6));
  const int m = 1 + static_cast<int>(rng.uniform_u64(8));
  RandomLp lp;
  for (int j = 0; j < n; ++j) {
    lp.witness.push_back(rng.uniform(0.0, 5.0));
    lp.costs.push_back(rng.uniform(-3.0, 3.0));
  }
  for (int i = 0; i < m; ++i) {
    std::vector<double> row;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      row.push_back(rng.uniform(-2.0, 2.0));
      lhs += row.back() * lp.witness[j];
    }
    const Relation rel =
        mixed ? static_cast<Relation>(rng.uniform_u64(3)) : Relation::kLessEqual;
    const double slack = rel == Relation::kEqual ? 0.0 : rng.uniform(0.1, 2.0);
    lp.coeffs.push_back(std::move(row));
    lp.rels.push_back(rel);
    lp.rhs.push_back(rel == Relation::kGreaterEqual ? lhs - slack : lhs + slack);
  }
  return lp;
}

// Randomized property test: generate LPs with a known feasible point; the
// solver must (a) report optimal, (b) return a feasible solution, (c) beat
// or match the known point's objective.
class RandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpTest, FeasibleAndNoWorseThanWitness) {
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const RandomLp random = random_lp(rng, false);
  const LpModel lp = random.model();
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_TRUE(lp.is_feasible(sol.values, 1e-6));
  EXPECT_LE(sol.objective, lp.objective_value(random.witness) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpTest, ::testing::Range(0, 40));

// Differential fuzz of the warm start: solve a mixed random LP cold, then
// re-solve a chain of perturbations of it (rhs only, costs only,
// coefficients only, all three; each value scaled by up to +-30%) from the
// previous solve's basis and compare every one with a cold solve.
class WarmStartDiffTest : public ::testing::TestWithParam<int> {};

TEST_P(WarmStartDiffTest, MatchesColdSolveUnderPerturbation) {
  constexpr int kRhs = 1;
  constexpr int kCosts = 2;
  constexpr int kCoeffs = 4;
  for (const int perturb : {kRhs, kCosts, kCoeffs, kRhs | kCosts | kCoeffs}) {
    Rng rng(7000 + static_cast<std::uint64_t>(GetParam()));
    const RandomLp base = random_lp(rng, true);
    SimplexBasis basis;
    ASSERT_EQ(solve_lp(base.model(), {}, nullptr, &basis).status,
              LpStatus::kOptimal);
    for (int step = 0; step < 6; ++step) {
      RandomLp next = base;
      if ((perturb & kRhs) != 0) {
        for (double& v : next.rhs) v *= rng.uniform(0.7, 1.3);
      }
      if ((perturb & kCosts) != 0) {
        for (double& v : next.costs) v *= rng.uniform(0.7, 1.3);
      }
      if ((perturb & kCoeffs) != 0) {
        for (auto& row : next.coeffs) {
          for (double& v : row) v *= rng.uniform(0.7, 1.3);
        }
      }
      const LpModel lp = next.model();
      SimplexStats stats;
      const LpSolution warm = solve_lp(lp, {}, &stats, &basis);
      const LpSolution cold = solve_lp(lp);
      const std::string where =
          "perturb " + std::to_string(perturb) + " step " + std::to_string(step);
      ASSERT_EQ(warm.status, cold.status) << where;
      if (!cold.ok()) continue;
      EXPECT_NEAR(warm.objective, cold.objective,
                  1e-9 * std::max(1.0, std::fabs(cold.objective)))
          << where;
      EXPECT_TRUE(lp.is_feasible(warm.values, 1e-6)) << where;
      // With the coefficients unchanged the crash rebuilds a basis of the
      // same matrix, and an LP with an optimum cannot leave the dual repair
      // without an entering column: the solve must stay warm.
      if ((perturb & kCoeffs) == 0) {
        EXPECT_TRUE(stats.warm_started) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmStartDiffTest, ::testing::Range(0, 60));

TEST(SimplexWarmStart, InfeasibleBasisIsRepairedWarm) {
  // min -x - y s.t. x + 2y <= 4, 3x + y <= 6: optimum (1.6, 1.2), basis
  // {x, y}. With the first rhs cut to 1 that basis puts y at -0.6; one dual
  // pivot (y leaves, the second slack enters) reaches the new optimum (1, 0).
  auto build = [](double first_rhs) {
    LpModel lp;
    const int x = lp.add_variable(0, kLpInfinity, -1.0, "x");
    const int y = lp.add_variable(0, kLpInfinity, -1.0, "y");
    lp.add_constraint({{x, 1.0}, {y, 2.0}}, Relation::kLessEqual, first_rhs);
    lp.add_constraint({{x, 3.0}, {y, 1.0}}, Relation::kLessEqual, 6.0);
    return lp;
  };
  SimplexBasis basis;
  const LpSolution before = solve_lp(build(4.0), {}, nullptr, &basis);
  ASSERT_TRUE(before.ok());
  EXPECT_NEAR(before.objective, -2.8, 1e-9);

  SimplexStats stats;
  const LpSolution after = solve_lp(build(1.0), {}, &stats, &basis);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(stats.warm_started);
  // The dual pivot, then phase 2's pricing pass that finds it optimal.
  EXPECT_EQ(stats.iterations, 2u);
  EXPECT_NEAR(after.objective, -1.0, 1e-9);
  EXPECT_NEAR(after.values[0], 1.0, 1e-9);
  EXPECT_NEAR(after.values[1], 0.0, 1e-9);
}

TEST(SimplexWarmStart, PerturbationToInfeasibleReportsInfeasible) {
  // min x + y s.t. x + y >= rhs, x + 2y <= 8: feasible at rhs 2, infeasible
  // at rhs 10 (x + y <= 8 - y <= 8). The warm solve must say so, not return
  // the repaired-looking old vertex.
  auto build = [](double rhs) {
    LpModel lp;
    const int x = lp.add_variable(0, kLpInfinity, 1.0, "x");
    const int y = lp.add_variable(0, kLpInfinity, 1.0, "y");
    lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, rhs);
    lp.add_constraint({{x, 1.0}, {y, 2.0}}, Relation::kLessEqual, 8.0);
    return lp;
  };
  SimplexBasis basis;
  ASSERT_TRUE(solve_lp(build(2.0), {}, nullptr, &basis).ok());
  SimplexStats stats;
  const LpSolution sol = solve_lp(build(10.0), {}, &stats, &basis);
  EXPECT_EQ(sol.status, LpStatus::kInfeasible);
  EXPECT_FALSE(stats.warm_started);
}

// Random LPs with equality rows (exercising phase 1 + artificial purge):
// built from a known solution so feasibility is guaranteed.
class RandomEqualityLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomEqualityLpTest, SolvesAndRespectsEqualities) {
  Rng rng(4000 + static_cast<std::uint64_t>(GetParam()));
  const int n = 3 + static_cast<int>(rng.uniform_u64(5));
  LpModel lp;
  std::vector<double> witness(n);
  for (int j = 0; j < n; ++j) {
    witness[j] = rng.uniform(0.0, 4.0);
    lp.add_variable(0.0, 10.0, rng.uniform(-2.0, 2.0));
  }
  const int eqs = 1 + static_cast<int>(rng.uniform_u64(3));
  for (int i = 0; i < eqs; ++i) {
    std::vector<LinearTerm> terms;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      const double c = rng.uniform(-1.5, 1.5);
      terms.push_back({j, c});
      lhs += c * witness[j];
    }
    lp.add_constraint(std::move(terms), Relation::kEqual, lhs);
  }
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_TRUE(lp.is_feasible(sol.values, 1e-5));
  EXPECT_LE(sol.objective, lp.objective_value(witness) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEqualityLpTest, ::testing::Range(0, 25));

// --- Branch & bound -----------------------------------------------------------

TEST(Milp, IntegerKnapsack) {
  // max 8a + 11b + 6c + 4d, 5a + 7b + 4c + 3d <= 14, binary -> optimum 21
  // (a=0? classic answer: items 1,2 (a,b): 8+11=19 w=12; b+c+d=21 w=14).
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  const double values[] = {8, 11, 6, 4};
  const double weights[] = {5, 7, 4, 3};
  std::vector<int> vars;
  std::vector<LinearTerm> row;
  for (int i = 0; i < 4; ++i) {
    const int v = lp.add_variable(0.0, 1.0, values[i]);
    lp.set_integer(v);
    vars.push_back(v);
    row.push_back({v, weights[i]});
  }
  lp.add_constraint(std::move(row), Relation::kLessEqual, 14.0);
  const LpSolution sol = solve_milp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 21.0, 1e-6);
  for (int v : vars) {
    const double x = sol.values[v];
    EXPECT_NEAR(x, std::round(x), 1e-6);
  }
}

TEST(Milp, IntegralityGapVsRelaxation) {
  // max x s.t. 2x <= 3, x integer -> 1 (relaxation gives 1.5).
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  const int x = lp.add_variable(0.0, kLpInfinity, 1.0);
  lp.set_integer(x);
  lp.add_constraint({{x, 2.0}}, Relation::kLessEqual, 3.0);
  const LpSolution relaxed = solve_lp(lp);
  EXPECT_NEAR(relaxed.objective, 1.5, 1e-7);
  const LpSolution integral = solve_milp(lp);
  ASSERT_TRUE(integral.ok());
  EXPECT_NEAR(integral.objective, 1.0, 1e-7);
}

TEST(Milp, InfeasibleInteger) {
  // 0.4 <= x <= 0.6, x integer: LP feasible, MILP infeasible.
  LpModel lp;
  const int x = lp.add_variable(0.4, 0.6, 1.0);
  lp.set_integer(x);
  EXPECT_TRUE(solve_lp(lp).ok());
  EXPECT_EQ(solve_milp(lp).status, LpStatus::kInfeasible);
}

TEST(Milp, MixedIntegerContinuous) {
  // min 3x + y, x + y >= 3.5, x integer, y continuous in [0, 1].
  // x = 3 forces y >= 0.5 -> objective 9.5 (x = 4 would give 12).
  LpModel lp;
  const int x = lp.add_variable(0.0, kLpInfinity, 3.0);
  lp.set_integer(x);
  const int y = lp.add_variable(0.0, 1.0, 1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 3.5);
  const LpSolution sol = solve_milp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 9.5, 1e-6);
  EXPECT_NEAR(sol.values[x], 3.0, 1e-6);
  EXPECT_NEAR(sol.values[y], 0.5, 1e-6);
}

TEST(Milp, PureLpFastPath) {
  LpModel lp;
  lp.set_objective_sense(ObjectiveSense::kMaximize);
  const int x = lp.add_variable(0.0, 2.5, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kLessEqual, 10.0);
  MilpStats stats;
  const LpSolution sol = solve_milp(lp, {}, &stats);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.values[x], 2.5, 1e-7);
  EXPECT_EQ(stats.nodes_explored, 1u);
}

// --- LpModel helpers ------------------------------------------------------------

TEST(LpModel, IsFeasibleChecksEverything) {
  LpModel lp;
  const int x = lp.add_variable(0.0, 5.0, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::kGreaterEqual, 2.0);
  EXPECT_TRUE(lp.is_feasible({3.0}));
  EXPECT_FALSE(lp.is_feasible({1.0}));   // violates row
  EXPECT_FALSE(lp.is_feasible({6.0}));   // violates bound
  EXPECT_FALSE(lp.is_feasible({}));      // wrong arity
}

TEST(LpModel, InvertedBoundsThrow) {
  LpModel lp;
  EXPECT_THROW(lp.add_variable(2.0, 1.0, 0.0), std::invalid_argument);
  const int x = lp.add_variable(0.0, 1.0, 0.0);
  EXPECT_THROW(lp.set_bounds(x, 3.0, 2.0), std::invalid_argument);
}

TEST(LpModel, UnknownVariableInRowThrows) {
  LpModel lp;
  lp.add_variable(0.0, 1.0, 0.0);
  EXPECT_THROW(lp.add_constraint({{5, 1.0}}, Relation::kEqual, 0.0),
               std::out_of_range);
}

// --- Piecewise-linear convexifier --------------------------------------------------

TEST(Piecewise, QueueCostValues) {
  EXPECT_EQ(queue_cost(0.0), 0.0);
  EXPECT_NEAR(queue_cost(0.5), 0.5, 1e-12);         // 0.25 / 0.5
  EXPECT_NEAR(queue_cost(0.9), 8.1, 1e-9);          // 0.81 / 0.1
  EXPECT_TRUE(std::isinf(queue_cost(1.0)));
}

TEST(Piecewise, TangentsUnderestimateConvexFunction) {
  const auto tangents = queue_cost_tangents(0.95, 12);
  EXPECT_EQ(tangents.size(), 12u);
  for (double u = 0.0; u <= 0.95; u += 0.01) {
    const double approx = pwl_value(tangents, u);
    EXPECT_LE(approx, queue_cost(u) + 1e-9) << "u=" << u;
  }
}

TEST(Piecewise, ApproximationTightAtTangentPoints) {
  const auto tangents = queue_cost_tangents(0.9, 24);
  // Dense tangents: the error must be small where the function is large
  // (relative) and absolutely small everywhere (at tiny u the function is
  // ~u^2, so relative error is inherently coarse but irrelevant).
  for (double u = 0.0; u <= 0.9; u += 0.005) {
    const double exact = queue_cost(u);
    const double approx = pwl_value(tangents, u);
    EXPECT_LE(exact - approx, std::max(0.05 * exact, 0.01)) << "u=" << u;
  }
}

TEST(Piecewise, BadArgsThrow) {
  EXPECT_THROW(queue_cost_tangents(0.0, 8), std::invalid_argument);
  EXPECT_THROW(queue_cost_tangents(1.0, 8), std::invalid_argument);
  EXPECT_THROW(queue_cost_tangents(0.9, 1), std::invalid_argument);
}

}  // namespace
}  // namespace slate

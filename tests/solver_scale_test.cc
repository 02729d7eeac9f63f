// Planet-scale acceptance: on a 30-cluster / 200-service / 12-class
// synthesized world, the solve fits the control period — warm starts beat
// cold solves by the pinned factor at steady state, the descent heuristic
// stays within its optimality-gap bound, and the solver guard demonstrably
// falls back to the descent arm (and recovers) when the exact solve blows a
// wall budget.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

#include "core/fast_optimizer.h"
#include "core/latency_model.h"
#include "core/optimizer.h"
#include "core/plan_eval.h"
#include "guard/solver_guard.h"
#include "topogen/topogen.h"

namespace slate {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One shared world: generation is cheap but the exact solves are not, and
// every test here wants the same instance.
class SolverScaleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TopoGenOptions options;
    options.seed = 17;
    options.clusters = 30;
    options.services = 200;
    options.classes = 12;
    options.total_rps = 3000.0;
    scenario_ = new Scenario(make_synth_scenario(options));
    model_ = new LatencyModel(LatencyModel::from_application(
        *scenario_->app, scenario_->topology->cluster_count()));
    demand_ = new FlatMatrix<double>(scenario_->app->class_count(),
                                     scenario_->topology->cluster_count(),
                                     0.0);
    for (const auto& stream : scenario_->demand.streams()) {
      (*demand_)(stream.cls.index(), stream.cluster.index()) +=
          scenario_->demand.rate_at(stream.cls, stream.cluster, 0.0);
    }
  }
  static void TearDownTestSuite() {
    delete demand_;
    delete model_;
    delete scenario_;
    demand_ = nullptr;
    model_ = nullptr;
    scenario_ = nullptr;
  }

  static Scenario* scenario_;
  static LatencyModel* model_;
  static FlatMatrix<double>* demand_;
};

Scenario* SolverScaleTest::scenario_ = nullptr;
LatencyModel* SolverScaleTest::model_ = nullptr;
FlatMatrix<double>* SolverScaleTest::demand_ = nullptr;

TEST_F(SolverScaleTest, WarmStartAtLeastFiveTimesFasterAtSteadyState) {
  RouteOptimizer optimizer(*scenario_->app, *scenario_->deployment,
                           *scenario_->topology);
  OptimizerCache cache;

  const double t0 = now_seconds();
  const OptimizerResult cold =
      optimizer.optimize(*model_, *demand_, nullptr, &cache);
  const double cold_seconds = now_seconds() - t0;
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.warm_started);

  const double t1 = now_seconds();
  const OptimizerResult warm =
      optimizer.optimize(*model_, *demand_, nullptr, &cache);
  const double warm_seconds = now_seconds() - t1;
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.warm_started);

  // The pinned acceptance bound is 5x; the steady-state path is a memo hit
  // and lands orders of magnitude beyond it, so timing noise has enormous
  // headroom here.
  EXPECT_LE(warm_seconds * 5.0, cold_seconds)
      << "cold " << cold_seconds * 1e3 << " ms vs warm " << warm_seconds * 1e3
      << " ms";
  EXPECT_EQ(warm.objective, cold.objective);
}

TEST_F(SolverScaleTest, FastWithinTenPercentOfExact) {
  RouteOptimizer exact(*scenario_->app, *scenario_->deployment,
                       *scenario_->topology);
  FastRouteOptimizer fast(*scenario_->app, *scenario_->deployment,
                          *scenario_->topology);
  const OptimizerResult exact_result = exact.optimize(*model_, *demand_);
  const OptimizerResult fast_result = fast.optimize(*model_, *demand_);
  ASSERT_TRUE(exact_result.ok());
  // kIterationLimit means descent ran out of sweeps; the plan it holds is
  // still complete and is what we score.
  ASSERT_TRUE(fast_result.status == LpStatus::kOptimal ||
              fast_result.status == LpStatus::kIterationLimit);
  ASSERT_NE(fast_result.rules, nullptr);

  const double exact_cost = evaluate_plan_cost(
      *scenario_->app, *scenario_->deployment, *scenario_->topology, *model_,
      *demand_, *exact_result.rules);
  const double fast_cost = evaluate_plan_cost(
      *scenario_->app, *scenario_->deployment, *scenario_->topology, *model_,
      *demand_, *fast_result.rules);
  ASSERT_GT(exact_cost, 0.0);
  EXPECT_LE(fast_cost, exact_cost * 1.10)
      << "gap " << (fast_cost / exact_cost - 1.0) * 100.0 << "%";
}

TEST_F(SolverScaleTest, GuardFallsBackToFastOnBudgetOverrunAndRecovers) {
  RouteOptimizer exact(*scenario_->app, *scenario_->deployment,
                       *scenario_->topology);
  FastRouteOptimizer fast(*scenario_->app, *scenario_->deployment,
                          *scenario_->topology);

  // Budget calibration: descent finishes in milliseconds on this world while
  // the exact LP takes tens to hundreds; the geometric mean of the two
  // measured times sits between them with a wide multiplicative margin on
  // both sides, so load-dependent timing noise cannot flip which arms fit
  // the budget.
  const double t0 = now_seconds();
  ASSERT_NE(fast.optimize(*model_, *demand_).rules, nullptr);
  const double fast_seconds = now_seconds() - t0;
  const double t1 = now_seconds();
  ASSERT_TRUE(exact.optimize(*model_, *demand_).ok());
  const double exact_seconds = now_seconds() - t1;
  ASSERT_LT(fast_seconds * 4.0, exact_seconds)
      << "world too easy to demonstrate a budget overrun: fast "
      << fast_seconds * 1e3 << " ms vs exact " << exact_seconds * 1e3
      << " ms";

  SolverGuardOptions options;
  options.enabled = true;
  options.wall_budget = std::sqrt(fast_seconds * exact_seconds);
  SolverGuard guard(*scenario_->app, *scenario_->deployment,
                    *scenario_->topology, options);
  OptimizerCache cache;

  const SolverGuard::Outcome degraded = guard.solve(
      exact, *model_, *demand_, nullptr, &cache, false, false);
  EXPECT_EQ(degraded.rung, SolverRung::kFastHeuristic)
      << "settled on " << to_string(degraded.rung) << " (budget "
      << options.wall_budget * 1e3 << " ms)";
  ASSERT_TRUE(degraded.result.ok());
  EXPECT_NE(degraded.result.rules, nullptr);
  EXPECT_EQ(guard.rung_count(SolverRung::kFastHeuristic), 1u);

  // Recovery: the over-budget primary solve still primed the cache, so the
  // next period's identical demand memo-hits in microseconds and the ladder
  // settles back on the primary rung.
  const SolverGuard::Outcome recovered = guard.solve(
      exact, *model_, *demand_, nullptr, &cache, false, true);
  EXPECT_EQ(recovered.rung, SolverRung::kPrimary)
      << "settled on " << to_string(recovered.rung);
  ASSERT_TRUE(recovered.result.ok());
  EXPECT_TRUE(recovered.result.warm_started);
  EXPECT_EQ(guard.rung_count(SolverRung::kPrimary), 1u);
}

TEST_F(SolverScaleTest, DecompositionFindsIndependentGroups) {
  // The default shared fraction still leaves some classes on disjoint
  // private blocks; the partition must find more than one group (or the
  // whole decomposition is a no-op at scale).
  RouteOptimizer optimizer(*scenario_->app, *scenario_->deployment,
                           *scenario_->topology);
  const OptimizerResult result = optimizer.optimize(*model_, *demand_);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.solve_groups, 1u);
  EXPECT_LE(result.solve_groups, scenario_->app->class_count());
}

}  // namespace
}  // namespace slate

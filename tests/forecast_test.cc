// Demand forecasting (docs/forecasting.md): per-cell predictors, the online
// backtest/confidence machinery, controller integration, and the
// reactive <= predictive <= oracle acceptance gauntlet.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "forecast/demand_forecaster.h"
#include "forecast/forecaster.h"
#include "runtime/scenarios.h"
#include "runtime/simulation.h"
#include "util/matrix.h"
#include "workload/generators.h"

namespace slate {
namespace {

// --- ForecastKind -----------------------------------------------------------

TEST(ForecastKind, StringRoundTrip) {
  for (const ForecastKind k :
       {ForecastKind::kNone, ForecastKind::kLast, ForecastKind::kEwma,
        ForecastKind::kLinear, ForecastKind::kHoltWinters,
        ForecastKind::kOracle}) {
    ForecastKind parsed = ForecastKind::kNone;
    ASSERT_TRUE(forecast_kind_from_string(to_string(k), &parsed));
    EXPECT_EQ(parsed, k);
  }
  ForecastKind out = ForecastKind::kEwma;
  EXPECT_FALSE(forecast_kind_from_string("arima", &out));
  EXPECT_EQ(out, ForecastKind::kEwma);  // untouched on failure
}

TEST(ForecastOptions, ValidateRejectsOutOfRange) {
  ForecastOptions o;
  o.validate();  // defaults are fine

  ForecastOptions bad = o;
  bad.ewma_alpha = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = o;
  bad.window = 1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = o;
  bad.season = 1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = o;
  bad.hw_alpha = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = o;
  bad.smape_scale = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = o;
  bad.max_confidence = 1.2;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = o;
  bad.backtest_window = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = o;
  bad.horizon = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// --- Cell forecasters -------------------------------------------------------

TEST(CellForecaster, LastValueCarriesForward) {
  LastValueForecaster f;
  EXPECT_DOUBLE_EQ(f.predict(), 0.0);
  f.observe(42.0);
  EXPECT_DOUBLE_EQ(f.predict(), 42.0);
  f.observe(7.0);
  EXPECT_DOUBLE_EQ(f.predict(), 7.0);
}

TEST(CellForecaster, EwmaSeedsThenSmooths) {
  EwmaForecaster f(0.5);
  f.observe(10.0);
  EXPECT_DOUBLE_EQ(f.predict(), 10.0);  // first observation seeds
  f.observe(20.0);
  EXPECT_DOUBLE_EQ(f.predict(), 15.0);
  f.observe(15.0);
  EXPECT_DOUBLE_EQ(f.predict(), 15.0);
}

TEST(CellForecaster, LinearTrendExtrapolatesExactLine) {
  LinearTrendForecaster f(4);
  f.observe(10.0);
  EXPECT_DOUBLE_EQ(f.predict(), 10.0);  // one point: last-value
  for (const double v : {12.0, 14.0, 16.0}) f.observe(v);
  // Perfect slope-2 line through the window -> next value exactly.
  EXPECT_NEAR(f.predict(), 18.0, 1e-9);
  // The ring slides: keep feeding the line, keep predicting on it.
  for (const double v : {18.0, 20.0}) f.observe(v);
  EXPECT_NEAR(f.predict(), 22.0, 1e-9);
}

TEST(CellForecaster, LinearTrendClampsNegative) {
  LinearTrendForecaster f(4);
  for (const double v : {6.0, 4.0, 2.0, 0.5}) f.observe(v);
  EXPECT_GE(f.predict(), 0.0);
}

TEST(CellForecaster, HoltWintersLearnsSeasonality) {
  // season=4 periodic pattern; two full seasons initialize the model.
  const std::vector<double> pattern = {100.0, 200.0, 300.0, 200.0};
  HoltWintersForecaster f(0.35, 0.08, 0.3, 4);
  for (int rep = 0; rep < 2; ++rep) {
    for (const double v : pattern) f.observe(v);
  }
  // Initialized: from here each prediction should land on the upcoming
  // phase of the pattern, not on the last value.
  for (int rep = 0; rep < 3; ++rep) {
    for (const double v : pattern) {
      EXPECT_NEAR(f.predict(), v, 15.0);
      f.observe(v);
    }
  }
  // After a few more seasons the fit is tight.
  for (const double v : pattern) {
    EXPECT_NEAR(f.predict(), v, 2.0);
    f.observe(v);
  }
}

TEST(CellForecaster, HoltWintersWarmupIsLastValue) {
  HoltWintersForecaster f(0.35, 0.08, 0.3, 4);
  for (const double v : {10.0, 50.0, 90.0}) {
    f.observe(v);
    EXPECT_DOUBLE_EQ(f.predict(), v);  // < 2 seasons: naive carry-forward
  }
}

TEST(CellForecaster, FactoryMatchesKind) {
  ForecastOptions o;
  o.kind = ForecastKind::kNone;
  EXPECT_EQ(make_cell_forecaster(o), nullptr);
  o.kind = ForecastKind::kOracle;
  EXPECT_EQ(make_cell_forecaster(o), nullptr);
  for (const ForecastKind k : {ForecastKind::kLast, ForecastKind::kEwma,
                               ForecastKind::kLinear,
                               ForecastKind::kHoltWinters}) {
    o.kind = k;
    EXPECT_NE(make_cell_forecaster(o), nullptr);
  }
}

// --- DemandForecaster backtest & blending -----------------------------------

ForecastOptions last_value_options() {
  ForecastOptions o;
  o.kind = ForecastKind::kLast;
  o.min_history = 2;
  o.backtest_window = 8;
  return o;
}

TEST(DemandForecaster, RejectsNonPredictiveKinds) {
  ForecastOptions o;
  o.kind = ForecastKind::kNone;
  EXPECT_THROW(DemandForecaster(1, 1, o), std::invalid_argument);
  o.kind = ForecastKind::kOracle;
  EXPECT_THROW(DemandForecaster(1, 1, o), std::invalid_argument);
}

TEST(DemandForecaster, PerfectForecasterEarnsFullConfidence) {
  DemandForecaster f(1, 2, last_value_options());
  FlatMatrix<double> measured(1, 2, 0.0);
  measured(0, 0) = 100.0;
  measured(0, 1) = 50.0;
  for (int i = 0; i < 6; ++i) f.step(measured);
  // Constant series: last-value is exact, sMAPE 0, confidence maxed.
  EXPECT_NEAR(f.cell_smape(0, 0), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(f.confidence()(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(f.confidence()(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(f.predicted()(0, 0), 100.0);
  EXPECT_NEAR(f.mean_smape(), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(f.mean_confidence(), 1.0);
}

TEST(DemandForecaster, ChronicallyWrongForecasterLosesConfidence) {
  DemandForecaster f(1, 1, last_value_options());
  FlatMatrix<double> measured(1, 1, 0.0);
  // Alternate 10 / 1000: last-value is maximally wrong every step.
  for (int i = 0; i < 10; ++i) {
    measured(0, 0) = (i % 2 == 0) ? 10.0 : 1000.0;
    f.step(measured);
  }
  EXPECT_GT(f.cell_smape(0, 0), 1.5);  // sMAPE near its ceiling of 2
  EXPECT_DOUBLE_EQ(f.confidence()(0, 0), 0.0);
}

TEST(DemandForecaster, ConfidenceGatedUntilMinHistory) {
  ForecastOptions o = last_value_options();
  o.min_history = 4;
  DemandForecaster f(1, 1, o);
  FlatMatrix<double> measured(1, 1, 100.0);
  // Step i scores the prediction made at step i-1: after k steps the cell
  // has scored k-1 predictions. Perfect forecaster, but unproven.
  for (int i = 0; i < 4; ++i) {
    f.step(measured);
    EXPECT_DOUBLE_EQ(f.confidence()(0, 0), 0.0);
  }
  f.step(measured);  // 4th scored prediction unlocks confidence
  EXPECT_GT(f.confidence()(0, 0), 0.99);
}

TEST(DemandForecaster, ZeroConfidenceBlendIsBitIdentical) {
  ForecastOptions o = last_value_options();
  o.min_history = 1000000;  // never earns confidence
  DemandForecaster f(2, 2, o);
  FlatMatrix<double> measured(2, 2, 0.0);
  measured(0, 0) = 0.1 + 0.2;  // a value with repeating binary expansion
  measured(1, 1) = 123.456789;
  for (int i = 0; i < 8; ++i) f.step(measured);
  FlatMatrix<double> out(2, 2, -1.0);
  f.blend(measured, &out);
  for (std::size_t k = 0; k < 2; ++k) {
    for (std::size_t c = 0; c < 2; ++c) {
      // Exact bit equality, not approximate: an unconfident forecaster must
      // reproduce the reactive controller's solver input exactly.
      EXPECT_EQ(out(k, c), measured(k, c));
    }
  }
}

TEST(DemandForecaster, BlendInterpolatesByConfidence) {
  ForecastOptions o = last_value_options();
  o.min_history = 1;
  o.smape_scale = 0.6;
  DemandForecaster f(1, 1, o);
  FlatMatrix<double> measured(1, 1, 100.0);
  for (int i = 0; i < 6; ++i) f.step(measured);
  ASSERT_DOUBLE_EQ(f.confidence()(0, 0), 1.0);
  // Full confidence: blend lands on the prediction, not the measurement.
  FlatMatrix<double> fresh(1, 1, 40.0);
  FlatMatrix<double> out(1, 1, 0.0);
  f.blend(fresh, &out);
  EXPECT_DOUBLE_EQ(out(0, 0), f.predicted()(0, 0));
}

TEST(DemandForecaster, BiasTracksSignedError) {
  DemandForecaster f(1, 1, last_value_options());
  FlatMatrix<double> measured(1, 1, 0.0);
  // Rising series: last-value chronically underpredicts -> negative bias.
  for (int i = 0; i < 8; ++i) {
    measured(0, 0) = 100.0 + 10.0 * i;
    f.step(measured);
  }
  EXPECT_LT(f.cell_bias(0, 0), 0.0);
}

// --- Controller integration: the three-arm gauntlet -------------------------

// Follow-the-sun on the two-cluster chain: anti-phase 40 s sinusoids whose
// local peaks exceed local capacity. The total is constant, so a controller
// that knows where demand is going can always place the spill; a reactive
// one chases the sun a couple control periods late. `kind` arms the
// forecaster (kNone: reactive).
Scenario diurnal_scenario(ForecastKind kind) {
  TwoClusterChainParams params;
  params.west_servers = 1;
  params.east_servers = 1;
  Scenario s = make_two_cluster_chain_scenario(params);
  s.demand = DemandSchedule{};
  DiurnalSpec west;
  west.base = 400.0;
  west.amplitude = 360.0;
  west.period = 40.0;
  west.end = 600.0;
  west.step = 1.0;
  DiurnalSpec east = west;
  east.phase = 20.0;  // anti-phase: east peaks while west troughs
  add_diurnal(s.demand, ClassId{0}, ClusterId{0}, west);
  add_diurnal(s.demand, ClassId{0}, ClusterId{1}, east);
  s.forecast.kind = kind;
  s.forecast.season = 40;  // 40 s cycle / 1 s control period
  return s;
}

RunConfig diurnal_config() {
  RunConfig config;
  config.policy = PolicyKind::kSlate;
  config.duration = 240.0;
  config.warmup = 150.0;  // Holt-Winters initializes at 2 seasons = 80 s
  config.seed = 11;
  config.control_period = 1.0;
  return config;
}

TEST(ForecastGauntlet, PredictiveBeatsReactiveOracleBoundsBoth) {
  const ExperimentResult reactive =
      run_experiment(diurnal_scenario(ForecastKind::kNone), diurnal_config());
  const ExperimentResult predictive = run_experiment(
      diurnal_scenario(ForecastKind::kHoltWinters), diurnal_config());
  const ExperimentResult oracle =
      run_experiment(diurnal_scenario(ForecastKind::kOracle), diurnal_config());

  // The arms really differ in what fed the optimizer.
  EXPECT_EQ(reactive.forecast_solves, 0u);
  EXPECT_GT(predictive.forecast_solves, 50u);
  EXPECT_GT(oracle.forecast_solves, 50u);
  // The seasonal model proved itself on the backtest.
  EXPECT_GE(predictive.forecast_mean_confidence, 0.5);
  EXPECT_LT(predictive.forecast_mean_smape, 0.3);

  // The ordering the subsystem exists for: solving on predicted demand
  // beats chasing measured demand by >= 10% mean latency, and hindsight
  // bounds prediction.
  EXPECT_LT(predictive.mean_latency(), 0.9 * reactive.mean_latency());
  EXPECT_LE(oracle.mean_latency(), predictive.mean_latency() * 1.02);
}

TEST(ForecastGauntlet, StationaryLoadSeesNoRegression) {
  // Constant demand: the forecaster converges on the measured estimate and
  // the predictive arm must not be worse than reactive beyond noise.
  TwoClusterChainParams params;
  const Scenario s1 = make_two_cluster_chain_scenario(params);
  Scenario s2 = make_two_cluster_chain_scenario(params);
  s2.forecast.kind = ForecastKind::kHoltWinters;
  RunConfig config;
  config.duration = 60.0;
  config.warmup = 15.0;
  config.seed = 5;
  const ExperimentResult reactive = run_experiment(s1, config);
  const ExperimentResult predictive = run_experiment(s2, config);
  EXPECT_GT(predictive.forecast_solves, 0u);
  EXPECT_LT(predictive.mean_latency(), 1.05 * reactive.mean_latency());
  EXPECT_EQ(predictive.completed + predictive.failed,
            reactive.completed + reactive.failed);
}

TEST(ForecastGauntlet, UnconfidentForecasterIsByteIdenticalToReactive) {
  // min_history larger than the run: confidence stays 0 every period, the
  // blend returns the measured matrix bit-identically, and the entire
  // simulation must reproduce the reactive run exactly.
  TwoClusterChainParams params;
  RunConfig config;
  config.duration = 40.0;
  config.warmup = 10.0;
  config.seed = 9;
  const ExperimentResult reactive =
      run_experiment(make_two_cluster_chain_scenario(params), config);
  Scenario gated_world = make_two_cluster_chain_scenario(params);
  gated_world.forecast.kind = ForecastKind::kEwma;
  gated_world.forecast.min_history = 1000000;
  const ExperimentResult gated = run_experiment(gated_world, config);
  EXPECT_GT(gated.forecast_solves, 0u);  // armed, stepped, predicted...
  EXPECT_DOUBLE_EQ(gated.forecast_mean_confidence, 0.0);  // ...but unproven
  EXPECT_EQ(gated.generated, reactive.generated);
  EXPECT_EQ(gated.completed, reactive.completed);
  EXPECT_EQ(gated.failed, reactive.failed);
  EXPECT_EQ(gated.rule_pushes, reactive.rule_pushes);
  EXPECT_EQ(gated.egress_bytes, reactive.egress_bytes);
  EXPECT_EQ(gated.sim_events, reactive.sim_events);
  EXPECT_EQ(gated.e2e.count(), reactive.e2e.count());
  EXPECT_EQ(gated.mean_latency(), reactive.mean_latency());  // bit-exact
}

TEST(ForecastGauntlet, DemandTraceRecordsAllThreeSignals) {
  const Scenario s = diurnal_scenario(ForecastKind::kHoltWinters);
  RunConfig config = diurnal_config();
  config.duration = 30.0;
  config.warmup = 5.0;
  config.record_demand_trace = true;
  const ExperimentResult r = run_experiment(s, config);
  ASSERT_FALSE(r.demand_trace.empty());
  // One row per (period, class, cluster): 2 cells, ~30 periods.
  EXPECT_GE(r.demand_trace.size(), 40u);
  bool saw_offered = false;
  for (const DemandTracePoint& p : r.demand_trace) {
    EXPECT_LT(p.cls, 1u);
    EXPECT_LT(p.cluster, 2u);
    EXPECT_GE(p.offered_rps, 0.0);
    EXPECT_GE(p.estimated_rps, 0.0);
    EXPECT_GE(p.forecast_rps, 0.0);
    if (p.offered_rps > 0.0) saw_offered = true;
  }
  EXPECT_TRUE(saw_offered);
}

}  // namespace
}  // namespace slate

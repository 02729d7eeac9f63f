// Global controller (paper §3.3): the control loop that turns cluster
// reports into routing rules.
//
// Each control period:
//   1. ingest every cluster's report into the sample store, and smooth the
//      observed per-(class, cluster) ingress into the demand estimate;
//   2. (guarded rollout) judge the previous push against live goodput and
//      p99; on a regression, roll back to last-known-good and freeze;
//   3. re-fit the latency model from accumulated samples;
//   4. run the routing optimization;
//   5. emit rules — either the optimizer's target directly, or (guarded
//      rollout) a damped step toward it (paper §5: "implement incremental
//      increases ... and proceed only if the objectives improve").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/deployment.h"
#include "contingency/contingency.h"
#include "forecast/demand_forecaster.h"
#include "core/model_fitter.h"
#include "core/optimizer.h"
#include "guard/guard_options.h"
#include "guard/report_validator.h"
#include "guard/rule_rollout.h"
#include "guard/solver_guard.h"
#include "telemetry/cluster_report.h"
#include "telemetry/sample_store.h"

namespace slate {

struct GlobalControllerOptions {
  OptimizerOptions optimizer;
  FitterOptions fitter;
  // Seed the latency model from the application spec ("offline profile");
  // online fitting refines it. When false the model cold-starts from the
  // default service time.
  bool warm_start_model = true;
  // When true the model is never re-fitted (pure warm-start operation).
  bool freeze_model = false;
  // Multiplies every warm-started service time — misprediction injection
  // for the §5 resilience experiments (a wrong offline profile). 1 = exact.
  double initial_model_scale = 1.0;
  // EWMA factor for demand updates (1 = trust the latest period fully).
  double demand_smoothing = 0.6;
  std::size_t sample_capacity = 256;

  // Re-solve gate: when > 0, a period whose solve demand moved less than
  // this relative amount in every cell since the last actual solve keeps the
  // current rules and skips the optimization entirely (no churn, no solver
  // wall time). 0 solves every period (legacy behavior). Cells below
  // `resolve_floor_rps` are compared on that absolute floor so small-cell
  // noise cannot force a solve: a Poisson cell at rate r fluctuates by
  // ~sqrt(2r) between periods, which exceeds any sane relative tolerance
  // until r is in the hundreds — raise the floor toward the workload's hot
  // cells when arming the gate on steady demand (a 20-RPS cell moving 6 RPS
  // is noise; a 700-RPS cell moving 100 is a shift).
  double resolve_tolerance = 0.0;
  double resolve_floor_rps = 1.0;

  // Missing-report tolerance. A cluster whose report has not arrived for
  // more than `stale_after_periods` control periods (telemetry blackout,
  // partition, dead controller) has its demand estimate decayed by
  // `stale_demand_decay` per further period instead of being optimized as
  // live state; it recovers on the first fresh report.
  std::size_t stale_after_periods = 3;
  double stale_demand_decay = 0.5;
  // Decay floor: once a stale cluster's per-cell demand falls below this,
  // it snaps to exactly zero instead of shrinking geometrically forever —
  // a cluster dark for hours must not keep a denormal ghost of its load
  // alive in the optimizer's demand matrix.
  double stale_demand_floor = 1e-3;

  // Control-plane hardening gates (telemetry admission, solver fallback
  // ladder, guarded rollout). Admission and rollout are off by default; the
  // solver ladder always runs, and arming it adds the fast and split rungs.
  GuardOptions guard;

  // Demand forecasting (docs/forecasting.md). kNone solves on the measured
  // demand estimate exactly as before; a predictive kind solves on the
  // confidence-weighted blend of predicted and measured demand; kOracle
  // reads the actual next-period offered load from `forecast.oracle_schedule`
  // (wired by the harness) as the hindsight upper bound. The forecaster
  // observes the post-admission demand estimate, so report-validator trust
  // keeps scaling its input when the guard stack is armed.
  ForecastOptions forecast;

  // N-1 failover headroom planning (docs/resilience.md). Off by default;
  // when enabled, every primary-rung plan is stress-tested against each
  // single-cluster failure and re-priced with a padded utilization cap
  // until the worst-case post-failure reroute fits.
  ContingencyOptions contingency;
};

// Per-period solver wall time and arm-selection telemetry. Measurement only:
// the values are reported (run results, CLI summary) but never feed back into
// plan selection — host timing must not change behavior in reproducible runs
// (the one exception is a SolverGuard wall budget, which is off unless set).
struct SolveTelemetry {
  std::uint64_t solves = 0;        // control periods that attempted a solve
  double last_seconds = 0.0;       // wall time of the most recent solve
  double max_seconds = 0.0;
  double total_seconds = 0.0;
  // Which arm produced (or withheld) the period's plan.
  std::uint64_t exact_cold = 0;    // exact LP, cold simplex
  std::uint64_t exact_warm = 0;    // exact LP, warm-started (memo or basis)
  std::uint64_t fast = 0;          // marginal-cost descent
  std::uint64_t split = 0;         // capacity-proportional split
  std::uint64_t hold = 0;          // no plan: held last-known-good
};

class GlobalController {
 public:
  GlobalController(const Application& app, const Deployment& deployment,
                   const Topology& topology, GlobalControllerOptions options);

  // Processes the reports for the period ending at `now`. Returns the rule
  // set to push to cluster controllers, or nullptr when rules should stay
  // unchanged this period (rollout canary or freeze, optimizer failure, or
  // no demand observed yet). `reports` may be missing clusters — or be empty —
  // when telemetry is lost; the controller holds last-known state and ages
  // out clusters it has not heard from (see stale_after_periods).
  std::shared_ptr<const RoutingRuleSet> on_reports(
      const std::vector<ClusterReport>& reports, double now);

  // Clusters currently considered stale (no report for more than
  // stale_after_periods control periods).
  [[nodiscard]] std::size_t stale_clusters() const noexcept;

  // Consecutive control periods since `cluster` last reported (0 = fresh
  // this round, or never heard from at all).
  [[nodiscard]] std::size_t stale_periods(ClusterId cluster) const noexcept;

  // Injected solver outage (fault plan): while true, the model-driven
  // solver rungs are unavailable. With the solver guard armed the ladder
  // holds, then descends to the capacity split; disarmed it holds.
  void set_solver_chaos(bool down) noexcept { solver_chaos_ = down; }

  // Coordinated drain: the orchestrator marks `cluster` as shrinking to
  // `keep` of its capacity, so the solver plans around the evacuation
  // instead of chasing it. Scaled capacity floors at one server per
  // deployed station (keeping the program feasible); the data plane's
  // drain filter handles the final cutoff. Also bypasses the
  // resolve_tolerance gate for the next period — capacity moved even if
  // demand did not.
  void set_drain_scale(ClusterId cluster, double keep);

  // Bi-level upward coupling (docs/autoscaling.md): a per-station effective
  // capacity view (service * cluster_count + cluster; 0 = no override)
  // merged over live_servers_ for subsequent solves. The coordinator sets
  // it to each autoscaler's provisioning-lag-aware capacity each period. A
  // changed overlay bypasses the resolve gate once, like a drain step —
  // capacity moved even if demand did not.
  void set_capacity_overlay(const std::vector<unsigned>& overlay);

  // Server count the most recent solve planned station (s, c) against: the
  // capacity view captured at solve time (overlay and drain scaling
  // included), falling back to the static deployment before any solve.
  [[nodiscard]] double planned_servers(ServiceId s, ClusterId c) const;

  // Epoch stamped on the most recent non-null rule set returned by
  // on_reports (monotone; 0 = nothing pushed yet). Cluster controllers use
  // it to discard stale pushes.
  [[nodiscard]] std::uint64_t last_push_epoch() const noexcept {
    return epoch_seq_;
  }

  [[nodiscard]] const LatencyModel& model() const noexcept { return model_; }
  [[nodiscard]] const FlatMatrix<double>& demand() const noexcept { return demand_; }
  // Demand matrix handed to the most recent optimization: the measured
  // estimate (reactive), the confidence blend (predictive), or the actual
  // future offered load (oracle).
  [[nodiscard]] const FlatMatrix<double>& solve_demand() const noexcept {
    return forecast_active() ? solve_demand_ : demand_;
  }
  // True when solves run on forecast or oracle demand rather than the
  // measured estimate.
  [[nodiscard]] bool forecast_active() const noexcept {
    return forecaster_ != nullptr ||
           (options_.forecast.kind == ForecastKind::kOracle &&
            options_.forecast.oracle_schedule != nullptr);
  }
  // Periods whose optimization consumed forecast/oracle demand.
  [[nodiscard]] std::uint64_t forecast_solves() const noexcept {
    return forecast_solves_;
  }
  // Null unless a predictive forecast kind is armed.
  [[nodiscard]] const DemandForecaster* forecaster() const noexcept {
    return forecaster_.get();
  }
  // The plan in force: the most recent solved plan (a hold leaves it).
  [[nodiscard]] const OptimizerResult& last_result() const noexcept {
    return last_result_;
  }
  // Cross-period warm-start state (per-group simplex bases + memo counters).
  [[nodiscard]] const OptimizerCache& optimizer_cache() const noexcept {
    return optimizer_cache_;
  }
  [[nodiscard]] const SolveTelemetry& solve_telemetry() const noexcept {
    return solve_telemetry_;
  }
  [[nodiscard]] const SampleStore& samples() const noexcept { return store_; }

  // Live per-(service, cluster) server counts as last reported by cluster
  // controllers (autoscalers and failures change them at runtime); 0 where
  // never reported (the optimizer then uses the static deployment value).
  [[nodiscard]] const std::vector<unsigned>& live_servers() const noexcept {
    return live_servers_;
  }

  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  // Periods that ran the solver ladder (any rung, hold included).
  [[nodiscard]] std::uint64_t optimizations() const noexcept {
    return solve_telemetry_.solves;
  }
  // Periods the controller held existing rules because the solver ladder
  // settled on its hold rung.
  [[nodiscard]] std::uint64_t solver_holds() const noexcept {
    return solve_telemetry_.hold;
  }
  // Periods skipped by the resolve_tolerance gate (demand moved too little
  // to justify a re-solve).
  [[nodiscard]] std::uint64_t resolve_skips() const noexcept {
    return resolve_skips_;
  }

  // Contingency telemetry (all zero unless options.contingency.enabled).
  // Margins are worst-case post-failure max station utilizations of the
  // plan in force; "worst" is the maximum seen over any evaluated period.
  [[nodiscard]] double contingency_margin_last() const noexcept {
    return contingency_margin_last_;
  }
  [[nodiscard]] double contingency_margin_worst() const noexcept {
    return contingency_margin_worst_;
  }
  // Periods whose plan had its margin evaluated / was re-priced with a
  // padded cap.
  [[nodiscard]] std::uint64_t contingency_evals() const noexcept {
    return contingency_evals_;
  }
  [[nodiscard]] std::uint64_t contingency_resolves() const noexcept {
    return contingency_resolves_;
  }
  // Current pad level (the primary cap is reduced by level * pad_step).
  [[nodiscard]] std::size_t contingency_pad_level() const noexcept {
    return pad_level_;
  }
  // Failure whose reroute produced the last margin (invalid before the
  // first evaluation).
  [[nodiscard]] ClusterId contingency_worst_failure() const noexcept {
    return contingency_worst_failure_;
  }

  // Guard stages; null when the corresponding gate is disabled.
  [[nodiscard]] const ReportValidator* validator() const noexcept {
    return validator_.get();
  }
  // The solver ladder always exists (disarmed it is primary -> hold).
  [[nodiscard]] const SolverGuard& solver_guard() const noexcept {
    return solver_guard_;
  }
  [[nodiscard]] const RuleRollout* rollout() const noexcept {
    return rollout_.get();
  }

 private:
  // Live telemetry digest for the rollout canary.
  struct LiveSignal {
    double goodput_rps = 0.0;  // completed e2e requests per second
    double p99 = 0.0;          // count-weighted mean of per-class p99s
    std::uint64_t samples = 0;
  };

  void ingest(const std::vector<ClusterReport>& reports);
  // Fills solve_demand_ for the active forecast mode and returns it, or
  // returns demand_ untouched when reactive (bit-identical legacy path).
  [[nodiscard]] const FlatMatrix<double>& solve_demand_input(double now);
  [[nodiscard]] LiveSignal live_signal(
      const std::vector<ClusterReport>& reports) const;
  // Stamps a fresh epoch on a non-null push and records it as current.
  std::shared_ptr<const RoutingRuleSet> emit(
      std::shared_ptr<const RoutingRuleSet> rules);
  // Capacity view for solves and margin evaluation: live_servers_, with
  // drain scaling applied when any cluster is evacuating.
  [[nodiscard]] const std::vector<unsigned>* capacity_view();
  // Demand view for solves while a drain is active: (1 - keep) of a
  // draining cluster's ingress estimate re-attributed to the cluster its
  // diverted arrivals actually enter (telemetry measures arrivals at the
  // original front door, before the divert). Returns `demand` untouched
  // when no drain is active.
  [[nodiscard]] const FlatMatrix<double>& apply_drain_divert(
      const FlatMatrix<double>& demand);
  // N-1 headroom check + padded re-pricing of last_result_. `exact_plan` is
  // true when the period's plan came from a model-driven rung (primary or
  // fast); the capacity split is measured but never re-priced — it is
  // already degraded mode.
  void plan_contingency(const FlatMatrix<double>& solve_demand,
                        const std::vector<unsigned>* live, bool exact_plan);

  const Application* app_;
  const Deployment* deployment_;
  const Topology* topology_;
  GlobalControllerOptions options_;

  LatencyModel model_;
  ModelFitter fitter_;
  RouteOptimizer optimizer_;
  SolverGuard solver_guard_;
  OptimizerCache optimizer_cache_;
  SolveTelemetry solve_telemetry_;
  SampleStore store_;
  FlatMatrix<double> demand_;  // classes x clusters, RPS
  // Demand fed to the optimizer under an armed forecast mode (unused, and
  // never touched, when reactive).
  FlatMatrix<double> solve_demand_;
  std::unique_ptr<DemandForecaster> forecaster_;
  std::vector<unsigned> live_servers_;  // services x clusters; 0 = unreported
  bool demand_seen_ = false;

  // Per-cluster round number of the last report seen (0 = never).
  std::vector<std::uint64_t> last_seen_round_;
  std::vector<bool> cluster_stale_;

  std::shared_ptr<const RoutingRuleSet> current_rules_;
  OptimizerResult last_result_;

  // Demand matrix of the last period that actually solved; empty until the
  // first solve. Input to the resolve_tolerance gate.
  FlatMatrix<double> last_solved_demand_;

  // Guard stages (null when disabled).
  std::unique_ptr<ReportValidator> validator_;
  std::unique_ptr<RuleRollout> rollout_;
  bool solver_chaos_ = false;
  std::uint64_t epoch_seq_ = 0;

  std::uint64_t rounds_ = 0;
  std::uint64_t resolve_skips_ = 0;
  std::uint64_t forecast_solves_ = 0;

  // Contingency state (inert unless options.contingency.enabled).
  // Padded re-solves use their own warm-start cache: the memo is keyed on
  // solve inputs, not optimizer options, so sharing the primary cache would
  // serve plans solved under a different utilization cap.
  OptimizerCache contingency_cache_;
  std::size_t pad_level_ = 0;
  // Pad level the contingency cache's memo was filled at; a level change
  // invalidates the memo (the bases stay — they warm-start fine across
  // nearby caps).
  std::size_t cache_pad_level_ = static_cast<std::size_t>(-1);
  double contingency_margin_last_ = 0.0;
  double contingency_margin_worst_ = 0.0;
  ClusterId contingency_worst_failure_;
  std::uint64_t contingency_evals_ = 0;
  std::uint64_t contingency_resolves_ = 0;

  // Coordinated-drain capacity scaling (1 = full capacity).
  std::vector<double> drain_scale_;
  std::vector<unsigned> scaled_live_;
  // Bi-level effective-capacity overlay (empty = disarmed) and the merged
  // view capacity_view() builds from it.
  std::vector<unsigned> capacity_overlay_;
  std::vector<unsigned> overlaid_live_;
  // Capacity view the most recent successful solve ran against.
  std::vector<unsigned> planned_capacity_;
  // Scratch for apply_drain_divert (unused while no drain is active).
  FlatMatrix<double> drain_demand_;
  bool drain_scaling_active_ = false;
  // Set when a drain step changed capacity; bypasses the resolve gate once.
  bool capacity_dirty_ = false;
};

}  // namespace slate

// Experiment configuration and results.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "admission/admission_policy.h"
#include "app/application.h"
#include "bilevel/bilevel.h"
#include "cluster/autoscaler.h"
#include "contingency/contingency.h"
#include "cluster/deployment.h"
#include "core/global_controller.h"
#include "fault/fault_plan.h"
#include "net/topology.h"
#include "overload/overload_policy.h"
#include "routing/waterfall.h"
#include "util/stats.h"
#include "workload/demand.h"

namespace slate {

// Which request-routing scheme the data plane runs.
enum class PolicyKind {
  kLocalOnly,         // always local (strict; entry must be deployed)
  kRoundRobin,        // cluster-level round robin
  kLocalityFailover,  // local, else nearest (Istio failover)
  kStaticWeights,     // fixed operator-configured distribution (Istio
                      // locality weighted distribution)
  kWaterfall,         // greedy capacity-based offloading (TD / ServiceRouter)
  kSlate,             // global controller + weighted rules
};

const char* to_string(PolicyKind kind) noexcept;

// A self-contained experiment world. Scenario owns the application,
// topology, deployment (which references the application), and demand
// schedule; heap members keep addresses stable across moves.
struct Scenario {
  std::string name;
  std::unique_ptr<Application> app;
  std::unique_ptr<Topology> topology;
  std::unique_ptr<Deployment> deployment;
  DemandSchedule demand;
  // Scheduled faults shipped with the world (scenario files' `fault`
  // directives). Merged with RunConfig::faults at run time.
  FaultPlan faults;
  // Overload control shipped with the world (`overload` directives). Each
  // enabled sub-policy of RunConfig::overload overrides its counterpart
  // here at run time.
  OverloadPolicy overload;
  // Control-plane hardening shipped with the world (`guard` directives).
  // Each enabled gate of RunConfig::slate.guard overrides its counterpart
  // here at run time; see docs/control_plane.md.
  GuardOptions guard;
  // Demand forecasting shipped with the world (`forecast` directive). A
  // RunConfig-armed kind overrides it wholesale; --no-forecast disarms it.
  // See docs/forecasting.md.
  ForecastOptions forecast;
  // Front-door admission control shipped with the world (`admission`
  // directives). A RunConfig-enabled policy overrides it wholesale;
  // --no-admission disarms it. See docs/overload.md.
  AdmissionPolicy admission;
  // N-1 contingency planning shipped with the world (`contingency`
  // directive). RunConfig-enabled options override it wholesale;
  // --no-contingency disarms it. See docs/resilience.md.
  ContingencyOptions contingency;
  // Coordinated drains shipped with the world (`drain` directives and
  // campaign-expanded drain events). Merged with RunConfig::drains at run
  // time; --no-drains disarms the scenario's.
  std::vector<DrainSpec> drains;
  // Bi-level autoscaling x TE co-design shipped with the world (`bilevel`
  // directive). RunConfig-enabled options override it wholesale;
  // --no-bilevel disarms it. See docs/autoscaling.md.
  BilevelOptions bilevel;
};

// A scheduled change to a station's replica count mid-run: failure
// injection (shrink), manual provisioning (grow), cluster degradation.
struct CapacityEvent {
  double time = 0.0;
  ServiceId service;
  ClusterId cluster;
  unsigned servers = 1;
};

// Per-call failure semantics of the data plane. Disabled (the default) the
// engine behaves as a fair-weather world: calls cannot time out and
// fault-induced failures are terminal on the first attempt. Enabled, every
// inter-service call gets a deadline and retries with exponential backoff
// under a token-bucket retry budget (the standard mesh discipline: Envoy
// retry policies, Finagle budgets).
struct FailurePolicy {
  bool enabled = false;
  // Per-attempt deadline, seconds. The caller abandons the attempt at the
  // deadline; work already queued remains (no cancellation — timed-out work
  // is wasted, as in real meshes). 0 disables timeouts.
  double call_timeout = 0.5;
  // Retries per call after the first attempt.
  std::size_t max_retries = 2;
  // Delay before retry n is backoff_base * backoff_multiplier^n.
  double backoff_base = 0.01;
  double backoff_multiplier = 2.0;
  // Token bucket: each first attempt earns `retry_budget_ratio` tokens, a
  // retry costs 1; at most `retry_budget_cap` tokens bank up. Caps retry
  // amplification during a full outage at ~ratio x offered load.
  double retry_budget_ratio = 0.2;
  double retry_budget_cap = 64.0;
  // A retry prefers a candidate cluster other than the one that just
  // failed, when one exists (retry-on-different-host).
  bool retry_excludes_failed = true;
};

struct RunConfig {
  PolicyKind policy = PolicyKind::kSlate;
  double duration = 60.0;  // simulated seconds
  double warmup = 10.0;    // measurements start here
  std::uint64_t seed = 1;
  // Control period for cluster->global reporting and rule pushes.
  double control_period = 1.0;
  WaterfallOptions waterfall;
  // kStaticWeights: share of traffic each cluster keeps at home (the rest
  // spreads evenly across the other clusters).
  double static_local_share = 0.7;
  GlobalControllerOptions slate;
  // Retained spans (0 disables tracing).
  std::size_t trace_capacity = 0;

  // Parallel sharded execution (docs/performance.md). 0 runs the legacy
  // serial engine, bit-identical to previous releases. Any value >= 1
  // partitions the simulation into one logical process per latency island
  // (for GCP-like topologies, per cluster) under conservative-lookahead
  // synchronization, with up to `shards` worker threads; shards=1 runs the
  // same partitioned schedule single-threaded. All sharded runs of a config
  // produce identical results regardless of the shard count.
  std::size_t shards = 0;

  // Horizontal autoscaling of every station (paper §5 interaction study).
  bool autoscaler_enabled = false;
  AutoscalerOptions autoscaler;

  // Bi-level autoscaling x TE co-design (docs/autoscaling.md). Requires
  // kSlate and autoscaler_enabled; silently inert otherwise. Enabled here
  // overrides the scenario's wholesale.
  BilevelOptions bilevel;

  // Scheduled capacity changes (applied in addition to autoscaling).
  std::vector<CapacityEvent> capacity_events;

  // Scheduled faults (merged with Scenario::faults) and the data plane's
  // failure semantics.
  FaultPlan faults;
  FailurePolicy failure;
  // Overload control (bounded queues, deadlines, circuit breaking). Each
  // enabled sub-policy overrides the scenario's; see docs/overload.md.
  OverloadPolicy overload;
  // Control-plane staleness tolerance, in control periods: a cluster
  // controller out of contact with the global controller for longer falls
  // back to locality failover; the global controller decays the demand
  // estimate of clusters unheard from for longer.
  std::size_t control_staleness_periods = 3;
  // When > 0, record per-bucket completion/error counts over the whole run
  // (not just the measurement window) into ExperimentResult::*_series —
  // the goodput-over-time signal fault experiments are judged by.
  double timeseries_bucket = 0.0;
  // Front-door admission control (token buckets at request birth). An
  // enabled policy here overrides the scenario's wholesale; see
  // docs/overload.md.
  AdmissionPolicy admission;
  // Coordinated drains scheduled by the harness (merged with the
  // scenario's). See docs/resilience.md.
  std::vector<DrainSpec> drains;
  // Record the per-control-period demand trace (offered vs. estimated vs.
  // forecast, per class x cluster cell) into ExperimentResult::demand_trace
  // — the slate_cli --dump-demand signal. Off by default: the trace is
  // periods x classes x clusters doubles.
  bool record_demand_trace = false;
};

// One (control period, class, cluster) sample of the three demand signals:
// what the workload actually offered, what the controller estimated from
// telemetry, and what the armed forecast mode handed the optimizer.
struct DemandTracePoint {
  double time = 0.0;
  std::uint32_t cls = 0;
  std::uint32_t cluster = 0;
  double offered_rps = 0.0;
  double estimated_rps = 0.0;
  double forecast_rps = 0.0;
};

struct ExperimentResult {
  std::string scenario;
  std::string policy;

  std::uint64_t generated = 0;  // arrivals in the full run
  // Successful completions inside the measurement window. With failure
  // semantics disabled and no faults every finished request lands here.
  std::uint64_t completed = 0;
  // Requests that finished with an error (exhausted retries, timeout, or a
  // fault rejection) inside the measurement window.
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> failed_by_class;  // index = class id

  // Data-plane failure-handling activity (whole run, not just measured).
  std::uint64_t call_retries = 0;          // retry attempts issued
  std::uint64_t call_timeouts = 0;         // attempts abandoned at deadline
  std::uint64_t call_rejections = 0;       // attempts refused by a down cluster
  std::uint64_t retry_budget_denials = 0;  // retries suppressed by the budget
  std::uint64_t fault_transitions = 0;     // injector activations + clearings
  // Per-class breakdowns of the above (index = class id).
  std::vector<std::uint64_t> call_retries_by_class;
  std::vector<std::uint64_t> call_timeouts_by_class;
  std::vector<std::uint64_t> retry_budget_denials_by_class;

  // Overload-control activity (whole run; zero with the subsystem off).
  std::uint64_t shed_queue_full = 0;   // arrivals rejected by a full queue
  std::uint64_t shed_queue_delay = 0;  // arrivals rejected by the CoDel shedder
  std::uint64_t shed_evictions = 0;    // queued jobs evicted by higher priority
  // Work cancelled because its deadline had expired (at call issue, at
  // station admission, or at dispatch).
  std::uint64_t deadline_cancellations = 0;
  std::uint64_t breaker_ejections = 0;  // circuit-breaker trips
  // Server-seconds burned on jobs already past their deadline at dispatch —
  // >0 only when deadlines are carried without propagation.
  double wasted_server_seconds = 0.0;
  [[nodiscard]] std::uint64_t total_shed() const noexcept {
    return shed_queue_full + shed_queue_delay + shed_evictions;
  }

  // Front-door admission activity (whole run; zero with the subsystem
  // off). When armed, every arrival is gated before any call-tree work:
  // generated = admission_admitted + admission_rejected, and rejections
  // complete synchronously as fast-fail errors.
  std::uint64_t admission_admitted = 0;
  std::uint64_t admission_rejected = 0;
  std::vector<std::uint64_t> admission_admitted_by_class;  // index = class id
  std::vector<std::uint64_t> admission_rejected_by_class;
  // Measured-window successes that landed inside their class SLO
  // (admission armed only) — p99-vs-SLO attainment is
  // slo_hits_by_class[k] / e2e_by_class[k].count().
  std::vector<std::uint64_t> slo_hits_by_class;
  // Adaptation-loop telemetry (zero with adapt off).
  std::uint64_t admission_adapt_rounds = 0;
  std::uint64_t admission_rate_raises = 0;
  std::uint64_t admission_rate_cuts = 0;
  std::uint64_t admission_floor_raises = 0;
  std::uint64_t admission_forecast_widenings = 0;

  // Station-level job conservation, summed over stations at run end:
  // jobs_submitted = jobs_served + jobs_cancelled + jobs_evicted +
  // jobs_in_flight_at_end (jobs_shed were refused and never admitted).
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_served = 0;
  std::uint64_t jobs_cancelled = 0;
  std::uint64_t jobs_evicted = 0;
  std::uint64_t jobs_shed = 0;
  std::uint64_t jobs_in_flight_at_end = 0;

  SampleSet e2e;                        // end-to-end latency of successes, seconds
  std::vector<SampleSet> e2e_by_class;  // index = class id

  // Post-warmup egress accounting.
  std::uint64_t egress_bytes = 0;
  std::uint64_t local_bytes = 0;
  double egress_cost_dollars = 0.0;

  // Post-warmup provisioned-capacity accounting: the integral of servers()
  // over measured time summed across stations, and its cost at each
  // cluster's $/server-hour price (0 when no prices are set). Always
  // recorded — it is pure bookkeeping with no simulation events.
  double server_seconds = 0.0;
  double server_cost_dollars = 0.0;
  // Egress + server spend — the joint objective the bi-level co-design
  // minimizes (docs/autoscaling.md).
  [[nodiscard]] double total_cost_dollars() const noexcept {
    return egress_cost_dollars + server_cost_dollars;
  }

  // Bi-level co-design activity (zero with the subsystem off).
  std::uint64_t bilevel_capacity_overrides = 0;  // overlay cells != live view
  std::uint64_t bilevel_plans_pushed = 0;        // periods pushed downward

  // Post-warmup station utilization, indexed service * clusters + cluster
  // (-1 where not deployed).
  std::vector<double> station_utilization;

  // Post-warmup call routing counts: flows[k][n](i, j) = class-k calls of
  // node n issued from cluster i and served in cluster j.
  std::vector<std::vector<FlatMatrix<std::uint64_t>>> flows;

  // SLATE control-plane counters (zero for baselines).
  std::uint64_t controller_rounds = 0;
  std::uint64_t controller_reverts = 0;
  std::uint64_t rule_pushes = 0;

  // Control-plane hardening activity (zero with every gate off; see
  // docs/control_plane.md).
  std::uint64_t guard_fields_rejected = 0;  // admission: poisoned fields
  std::uint64_t guard_spikes_clamped = 0;   // admission: MAD-gate clamps
  std::uint64_t guard_interpolations = 0;   // admission: last-good substitutions
  std::uint64_t solver_fallbacks = 0;       // solves settled below rung 0
  std::uint64_t solver_holds = 0;           // periods held with no usable plan
  // Periods skipped by the resolve_tolerance gate (demand flat since the
  // last solve; rules held with zero churn and zero solver time).
  std::uint64_t solver_resolve_skips = 0;

  // Per-period solver wall time and arm selection (SLATE runs only; see
  // SolveTelemetry in core/global_controller.h). Measurement-only: reported
  // here and in the slate_cli summary, never fed back into plan selection.
  std::uint64_t solver_solves = 0;
  double solver_last_seconds = 0.0;
  double solver_max_seconds = 0.0;
  double solver_total_seconds = 0.0;
  std::uint64_t solver_exact_cold = 0;   // exact LP, cold simplex
  std::uint64_t solver_exact_warm = 0;   // exact LP, warm-started (memo/basis)
  std::uint64_t solver_arm_fast = 0;     // marginal-cost descent arm
  std::uint64_t solver_arm_split = 0;    // capacity-split arm
  std::uint64_t solver_arm_hold = 0;     // periods that produced no plan
  [[nodiscard]] double mean_solve_seconds() const noexcept {
    return solver_solves > 0
               ? solver_total_seconds / static_cast<double>(solver_solves)
               : 0.0;
  }
  std::uint64_t rollout_rollbacks = 0;      // canary-triggered reverts
  std::uint64_t rollout_flap_freezes = 0;   // flap-detector freezes
  std::uint64_t rollout_damped_pushes = 0;  // pushes clipped by the delta cap
  std::uint64_t stale_rule_pushes = 0;      // epoch-stale pushes discarded
  // Rule-churn signal: per-control-period L1 distance between successive
  // actuated rule sets. Periods that hold the previous rules (canary
  // window, solver hold, flap freeze) contribute zero movement but still
  // count, so the mean measures actuation churn per unit time rather than
  // per push.
  double rule_delta_sum = 0.0;
  std::uint64_t rule_delta_count = 0;
  [[nodiscard]] double mean_rule_delta() const noexcept {
    return rule_delta_count > 0
               ? rule_delta_sum / static_cast<double>(rule_delta_count)
               : 0.0;
  }

  // N-1 contingency planning activity (zero with the subsystem off; see
  // docs/resilience.md). Margins are worst-case post-failure max station
  // utilization: the load the hottest station would see if the worst single
  // cluster failed right now and its traffic rerouted along the data plane's
  // failover rules.
  std::uint64_t contingency_evals = 0;      // periods margin-checked
  std::uint64_t contingency_resolves = 0;   // padded re-solves issued
  double contingency_margin_last = 0.0;     // final period's margin
  double contingency_margin_worst = 0.0;    // max margin over the run
  std::uint64_t contingency_pad_level = 0;  // pad level at run end

  // Coordinated drain activity (zero with no drains scheduled).
  std::uint64_t drains_started = 0;
  std::uint64_t drains_completed = 0;
  std::uint64_t drains_cancelled = 0;     // overlapped by an outage
  std::uint64_t drain_pause_periods = 0;  // steps held on goodput sag
  std::uint64_t drain_steps = 0;          // weight steps actually taken

  // Forecast activity (zero/-1 with forecasting off; docs/forecasting.md).
  std::uint64_t forecast_solves = 0;     // optimizations fed forecast demand
  double forecast_mean_smape = -1.0;     // rolling backtest error, [0, 2]
  double forecast_mean_confidence = 0.0; // mean blend weight across cells

  // Per-period demand signals (RunConfig::record_demand_trace).
  std::vector<DemandTracePoint> demand_trace;

  // Autoscaler activity (zero when disabled).
  std::uint64_t autoscaler_scale_ups = 0;
  std::uint64_t autoscaler_scale_downs = 0;
  // Final server count per station (service * clusters + cluster; 0 where
  // not deployed) — shows where autoscaling/failures left the fleet.
  std::vector<unsigned> final_servers;

  // Whole-run success/error counts per RunConfig::timeseries_bucket-second
  // bucket (empty when the timeseries is disabled). Index i covers
  // [i * bucket, (i+1) * bucket).
  std::vector<std::uint64_t> completed_series;
  std::vector<std::uint64_t> failed_series;
  double series_bucket = 0.0;

  // Discrete events the simulator executed over the whole run — the raw
  // work unit the engine's perf (bench/micro_simulator) is measured in.
  std::uint64_t sim_events = 0;

  double measured_seconds = 0.0;

  [[nodiscard]] double mean_latency() const { return e2e.mean(); }
  [[nodiscard]] double p50() const { return e2e.quantile(0.5); }
  [[nodiscard]] double p95() const { return e2e.quantile(0.95); }
  [[nodiscard]] double p99() const { return e2e.quantile(0.99); }
  // Finished requests (success + error) per measured second.
  [[nodiscard]] double throughput_rps() const {
    return measured_seconds > 0.0
               ? static_cast<double>(completed + failed) / measured_seconds
               : 0.0;
  }
  // Successful requests per measured second — the number faults depress.
  [[nodiscard]] double goodput_rps() const {
    return measured_seconds > 0.0
               ? static_cast<double>(completed) / measured_seconds
               : 0.0;
  }
  // Errors as a fraction of finished requests (0 when nothing finished).
  [[nodiscard]] double error_rate() const {
    const std::uint64_t finished = completed + failed;
    return finished > 0
               ? static_cast<double>(failed) / static_cast<double>(finished)
               : 0.0;
  }
  [[nodiscard]] double error_rate(ClassId k) const;
  // Mean goodput RPS over timeseries buckets intersecting [from, to).
  [[nodiscard]] double goodput_in_window(double from, double to) const;
  // Fraction of node-n class-k calls served outside their source cluster.
  [[nodiscard]] double remote_fraction(ClassId k, std::size_t node) const;
  // Same, restricted to calls issued from cluster `from`.
  [[nodiscard]] double remote_fraction_from(ClassId k, std::size_t node,
                                            ClusterId from) const;
  // Bytes sent across cluster boundaries per completed request.
  [[nodiscard]] double egress_bytes_per_request() const {
    return completed > 0
               ? static_cast<double>(egress_bytes) / static_cast<double>(completed)
               : 0.0;
  }
};

// Runs `scenario` under `config` and returns measurements.
ExperimentResult run_experiment(const Scenario& scenario, const RunConfig& config);

}  // namespace slate

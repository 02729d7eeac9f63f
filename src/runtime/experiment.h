// Experiment configuration and results.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <variant>
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
// schedule; heap members keep addresses stable across moves. It is also the
// one source of subsystem policy: a harness that runs one world under
// several policies copies the Scenario (a deep copy) and arms the copy.
struct Scenario {
  Scenario() = default;
  // Deep copy: clones the application, topology and deployment, and rebinds
  // the cloned deployment to the cloned application. It names every member,
  // so a field added here must be added to it (experiment.cc).
  Scenario(const Scenario& other);
  Scenario(Scenario&&) noexcept = default;
  Scenario& operator=(Scenario&&) noexcept = default;

  std::string name;
  std::unique_ptr<Application> app;
  std::unique_ptr<Topology> topology;
  std::unique_ptr<Deployment> deployment;
  DemandSchedule demand;
  // Scheduled faults (`fault` directives); --no-faults clears them.
  FaultPlan faults;
  // Overload control (`overload` directives): bounded queues, deadlines,
  // circuit breaking; --no-overload disarms it. See docs/overload.md.
  OverloadPolicy overload;
  // Control-plane hardening (`guard` directives); --no-guard disarms it.
  // See docs/control_plane.md.
  GuardOptions guard;
  // Demand forecasting (`forecast` directive); --no-forecast disarms it.
  // See docs/forecasting.md.
  ForecastOptions forecast;
  // Front-door admission control (`admission` directives); --no-admission
  // disarms it. See docs/overload.md.
  AdmissionPolicy admission;
  // N-1 contingency planning (`contingency` directive); --no-contingency
  // disarms it. See docs/resilience.md.
  ContingencyOptions contingency;
  // Coordinated drains (`drain` directives and campaign-expanded drain
  // events); --no-drains clears them. See docs/resilience.md.
  std::vector<DrainSpec> drains;
  // Bi-level autoscaling x TE co-design (`bilevel` directive). Requires
  // PolicyKind::kSlate and RunConfig::autoscaler_enabled; silently inert
  // otherwise. --no-bilevel disarms it. See docs/autoscaling.md.
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

// How one run executes. Subsystem policy is set on the Scenario.
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
  // The SLATE controller's knobs. Its guard, forecast and contingency come
  // from the Scenario; arming them here throws std::invalid_argument.
  GlobalControllerOptions slate;
  // Retained spans (0 disables tracing).
  std::size_t trace_capacity = 0;

  // Island partition of the event engine (docs/performance.md). 0 puts the
  // whole world on one island: the reference partition every committed
  // figure uses. Any value >= 1 partitions the simulation into one logical
  // process per latency island (for GCP-like topologies, per cluster)
  // under conservative-lookahead synchronization, with up to `shards`
  // worker threads; shards=1 runs the same partitioned schedule
  // single-threaded. All runs of a config at shards >= 1 produce identical
  // results regardless of the count.
  std::size_t shards = 0;

  // Horizontal autoscaling of every station (paper §5 interaction study).
  bool autoscaler_enabled = false;
  AutoscalerOptions autoscaler;

  // Scheduled capacity changes (applied in addition to autoscaling).
  std::vector<CapacityEvent> capacity_events;

  // The data plane's failure semantics.
  FailurePolicy failure;
  // Control-plane staleness tolerance, in control periods: a cluster
  // controller out of contact with the global controller for longer falls
  // back to locality failover; the global controller decays the demand
  // estimate of clusters unheard from for longer.
  std::size_t control_staleness_periods = 3;
  // When > 0, record per-bucket completion/error counts over the whole run
  // (not just the measurement window) into ExperimentResult::*_series —
  // the goodput-over-time signal fault experiments are judged by.
  double timeseries_bucket = 0.0;
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

// How a result counter is stored and shaped: a scalar, or a vector of
// per-class (index = class id) or per-timeseries-bucket counts.
enum class CounterKind { kU64, kF64, kPerClass, kPerBucket };

// How two partial results of one run combine (island merge): add, keep the
// larger, or take the incoming value.
enum class MergeRule { kSum, kMax, kLast };

// Deterministic rows are a pure function of (scenario, config, seed) and
// identical across --jobs and --shards; wall-clock rows measure host time.
enum class CounterClock { kDeterministic, kWallClock };

template <CounterKind K>
using CounterType = std::conditional_t<
    K == CounterKind::kU64, std::uint64_t,
    std::conditional_t<K == CounterKind::kF64, double,
                       std::vector<std::uint64_t>>>;

// Every numeric counter of ExperimentResult, declared once:
//   X(kind, name, initial value, unit, merge rule, clock, family)
// The list expands to the public members below and to kResultCounters,
// which result shaping, the island merge, the identity tests and the
// slate_cli summary iterate. Rows of one family stay contiguous. Counters
// are whole-run unless marked measured (post-warmup window only).
#define SLATE_RESULT_COUNTERS(X)                                               \
  /* Arrivals in the full run; successes and errors (exhausted retries,        \
     timeout, fault rejection) inside the measured window. */                  \
  X(U64, generated, 0, "requests", kSum, kDeterministic, requests)             \
  X(U64, completed, 0, "requests", kSum, kDeterministic, requests)             \
  X(U64, failed, 0, "requests", kSum, kDeterministic, requests)                \
  X(PerClass, failed_by_class, {}, "requests", kSum, kDeterministic, requests) \
  /* Data-plane failure handling. */                                           \
  X(U64, call_retries, 0, "attempts", kSum, kDeterministic, faults)            \
  X(U64, call_timeouts, 0, "attempts", kSum, kDeterministic, faults)           \
  /* Attempts refused by a down cluster. */                                    \
  X(U64, call_rejections, 0, "attempts", kSum, kDeterministic, faults)         \
  /* Retries suppressed by the retry budget. */                                \
  X(U64, retry_budget_denials, 0, "attempts", kSum, kDeterministic, faults)    \
  /* Injector activations + clearings. */                                      \
  X(U64, fault_transitions, 0, "transitions", kSum, kDeterministic, faults)    \
  X(PerClass, call_retries_by_class, {}, "attempts", kSum, kDeterministic,     \
    faults)                                                                    \
  X(PerClass, call_timeouts_by_class, {}, "attempts", kSum, kDeterministic,    \
    faults)                                                                    \
  X(PerClass, retry_budget_denials_by_class, {}, "attempts", kSum,             \
    kDeterministic, faults)                                                    \
  /* Overload control: arrivals refused by a full queue or the CoDel           \
     shedder, queued jobs evicted by higher priority, work cancelled past      \
     its deadline (at call issue, admission or dispatch), breaker trips. */    \
  X(U64, shed_queue_full, 0, "jobs", kSum, kDeterministic, overload)           \
  X(U64, shed_queue_delay, 0, "jobs", kSum, kDeterministic, overload)          \
  X(U64, shed_evictions, 0, "jobs", kSum, kDeterministic, overload)            \
  X(U64, deadline_cancellations, 0, "calls", kSum, kDeterministic, overload)   \
  X(U64, breaker_ejections, 0, "trips", kSum, kDeterministic, overload)        \
  /* Server time burned on jobs already past their deadline at dispatch:       \
     >0 only when deadlines are carried without propagation. */                \
  X(F64, wasted_server_seconds, 0.0, "server-s", kSum, kDeterministic,         \
    overload)                                                                  \
  /* Front-door admission. When armed every arrival is gated before any        \
     call-tree work (generated = admitted + rejected) and rejections           \
     complete synchronously as fast-fail errors. slo_hits_by_class counts      \
     measured successes inside their class SLO: attainment is                  \
     slo_hits_by_class[k] / e2e_by_class[k].count(). */                        \
  X(U64, admission_admitted, 0, "requests", kSum, kDeterministic, admission)   \
  X(U64, admission_rejected, 0, "requests", kSum, kDeterministic, admission)   \
  X(PerClass, admission_admitted_by_class, {}, "requests", kSum,               \
    kDeterministic, admission)                                                 \
  X(PerClass, admission_rejected_by_class, {}, "requests", kSum,               \
    kDeterministic, admission)                                                 \
  X(PerClass, slo_hits_by_class, {}, "requests", kSum, kDeterministic,         \
    admission)                                                                 \
  X(U64, admission_adapt_rounds, 0, "periods", kSum, kDeterministic,           \
    admission)                                                                 \
  X(U64, admission_rate_raises, 0, "steps", kSum, kDeterministic, admission)   \
  X(U64, admission_rate_cuts, 0, "steps", kSum, kDeterministic, admission)     \
  X(U64, admission_floor_raises, 0, "steps", kSum, kDeterministic, admission)  \
  X(U64, admission_forecast_widenings, 0, "steps", kSum, kDeterministic,       \
    admission)                                                                 \
  /* Station-level job conservation, summed over stations at run end:          \
     jobs_submitted = jobs_served + jobs_cancelled + jobs_evicted +            \
     jobs_in_flight_at_end (jobs_shed were refused, never admitted). */        \
  X(U64, jobs_submitted, 0, "jobs", kSum, kDeterministic, jobs)                \
  X(U64, jobs_served, 0, "jobs", kSum, kDeterministic, jobs)                   \
  X(U64, jobs_cancelled, 0, "jobs", kSum, kDeterministic, jobs)                \
  X(U64, jobs_evicted, 0, "jobs", kSum, kDeterministic, jobs)                  \
  X(U64, jobs_shed, 0, "jobs", kSum, kDeterministic, jobs)                     \
  X(U64, jobs_in_flight_at_end, 0, "jobs", kSum, kDeterministic, jobs)         \
  /* Measured egress. */                                                       \
  X(U64, egress_bytes, 0, "bytes", kSum, kDeterministic, egress)               \
  X(U64, local_bytes, 0, "bytes", kSum, kDeterministic, egress)                \
  X(F64, egress_cost_dollars, 0.0, "usd", kSum, kDeterministic, egress)        \
  /* Measured provisioned capacity: the integral of servers() summed over      \
     stations, and its cost at each cluster's $/server-hour price (0 with      \
     no prices set). Pure bookkeeping, no simulation events. */                \
  X(F64, server_seconds, 0.0, "server-s", kSum, kDeterministic, servers)       \
  X(F64, server_cost_dollars, 0.0, "usd", kSum, kDeterministic, servers)       \
  /* Bi-level co-design: overlay cells that differ from the live view,         \
     periods whose plan was pushed down to the autoscalers. */                 \
  X(U64, bilevel_capacity_overrides, 0, "cells", kSum, kDeterministic,         \
    bilevel)                                                                   \
  X(U64, bilevel_plans_pushed, 0, "periods", kSum, kDeterministic, bilevel)    \
  /* SLATE control plane (zero for baselines). rule_delta_* is the churn       \
     signal: the L1 distance between successive actuated rule sets per         \
     control period; held periods (canary, solver hold, flap freeze) count     \
     with zero movement, so the mean is churn per unit time. */                \
  X(U64, controller_rounds, 0, "periods", kSum, kDeterministic, controller)    \
  X(U64, rule_pushes, 0, "pushes", kSum, kDeterministic, controller)           \
  X(F64, rule_delta_sum, 0.0, "l1", kSum, kDeterministic, controller)          \
  X(U64, rule_delta_count, 0, "periods", kSum, kDeterministic, controller)     \
  /* Telemetry admission (docs/control_plane.md): poisoned fields, MAD-gate    \
     clamps, last-good substitutions. */                                       \
  X(U64, guard_fields_rejected, 0, "fields", kSum, kDeterministic, guard)      \
  X(U64, guard_spikes_clamped, 0, "fields", kSum, kDeterministic, guard)       \
  X(U64, guard_interpolations, 0, "fields", kSum, kDeterministic, guard)       \
  /* Solver ladder: solves settled below rung 0, periods held with no          \
     usable plan, periods skipped by the resolve_tolerance gate (demand        \
     flat; rules held with zero churn), then solves per arm (SolveTelemetry    \
     in core/global_controller.h). */                                          \
  X(U64, solver_fallbacks, 0, "solves", kSum, kDeterministic, solver)          \
  X(U64, solver_holds, 0, "periods", kSum, kDeterministic, solver)             \
  X(U64, solver_resolve_skips, 0, "periods", kSum, kDeterministic, solver)     \
  X(U64, solver_solves, 0, "solves", kSum, kDeterministic, solver)             \
  X(U64, solver_exact_cold, 0, "solves", kSum, kDeterministic, solver)         \
  X(U64, solver_exact_warm, 0, "solves", kSum, kDeterministic, solver)         \
  X(U64, solver_arm_fast, 0, "solves", kSum, kDeterministic, solver)           \
  X(U64, solver_arm_split, 0, "solves", kSum, kDeterministic, solver)          \
  X(U64, solver_arm_hold, 0, "periods", kSum, kDeterministic, solver)          \
  /* Solver wall time: measured, never fed back into plan selection. */        \
  X(F64, solver_last_seconds, 0.0, "s", kLast, kWallClock, solver)             \
  X(F64, solver_max_seconds, 0.0, "s", kMax, kWallClock, solver)               \
  X(F64, solver_total_seconds, 0.0, "s", kSum, kWallClock, solver)             \
  /* Plan audit of the plan in force at each control period: stations        \
     planned above the utilization cap (OptimizerResult::                      \
     overflowed_stations, summed over periods) and the peak planned            \
     utilization. Overflow means the plan itself cannot serve its demand. */   \
  X(U64, plan_overflow_station_periods, 0, "station-periods", kSum,            \
    kDeterministic, plan)                                                      \
  X(F64, plan_peak_utilization, 0.0, "utilization", kMax, kDeterministic,      \
    plan)                                                                      \
  /* Rule rollout: canary rollbacks, flap-detector freezes, pushes clipped by  \
     the delta cap, epoch-stale pushes discarded. */                           \
  X(U64, rollout_rollbacks, 0, "pushes", kSum, kDeterministic, rollout)        \
  X(U64, rollout_flap_freezes, 0, "periods", kSum, kDeterministic, rollout)    \
  X(U64, rollout_damped_pushes, 0, "pushes", kSum, kDeterministic, rollout)    \
  X(U64, stale_rule_pushes, 0, "pushes", kSum, kDeterministic, rollout)        \
  /* N-1 contingency planning (docs/resilience.md). A margin is the worst      \
     post-failure max station utilization if the worst single cluster          \
     failed now and its traffic rerouted along the failover rules. */          \
  X(U64, contingency_evals, 0, "periods", kSum, kDeterministic, contingency)   \
  X(U64, contingency_resolves, 0, "solves", kSum, kDeterministic,              \
    contingency)                                                               \
  X(F64, contingency_margin_last, 0.0, "utilization", kLast, kDeterministic,   \
    contingency)                                                               \
  X(F64, contingency_margin_worst, 0.0, "utilization", kMax, kDeterministic,   \
    contingency)                                                               \
  X(U64, contingency_pad_level, 0, "level", kLast, kDeterministic,             \
    contingency)                                                               \
  /* Coordinated drains: cancelled = overlapped by an outage; pause periods    \
     = steps held on goodput sag. */                                           \
  X(U64, drains_started, 0, "drains", kSum, kDeterministic, drains)            \
  X(U64, drains_completed, 0, "drains", kSum, kDeterministic, drains)          \
  X(U64, drains_cancelled, 0, "drains", kSum, kDeterministic, drains)          \
  X(U64, drain_pause_periods, 0, "periods", kSum, kDeterministic, drains)      \
  X(U64, drain_steps, 0, "steps", kSum, kDeterministic, drains)                \
  /* Forecasting (docs/forecasting.md): optimizations fed forecast demand,     \
     rolling backtest sMAPE in [0, 2] (-1 with forecasting off), mean blend    \
     weight across cells. */                                                   \
  X(U64, forecast_solves, 0, "solves", kSum, kDeterministic, forecast)         \
  X(F64, forecast_mean_smape, -1.0, "ratio", kLast, kDeterministic, forecast)  \
  X(F64, forecast_mean_confidence, 0.0, "ratio", kLast, kDeterministic,        \
    forecast)                                                                  \
  X(U64, autoscaler_scale_ups, 0, "steps", kSum, kDeterministic, autoscaler)   \
  X(U64, autoscaler_scale_downs, 0, "steps", kSum, kDeterministic,             \
    autoscaler)                                                                \
  /* Whole-run successes/errors per series_bucket-second bucket (empty         \
     with the timeseries off); index i covers [i, i+1) * series_bucket. */     \
  X(PerBucket, completed_series, {}, "requests", kSum, kDeterministic,         \
    series)                                                                    \
  X(PerBucket, failed_series, {}, "requests", kSum, kDeterministic, series)    \
  /* Discrete events executed over the whole run: the engine's work unit       \
     (bench/micro_simulator). */                                               \
  X(U64, sim_events, 0, "events", kSum, kDeterministic, run)                   \
  X(F64, measured_seconds, 0.0, "s", kLast, kDeterministic, run)

struct ExperimentResult {
  std::string scenario;
  std::string policy;

#define SLATE_DECLARE_COUNTER(kind, name, init, ...) \
  CounterType<CounterKind::k##kind> name = init;
  SLATE_RESULT_COUNTERS(SLATE_DECLARE_COUNTER)
#undef SLATE_DECLARE_COUNTER

  SampleSet e2e;                        // end-to-end latency of successes, seconds
  std::vector<SampleSet> e2e_by_class;  // index = class id

  // Post-warmup station utilization, indexed service * clusters + cluster
  // (-1 where not deployed).
  std::vector<double> station_utilization;

  // Post-warmup call routing counts: flows[k][n](i, j) = class-k calls of
  // node n issued from cluster i and served in cluster j.
  std::vector<std::vector<FlatMatrix<std::uint64_t>>> flows;

  // Per-period demand signals (RunConfig::record_demand_trace).
  std::vector<DemandTracePoint> demand_trace;

  // Final server count per station (service * clusters + cluster; 0 where
  // not deployed) — shows where autoscaling/failures left the fleet.
  std::vector<unsigned> final_servers;

  // RunConfig::timeseries_bucket when the timeseries is on, else 0.
  double series_bucket = 0.0;

  [[nodiscard]] std::uint64_t total_shed() const noexcept {
    return shed_queue_full + shed_queue_delay + shed_evictions;
  }
  // Egress + server spend — the joint objective the bi-level co-design
  // minimizes (docs/autoscaling.md).
  [[nodiscard]] double total_cost_dollars() const noexcept {
    return egress_cost_dollars + server_cost_dollars;
  }
  [[nodiscard]] double mean_solve_seconds() const noexcept {
    return solver_solves > 0
               ? solver_total_seconds / static_cast<double>(solver_solves)
               : 0.0;
  }
  [[nodiscard]] double mean_rule_delta() const noexcept {
    return rule_delta_count > 0
               ? rule_delta_sum / static_cast<double>(rule_delta_count)
               : 0.0;
  }
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

// One row of the counter table: the SLATE_RESULT_COUNTERS columns plus a
// pointer to the member the row describes.
struct CounterRow {
  const char* name;
  CounterKind kind;
  const char* unit;
  MergeRule merge;
  CounterClock clock;
  const char* family;
  std::variant<std::uint64_t ExperimentResult::*, double ExperimentResult::*,
               std::vector<std::uint64_t> ExperimentResult::*>
      member;
};

inline constexpr CounterRow kResultCounters[] = {
#define SLATE_COUNTER_ROW(kind, name, init, unit, merge, clock, family)      \
  {#name, CounterKind::k##kind, unit, MergeRule::merge, CounterClock::clock,  \
   #family, &ExperimentResult::name},
    SLATE_RESULT_COUNTERS(SLATE_COUNTER_ROW)
#undef SLATE_COUNTER_ROW
};

// Runs `scenario` under `config` and returns measurements.
ExperimentResult run_experiment(const Scenario& scenario, const RunConfig& config);

}  // namespace slate

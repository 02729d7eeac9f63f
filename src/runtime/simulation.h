// The multi-cluster request execution engine.
//
// Simulation wires a Scenario (application, deployment, topology, demand)
// together with a routing policy and — in SLATE mode — the full control
// hierarchy (proxies -> cluster controllers -> global controller), then
// executes every request's call tree event-by-event on the discrete-event
// simulator:
//
//   arrival -> entry station (queue + compute) -> per-child routing query ->
//   network hop -> child subtree -> network hop back -> ... -> response.
//
// Cross-cluster messages charge the egress meter and add sampled one-way
// network latency in each direction. All telemetry flows through the same
// SlateProxy objects a real deployment would use.
//
// Failure semantics: every inter-service call can fail — a down cluster
// refuses the request, a partitioned link drops it, a timeout abandons it —
// and the error propagates up the call tree to the root (a sequential chain
// aborts at the first failed child; a parallel fan-out fails if any child
// failed). With RunConfig::failure enabled, failed attempts retry with
// exponential backoff under a token-bucket budget, preferring a different
// candidate cluster. Faults come from the FaultPlan via a FaultInjector the
// engine consults at each decision point.
//
// Execution engines (RunConfig::shards; docs/performance.md):
//   shards == 0  — the legacy serial engine: one Simulator, one execution
//                  context, bit-identical to previous releases.
//   shards >= 1  — conservative-lookahead parallel engine: clusters are
//                  grouped into latency islands (connected components over
//                  zero-latency pairs), each island becomes one logical
//                  process with a private Simulator and a private execution
//                  context (pools, RNG stream, telemetry accumulators);
//                  cross-island calls travel as by-value RPC messages
//                  through the ShardedSimulator's deterministic mailboxes.
//                  The shard count only caps worker threads — the partition
//                  and the schedule are island-determined, so every sharded
//                  run of a config is byte-identical regardless of count.
//                  A single-island run matches the legacy engine under
//                  SLATE but not under Waterfall, whose load snapshot only
//                  refreshes at global-event barriers when the lookahead is
//                  infinite.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "admission/admission_controller.h"
#include "bilevel/coordinator.h"
#include "cluster/service_station.h"
#include "contingency/drain_orchestrator.h"
#include "core/cluster_controller.h"
#include "core/slate_proxy.h"
#include "fault/fault_injector.h"
#include "net/egress_meter.h"
#include "overload/circuit_breaker.h"
#include "overload/overload_policy.h"
#include "routing/policy.h"
#include "runtime/experiment.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "util/inline_function.h"
#include "util/pool.h"
#include "workload/arrival.h"

namespace slate {

class Simulation {
 public:
  Simulation(const Scenario& scenario, const RunConfig& config);
  ~Simulation();  // out-of-line: members use types incomplete in this header
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Runs to completion and returns the measurements. Call once.
  ExperimentResult run();

  // Introspection (valid after run()).
  [[nodiscard]] const GlobalController* global_controller() const noexcept {
    return global_.get();
  }
  [[nodiscard]] const TraceCollector& traces() const noexcept { return traces_; }
  // Null unless the merged scenario+config fault plan is non-empty.
  [[nodiscard]] const FaultInjector* fault_injector() const noexcept {
    return injector_.get();
  }
  // Null unless circuit breaking is enabled. Under the sharded engine this
  // is the first island's caller-side bank (banks are per island).
  [[nodiscard]] const CircuitBreakerBank* circuit_breakers() const noexcept {
    if (breakers_ != nullptr) return breakers_.get();
    return ctxs_.empty() ? nullptr : ctxs_.front()->breakers;
  }
  // Null for baseline policies; indexed by cluster id under SLATE.
  [[nodiscard]] const ClusterController* cluster_controller(
      ClusterId c) const noexcept {
    return c.index() < cluster_controllers_.size()
               ? cluster_controllers_[c.index()].get()
               : nullptr;
  }
  // Latency islands the sharded engine partitions into (1 on the legacy
  // engine) and the conservative lookahead window width in seconds
  // (+infinity with a single island).
  [[nodiscard]] std::size_t island_count() const noexcept {
    return island_count_;
  }
  [[nodiscard]] double lookahead_seconds() const noexcept { return lookahead_; }
  // Null unless front-door admission control is armed.
  [[nodiscard]] const AdmissionController* admission_controller() const noexcept {
    return admission_.get();
  }
  // Null unless at least one coordinated drain is scheduled.
  [[nodiscard]] const DrainOrchestrator* drain_orchestrator() const noexcept {
    return drain_orch_.get();
  }
  // Null unless bi-level co-design is armed (kSlate + autoscaler required).
  [[nodiscard]] const BilevelCoordinator* bilevel_coordinator() const noexcept {
    return bilevel_.get();
  }

 private:
  // Continuation of one call-tree node; `ok` is false when the subtree
  // failed (rejection, timeout, exhausted retries). 32-byte inline buffer:
  // hot-path continuations capture {this, pooled-state handle} and stay
  // allocation-free; only rare cold paths (front-door redirects, cross-
  // island RPC legs) spill.
  using Done = InlineFunction<void(bool ok), 32>;

  struct RequestState {
    RequestId id;
    ClassId cls;
    ClusterId ingress;
    double arrival_time = 0.0;
    // End-to-end deadline (absolute sim time; +inf when deadlines are off).
    double deadline = 0.0;
  };
  using ReqPtr = PoolPtr<RequestState>;

  // The realized child-call list of one node. Multiplicities are small;
  // the inline array covers the common case, a heap vector the tail.
  class CallList {
   public:
    void push_back(std::uint32_t node) {
      if (count_ < kInline) {
        inline_[count_] = node;
      } else {
        overflow_.push_back(node);
      }
      ++count_;
    }
    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    [[nodiscard]] std::uint32_t operator[](std::size_t i) const noexcept {
      return i < kInline ? inline_[i] : overflow_[i - kInline];
    }

   private:
    static constexpr std::size_t kInline = 8;
    std::array<std::uint32_t, kInline> inline_{};
    std::uint32_t count_ = 0;
    std::vector<std::uint32_t> overflow_;
  };

  // One executing call-tree node: alive from station submission until its
  // span is emitted and `done` fired.
  struct NodeState {
    ReqPtr req;
    std::uint32_t node = 0;
    ClusterId cluster;
    std::uint64_t span_id = 0;
    std::uint64_t parent_span = 0;
    double enqueue_time = 0.0;
    double queue_s = 0.0;
    double service_s = 0.0;
    // Remaining time budget for this node's subtree (absolute; +inf = none).
    double deadline = 0.0;
    Done done;
  };

  // Sequential child chain of one node.
  struct ChainState {
    ReqPtr req;
    ClusterId cluster;
    std::uint64_t parent_span = 0;
    CallList calls;
    std::size_t index = 0;
    double deadline = 0.0;
    Done done;
  };

  // Parallel child fan-out of one node.
  struct FanoutState {
    std::size_t remaining = 0;
    bool all_ok = true;
    Done done;
  };

  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  // One logical call (possibly several routed attempts). Reused across
  // retries; `attempt` doubles as the generation counter that lets stale
  // events of a superseded attempt recognize themselves. `slot` is the
  // attempt's entry in its context's cross-island RPC registry (kNilSlot
  // until the first remote leg; released at the terminal verdict).
  struct AttemptState {
    ReqPtr req;
    std::uint32_t node = 0;
    ClusterId from;
    ClusterId to;
    ClusterId exclude;  // cluster the previous attempt failed on
    std::uint64_t parent_span = 0;
    std::uint32_t attempt = 0;
    std::uint32_t slot = kNilSlot;
    bool settled = false;
    double deadline = 0.0;
    Done done;
  };

  // Caller-side registry entry for a call with a remote leg in flight. The
  // held handle pins the attempt alive until the slot is released; `gen`
  // invalidates responses addressed to a recycled slot.
  struct PendingRemote {
    PoolPtr<AttemptState> as;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNilSlot;
  };

  // Routing stamp a remote request leg carries so the response (or a stale
  // duplicate of it) can find — or correctly miss — its attempt.
  struct RemoteToken {
    std::uint32_t slot = kNilSlot;
    std::uint32_t slot_gen = 0;
    std::uint32_t attempt_gen = 0;
  };

  // Everything the data plane mutates per request, owned per latency island
  // so shards never contend: object pools, the routing RNG stream, result
  // accumulators, egress/trace/breaker telemetry, the retry-token budget,
  // and id counters (island-tagged so merged traces stay unique). The
  // legacy serial engine runs with exactly one context wired to the
  // Simulation-level members, preserving bit-identical behavior.
  struct ExecCtx {
    ExecCtx(const Topology& topo, std::size_t trace_capacity)
        : egress(topo), traces_owned(trace_capacity) {}

    std::uint32_t island = 0;
    Simulator* sim = nullptr;
    Rng rng_routing;

    // Hot-path control-block pools. Declared before the slot registry: a
    // pending slot holds a PoolPtr and must release before its pool dies.
    Pool<RequestState> request_pool;
    Pool<NodeState> node_pool;
    Pool<ChainState> chain_pool;
    Pool<FanoutState> fanout_pool;
    Pool<AttemptState> attempt_pool;

    EgressMeter egress;
    TraceCollector traces_owned;       // sharded sink; merged at run end
    TraceCollector* traces = nullptr;  // what this island's proxies record to
    std::unique_ptr<CircuitBreakerBank> breakers_owned;  // sharded only
    CircuitBreakerBank* breakers = nullptr;
    std::unique_ptr<RoutingPolicy> baseline_owned;  // sharded only
    RoutingPolicy* baseline = nullptr;
    std::unique_ptr<ExperimentResult> res_owned;  // sharded only
    ExperimentResult* res = nullptr;
    // Per-island Waterfall load observations, summed into the shared
    // snapshot at each window barrier (empty unless sharded + Waterfall).
    std::vector<RateMeter> load_meters;

    double retry_tokens = 0.0;  // token-bucket retry budget
    std::uint64_t next_request = 0;
    std::uint64_t next_span = 1;  // 0 is "no span" in trace context
    // Reused candidate-filter scratch for start_attempt (hot path:
    // allocating a fresh vector per attempt dominated allocs/request).
    std::vector<ClusterId> filter_scratch;

    // Cross-island RPC slots; after the pools (see above).
    std::vector<PendingRemote> slots;
    std::uint32_t free_slot = kNilSlot;
  };

  [[nodiscard]] std::size_t station_index(ServiceId s, ClusterId c) const {
    return s.index() * cluster_count_ + c.index();
  }
  [[nodiscard]] ServiceStation* station(ServiceId s, ClusterId c) {
    return stations_[station_index(s, c)].get();
  }
  SlateProxy& proxy(ServiceId s, ClusterId c) {
    return *proxies_[station_index(s, c)];
  }
  [[nodiscard]] bool sharded() const noexcept { return sharded_ != nullptr; }
  // The simulator control-plane machinery lives on: the single engine in
  // legacy mode, the coordinator's global LP in sharded mode.
  [[nodiscard]] Simulator& global_sim() noexcept {
    return sharded_ != nullptr ? sharded_->global() : sim_;
  }
  [[nodiscard]] std::uint32_t island_of(ClusterId c) const noexcept {
    return island_of_[c.index()];
  }
  // The execution context every event touching `c` runs under.
  [[nodiscard]] ExecCtx& ctx_of(ClusterId c) noexcept {
    return *ctxs_[island_of_[c.index()]];
  }

  void on_arrival(ClassId cls, ClusterId cluster);
  // Executes call node `node` of `req`'s class at `cluster`; `done` fires at
  // the node's response time (network back to the caller NOT included), with
  // ok=false when the cluster refused the request or a child subtree
  // failed. `parent_span` is the caller's span id (trace-context
  // propagation; 0 at the root). `deadline` is the remaining time budget
  // (absolute sim time; kNoDeadline when deadlines are off) — with deadline
  // propagation on, expired work is cancelled instead of executed.
  // Runs on (and its `done` fires on) `cluster`'s island.
  void execute_node(ReqPtr req, std::size_t node, ClusterId cluster,
                    std::uint64_t parent_span, double deadline, Done done);
  // Emits the node's span and fires its continuation.
  void finish_node(const PoolPtr<NodeState>& ns, bool ok);
  // Issues the call for child `node` from `from`: routes, pays the network
  // and egress both ways, recurses, retrying failed attempts per
  // config_.failure. `done` fires when the call settles at `from`.
  void issue_call(ReqPtr req, std::size_t node, ClusterId from,
                  std::uint64_t parent_span, double deadline, Done done);
  // One routed attempt of the call described by `as` (fields set by
  // issue_call / the preceding attempt's retry path).
  void start_attempt(const PoolPtr<AttemptState>& as);
  // Terminal verdict of the current attempt: ok completes the call, a
  // failure retries (budget permitting) or fails the call.
  void settle_attempt(const PoolPtr<AttemptState>& as, bool ok);
  // Runs `children[index...]` per the parent's invocation mode.
  void run_children(ReqPtr req, std::size_t parent_node, ClusterId cluster,
                    std::uint64_t parent_span, double deadline, Done done);
  // Advances a sequential child chain after the previous child settled.
  void chain_next(const PoolPtr<ChainState>& cs, bool ok);

  // Cross-island RPC plumbing (sharded engine only). A remote request leg
  // carries the request state by value plus a RemoteToken; the response
  // finds its attempt through the caller context's slot registry.
  std::uint32_t acquire_slot(ExecCtx& cx, const PoolPtr<AttemptState>& as);
  void release_slot(ExecCtx& cx, AttemptState& as);
  void on_remote_response(ExecCtx& cx, RemoteToken tok, bool ok);

  // One fault-aware network latency draw for a message from -> to, from the
  // issuing context's routing stream.
  [[nodiscard]] double net_delay(ExecCtx& cx, ClusterId from, ClusterId to);
  [[nodiscard]] bool cluster_down(ClusterId c) const noexcept {
    return injector_ != nullptr && injector_->cluster_down(c);
  }
  // Terminal outcome of one request (success or error), at its ingress.
  void finish_request(ExecCtx& cx, const RequestState& req, bool ok,
                      ServiceId entry, ClusterId entry_cluster);
  // The ingress-side half: time-series bucket + measurement counters.
  // (Cross-island redirects record the root proxy's e2e callee-side and
  // ship only this part home.) `admitted` is false only for requests the
  // admission gate fast-failed — they must not feed the adaptation
  // loop's outcome evidence.
  void finish_request_tail(ExecCtx& cx, ClassId cls, ClusterId ingress,
                           bool ok, double e2e, bool admitted);
  // Arrival-rate observation for Waterfall: the live view in legacy mode,
  // the context's snapshot meters in sharded mode.
  void observe_load(ExecCtx& cx, ServiceId s, ClusterId c);

  void control_tick();
  // Propagates a drain keep-fraction change to the data plane (ingress
  // shedding), the solver's capacity view, and the cluster's autoscalers.
  // Runs on the global timeline only (DrainOrchestrator::Hooks::apply_keep).
  void apply_drain_keep(ClusterId cluster, double keep);
  // Applies a telemetry-corruption fault to a collected report: finite
  // garbage only (spikes, zeros, sign flips) — the byzantine-reporter
  // recipe the admission guard is benchmarked against. Non-finite payloads
  // are exercised in unit/fuzz tests against the validator directly.
  void corrupt_report(ClusterReport& report, double factor);
  void begin_measurement();

  // Groups clusters into latency islands (union over zero-latency pairs)
  // and derives the conservative lookahead from the cross-island latency
  // floor. Sharded mode only.
  void compute_islands();
  // Constructs the configured baseline routing policy (non-SLATE kinds).
  [[nodiscard]] std::unique_ptr<RoutingPolicy> make_baseline(
      const LoadView* view) const;
  // Sizes the per-class containers of a result accumulator.
  void init_result_shape(ExperimentResult& r) const;
  // Folds per-island accumulators into result_, in island order (the order
  // is island-determined, so merged output is invariant to worker count).
  void merge_results();
  // Barrier hook: per-island Waterfall meters -> shared load snapshot.
  void refresh_waterfall_snapshot();

  const Scenario& scenario_;
  RunConfig config_;
  std::size_t cluster_count_;

  // Effective overload policy: scenario's, with each enabled sub-policy of
  // the config overriding its counterpart.
  OverloadPolicy overload_;
  // Precomputed per-class knobs (kNoDeadline / 0 when the sub-policy is off).
  std::vector<double> deadline_by_class_;
  std::vector<int> priority_by_class_;
  // Legacy-engine bank (null when sharded: each context owns its own).
  std::unique_ptr<CircuitBreakerBank> breakers_;

  // Effective front-door admission policy (config overrides scenario
  // wholesale when enabled) and its controller, null unless armed. The
  // controller is shared across islands but every (class, cluster) cell
  // is touched only from its cluster's island between barriers; the
  // adaptation loop runs on the global timeline at window barriers.
  AdmissionPolicy admission_policy_;
  std::unique_ptr<AdmissionController> admission_;

  // Coordinated drains: the merged scenario+config schedule, the
  // orchestrator driving it (null when no drains — an undrained run adds
  // zero events and zero RNG draws), and the per-cluster keep-fraction the
  // data plane reads. drain_keep_ changes only at global barriers.
  std::vector<DrainSpec> drains_;
  std::unique_ptr<DrainOrchestrator> drain_orch_;
  std::vector<double> drain_keep_;
  // True once any cluster's keep-fraction hit 0 (fully evacuated): arms the
  // candidate-filter exclusion in start_attempt.
  bool have_fully_drained_ = false;

  // Latency-island partition (all zeros / 1 island on the legacy engine).
  std::vector<std::uint32_t> island_of_;  // per cluster
  std::size_t island_count_ = 1;
  double lookahead_ = 0.0;

  // Execution contexts, one per island (exactly one on the legacy engine).
  // Declared before both engines and the stations: events and queued jobs
  // hold PoolPtrs into these contexts' pools, so the contexts die last.
  std::vector<std::unique_ptr<ExecCtx>> ctxs_;

  Simulator sim_;  // legacy serial engine (idle when sharded_ is set)
  std::unique_ptr<ShardedSimulator> sharded_;

  Rng rng_root_;
  Rng rng_chaos_;  // telemetry-corruption draws (fork 3 of the root)

  // Per service: clusters hosting it (ascending id order).
  std::vector<std::vector<ClusterId>> candidates_;
  // Per (service, cluster); null where not deployed.
  std::vector<std::unique_ptr<ServiceStation>> stations_;
  std::vector<std::unique_ptr<Autoscaler>> autoscalers_;
  std::vector<std::unique_ptr<SlateProxy>> proxies_;
  std::vector<std::unique_ptr<MetricsRegistry>> registries_;  // per cluster
  std::vector<std::shared_ptr<WeightedRulesPolicy>> rule_policies_;  // per cluster
  std::vector<std::unique_ptr<ClusterController>> cluster_controllers_;
  std::unique_ptr<GlobalController> global_;
  // Bi-level co-design coordinator (docs/autoscaling.md), created in run()
  // once the autoscalers exist; null when the subsystem is off — a disabled
  // run touches neither the capacity view nor the autoscalers.
  std::unique_ptr<BilevelCoordinator> bilevel_;
  std::unique_ptr<RoutingPolicy> baseline_policy_;  // legacy engine

  // Live load signal for Waterfall (legacy engine).
  class LiveLoadView;
  std::unique_ptr<LiveLoadView> load_view_;
  // Sharded Waterfall: per-island meters sum into this snapshot at every
  // window barrier; routing reads it (at most one window stale).
  class SnapshotLoadView;
  FlatMatrix<double> waterfall_snapshot_;
  std::unique_ptr<SnapshotLoadView> snapshot_view_;

  TraceCollector traces_;
  // One driver on the legacy engine; one per island (stream-partitioned)
  // on the sharded engine.
  std::vector<std::unique_ptr<WorkloadDriver>> workloads_;
  std::unique_ptr<FaultInjector> injector_;
  // RAII: destroying the Simulation cancels the control loop, so an
  // injected controller shutdown cannot leak a live timer.
  Simulator::ScopedPeriodic control_timer_;
  // Admission adaptation loop (scheduled only when admission is armed
  // with adapt on — an unarmed run adds zero events).
  Simulator::ScopedPeriodic admission_timer_;
  // Drain orchestrator tick (scheduled only when drains are present).
  Simulator::ScopedPeriodic drain_timer_;

  // Measurement state.
  bool measuring_ = false;
  ExperimentResult result_;
  std::uint64_t rule_pushes_ = 0;
  // Previous pushed rule set, for the successive-push L1 churn signal.
  std::shared_ptr<const RoutingRuleSet> last_pushed_rules_;
};

}  // namespace slate

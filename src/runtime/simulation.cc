#include "runtime/simulation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <variant>

#include "core/routing_rules.h"
#include "routing/local_only.h"
#include "routing/locality_failover.h"
#include "routing/round_robin.h"
#include "routing/static_weights.h"
#include "routing/waterfall.h"
#include "telemetry/metrics.h"
#include "util/logging.h"

namespace slate {

// Per-(service, cluster) arrival-rate signal for Waterfall — the analogue
// of the load reports Traffic Director distributes. With one island it
// reads that island's meters live; with several it reads the snapshot the
// barrier hook sums the islands' meters into, at most one lookahead window
// stale — the same kind of staleness a distributed load-report bus has.
class Simulation::WaterfallLoadView final : public LoadView {
 public:
  explicit WaterfallLoadView(const Simulation& owner) : owner_(owner) {}

  [[nodiscard]] double load_rps(ServiceId s, ClusterId c) const override {
    const std::uint32_t slot = owner_.load_slot(s, c);
    if (slot == kNilSlot) return 0.0;
    if (owner_.island_count_ > 1) return owner_.waterfall_snapshot_[slot];
    const ExecCtx& cx = *owner_.ctxs_.front();
    return cx.load_meters[slot].rate(cx.sim->now());
  }

 private:
  const Simulation& owner_;
};

Simulation::~Simulation() = default;

Simulation::Simulation(const Scenario& scenario, const RunConfig& config)
    : scenario_(scenario),
      config_(config),
      cluster_count_(scenario.topology->cluster_count()),
      rng_root_(config.seed),
      // Forking mutates the parent stream; the chaos stream forks a fresh
      // copy of the seed so arming it never perturbs the workload/station/
      // routing draws of an otherwise-identical run.
      rng_chaos_([&config] { return Rng(config.seed).fork(3); }()) {
  const Application& app = *scenario_.app;
  app.validate();
  scenario_.deployment->validate();
  if (scenario_.deployment->cluster_count() != cluster_count_) {
    throw std::invalid_argument("Simulation: deployment/topology mismatch");
  }
  if (config_.warmup >= config_.duration) {
    throw std::invalid_argument("Simulation: warmup must precede duration");
  }

  const std::size_t S = app.service_count();
  const std::size_t K = app.class_count();

  // Subsystem policy lives on the Scenario alone. RunConfig::slate carries
  // the controller's own knobs; an armed guard, forecast or contingency
  // there is stale harness code, refused rather than silently ignored.
  const char* armed = nullptr;
  if (config_.slate.guard.any_enabled()) armed = "guard";
  if (config_.slate.forecast.kind != ForecastKind::kNone) armed = "forecast";
  if (config_.slate.contingency.enabled) armed = "contingency";
  if (armed != nullptr) {
    throw std::invalid_argument(std::string("Simulation: set Scenario::") +
                                armed + ", not RunConfig::slate." + armed);
  }
  overload_ = scenario_.overload;
  overload_.validate(K);
  scenario_.admission.validate(K);
  scenario_.contingency.validate();

  deadline_by_class_.assign(K, ServiceStation::kNoDeadline);
  priority_by_class_.assign(K, 0);
  for (std::size_t k = 0; k < K; ++k) {
    if (overload_.deadline.enabled) {
      deadline_by_class_[k] = overload_.deadline.deadline_for(ClassId{k});
    }
    priority_by_class_[k] = overload_.queue.priority_of(ClassId{k});
  }

  // The controller reads its guard, contingency and forecast from the
  // scenario. The harness owns the prediction horizon (one control period)
  // and, for the oracle, the schedule the future is read from.
  config_.slate.guard = scenario_.guard;
  config_.slate.contingency = scenario_.contingency;
  config_.slate.forecast = scenario_.forecast;
  config_.slate.forecast.horizon = config_.control_period;
  config_.slate.forecast.oracle_schedule =
      scenario_.forecast.kind == ForecastKind::kOracle ? &scenario_.demand
                                                       : nullptr;

  // Front-door admission. The controller exists only when armed — a
  // disabled policy leaves the data path bit-identical to a build without
  // the subsystem.
  if (scenario_.admission.enabled) {
    admission_ = std::make_unique<AdmissionController>(scenario_.admission, K,
                                                       cluster_count_);
  }

  // Bi-level co-design needs both halves it couples — the SLATE control
  // plane and the autoscalers — so it silently disarms without them (a
  // scenario shipping `bilevel` must stay runnable under baseline policies
  // and fixed capacity).
  const BilevelOptions& bilevel = scenario_.bilevel;
  bilevel_armed_ = bilevel.enabled && config_.policy == PolicyKind::kSlate &&
                   config_.autoscaler_enabled;
  if (bilevel_armed_ && bilevel.server_cost_weight > 0.0) {
    // Arm the joint $/hr objective before the controller is built below:
    // the solver prices planned busy work as the servers the autoscaler
    // must keep provisioned for it (docs/autoscaling.md).
    config_.slate.optimizer.server_cost_weight = bilevel.server_cost_weight;
    config_.slate.optimizer.server_price_target =
        bilevel.price_target > 0.0 ? bilevel.price_target
                                   : config_.autoscaler.target_utilization;
  }

  // drain_keep_ is the data plane's per-cluster view of the drains; it
  // moves only at global control barriers.
  drain_keep_.assign(cluster_count_, 1.0);
  for (const DrainSpec& d : scenario_.drains) {
    if (!d.cluster.valid() || d.cluster.index() >= cluster_count_) {
      throw std::invalid_argument("Simulation: drain targets an unknown cluster");
    }
  }

  // Execution engine. The island partition and the conservative lookahead
  // derive from the topology alone, so the schedule is independent of the
  // worker-thread count (byte-identical output for any --shards >= 1).
  if (config_.shards > 0) {
    compute_islands();
  } else {
    island_of_.assign(cluster_count_, 0);
    island_count_ = 1;
    lookahead_ = std::numeric_limits<double>::infinity();
  }
  // Worker threads clamp to hardware as well as to the island count:
  // oversubscribing cores buys nothing but context switches, and the
  // schedule (hence the output) never depends on the worker count.
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  engine_.emplace(
      island_count_, lookahead_,
      std::min({std::max<std::size_t>(config_.shards, 1), island_count_, hw}));

  // Fault injection. Fault transitions are control-plane events; they run
  // on the global timeline (at window barriers) so every island observes
  // each transition at the same boundary.
  if (!scenario_.faults.empty()) {
    injector_ = std::make_unique<FaultInjector>(
        engine_->global(), scenario_.faults, cluster_count_, S);
  }

  // Per-cluster telemetry (cells for the services the cluster hosts), rule
  // executors, and Waterfall load slots: one per deployed station, so the
  // meters and the barrier snapshot are sized to those, not S x C.
  std::uint32_t load_slots = 0;
  load_slot_.assign(S * cluster_count_, kNilSlot);
  registries_.reserve(cluster_count_);
  rule_policies_.reserve(cluster_count_);
  for (std::size_t c = 0; c < cluster_count_; ++c) {
    std::vector<ServiceId> hosted;
    hosted.reserve(S);
    for (std::size_t s = 0; s < S; ++s) {
      const ServiceId svc{s};
      if (!scenario_.deployment->is_deployed(svc, ClusterId{c})) continue;
      hosted.push_back(svc);
      load_slot_[station_index(svc, ClusterId{c})] = load_slots++;
    }
    registries_.push_back(
        std::make_unique<MetricsRegistry>(S, K, std::move(hosted)));
    rule_policies_.push_back(
        std::make_shared<WeightedRulesPolicy>(*scenario_.topology));
  }

  // Offered load per island: each demand stream's piecewise-constant
  // schedule walked for its peak rate. It sizes the event queues (the
  // implied in-flight event population, a handful of events per request
  // over a few tens of ms, instead of growing through every power of two
  // during warmup) and each island's pool chunks (its share of 256 objects,
  // so 30 lightly loaded islands do not each carve full-size chunks).
  std::vector<double> island_peak_rps(island_count_, 0.0);
  double peak_rps = 0.0;
  {
    const auto& streams = scenario_.demand.streams();
    for (const auto& st : streams) {
      double peak = 0.0;
      double t = 0.0;
      for (int hop = 0; hop < 1024 && t < config_.duration; ++hop) {
        peak = std::max(peak, scenario_.demand.rate_at(st.cls, st.cluster, t));
        const double boundary =
            scenario_.demand.next_change_after(st.cls, st.cluster, t);
        if (!std::isfinite(boundary) || boundary <= t) break;
        t = boundary;
      }
      island_peak_rps[island_of(st.cluster)] += peak;
      peak_rps += peak;
    }
    const double est =
        peak_rps * 0.25 + static_cast<double>(streams.size()) + 64.0;
    const std::size_t reserve = std::clamp(
        static_cast<std::size_t>(est), std::size_t{1024}, std::size_t{1} << 20);
    for (std::size_t i = 0; i < island_count_; ++i) {
      engine_->lp(i).reserve_events(reserve / island_count_ + 64);
    }
  }

  // Execution contexts. The fork order on the root stream is load-bearing:
  // fork(2) routing (here), fork(1) stations (below), fork(0) workload (in
  // run()).
  Rng routing_parent = rng_root_.fork(2);
  ctxs_.reserve(island_count_);
  for (std::size_t i = 0; i < island_count_; ++i) {
    const double share = peak_rps > 0.0 ? island_peak_rps[i] / peak_rps : 1.0;
    const std::size_t pool_chunk = std::clamp(
        static_cast<std::size_t>(std::ceil(256.0 * share)), std::size_t{16},
        std::size_t{256});
    auto cx = std::make_unique<ExecCtx>(*scenario_.topology,
                                        config_.trace_capacity, pool_chunk);
    cx->island = static_cast<std::uint32_t>(i);
    cx->sim = &engine_->lp(i);
    // Per-island routing stream: each island forks the same parent state
    // with its own tag, so streams are decorrelated and — critically —
    // independent of every other island's draw count. A single island
    // takes the parent stream itself.
    if (island_count_ == 1) {
      cx->rng_routing = routing_parent;
    } else {
      Rng parent = routing_parent;
      cx->rng_routing = parent.fork(i);
    }
    // Island-tagged id counters keep merged traces collision-free.
    cx->next_request = static_cast<std::uint64_t>(i) << 24;
    cx->next_span = (static_cast<std::uint64_t>(i) << 48) | 1;
    if (overload_.breaker.enabled) {
      // Caller-side health is island-local state: one bank per island.
      cx->breakers = std::make_unique<CircuitBreakerBank>(overload_.breaker,
                                                          S, cluster_count_);
    }
    if (config_.policy == PolicyKind::kWaterfall) {
      cx->load_meters.assign(load_slots, RateMeter(1.0));
    }
    init_result_shape(cx->res);
    ctxs_.push_back(std::move(cx));
  }

  // Stations and proxies where deployed, each on its cluster's island.
  stations_.resize(S * cluster_count_);
  proxies_.resize(S * cluster_count_);
  Rng station_rng = rng_root_.fork(1);
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t c = 0; c < cluster_count_; ++c) {
      const ServiceId svc{s};
      const ClusterId cluster{c};
      if (!scenario_.deployment->is_deployed(svc, cluster)) continue;
      stations_[station_index(svc, cluster)] = std::make_unique<ServiceStation>(
          *ctx_of(cluster).sim, station_rng.fork(s * cluster_count_ + c), svc,
          cluster, scenario_.deployment->servers(svc, cluster));
      if (overload_.queue.enabled() || overload_.deadline.enabled) {
        StationOverloadConfig sc;
        sc.max_queue = overload_.queue.max_queue;
        sc.priority_shedding = overload_.queue.priority_shedding;
        sc.codel_target = overload_.queue.codel_target;
        sc.codel_interval = overload_.queue.codel_interval;
        sc.cancel_expired =
            overload_.deadline.enabled && overload_.deadline.propagate;
        stations_[station_index(svc, cluster)]->configure_overload(sc);
      }
      proxies_[station_index(svc, cluster)] = std::make_unique<SlateProxy>(
          svc, *registries_[c], rule_policies_[c],
          ctx_of(cluster).traces.enabled() ? &ctx_of(cluster).traces : nullptr);
    }
  }

  if (config_.policy == PolicyKind::kWaterfall) {
    load_view_ = std::make_unique<WaterfallLoadView>(*this);
    if (island_count_ > 1) waterfall_snapshot_.assign(load_slots, 0.0);
  }

  // Candidate clusters per service (deployment is immutable during a run).
  candidates_.resize(S);
  for (std::size_t s = 0; s < S; ++s) {
    candidates_[s] = scenario_.deployment->clusters_for(ServiceId{s});
  }

  // Routing scheme.
  if (config_.policy == PolicyKind::kSlate) {
    global_ = std::make_unique<GlobalController>(
        app, *scenario_.deployment, *scenario_.topology, config_.slate);
    for (std::size_t c = 0; c < cluster_count_; ++c) {
      std::vector<ServiceStation*> cluster_stations(S, nullptr);
      for (std::size_t s = 0; s < S; ++s) {
        cluster_stations[s] = stations_[s * cluster_count_ + c].get();
      }
      cluster_controllers_.push_back(std::make_unique<ClusterController>(
          ClusterId{c}, K, *registries_[c], std::move(cluster_stations),
          rule_policies_[c]));
    }
  } else {
    // Per-island policy instances: stateful baselines (round-robin cursors,
    // waterfall internals) are data-plane state and must not be shared
    // across concurrently executing islands.
    for (auto& cx : ctxs_) cx->baseline = make_baseline(load_view_.get());
  }

  // Result identity and the shared flow matrices; the other data-plane
  // rows take their shape from the island merge at run end.
  result_.scenario = scenario_.name;
  result_.policy = to_string(config_.policy);
  if (config_.timeseries_bucket > 0.0) {
    result_.series_bucket = config_.timeseries_bucket;
  }
  result_.flows.resize(K);
  for (std::size_t k = 0; k < K; ++k) {
    const std::size_t nodes = app.traffic_class(ClassId{k}).graph.node_count();
    result_.flows[k].assign(
        nodes, FlatMatrix<std::uint64_t>(cluster_count_, cluster_count_, 0));
  }
}

void Simulation::compute_islands() {
  const Topology& topo = *scenario_.topology;
  const std::size_t C = cluster_count_;

  // Union-find over zero-latency pairs: clusters a message can reach in
  // zero simulated time must share an event loop (no lookahead separates
  // them). Everything else is split apart.
  std::vector<std::size_t> parent(C);
  for (std::size_t i = 0; i < C; ++i) parent[i] = i;
  const auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::size_t i = 0; i < C; ++i) {
    for (std::size_t j = i + 1; j < C; ++j) {
      if (topo.one_way_latency(ClusterId{i}, ClusterId{j}) <= 0.0 ||
          topo.one_way_latency(ClusterId{j}, ClusterId{i}) <= 0.0) {
        parent[find(i)] = find(j);
      }
    }
  }

  // Island ids in first-cluster order, so the partition (and with it every
  // island-tagged id and merge order) is deterministic.
  island_of_.assign(C, 0);
  std::vector<std::uint32_t> id_of_root(C, 0xffffffffu);
  std::uint32_t next = 0;
  for (std::size_t c = 0; c < C; ++c) {
    const std::size_t r = find(c);
    if (id_of_root[r] == 0xffffffffu) id_of_root[r] = next++;
    island_of_[c] = id_of_root[r];
  }
  island_count_ = next;

  // Conservative lookahead: no cross-island message can arrive sooner than
  // the cross-island latency floor, even at maximum negative jitter.
  if (island_count_ <= 1) {
    lookahead_ = std::numeric_limits<double>::infinity();
    return;
  }
  double floor = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < C; ++i) {
    for (std::size_t j = 0; j < C; ++j) {
      if (island_of_[i] == island_of_[j]) continue;
      floor = std::min(floor, topo.one_way_latency(ClusterId{i}, ClusterId{j}));
    }
  }
  lookahead_ = floor * (1.0 - topo.jitter_fraction());
}

std::unique_ptr<RoutingPolicy> Simulation::make_baseline(
    const LoadView* view) const {
  switch (config_.policy) {
    case PolicyKind::kLocalOnly:
      return std::make_unique<LocalOnlyPolicy>();
    case PolicyKind::kRoundRobin:
      return std::make_unique<RoundRobinPolicy>();
    case PolicyKind::kLocalityFailover:
      return std::make_unique<LocalityFailoverPolicy>(*scenario_.topology);
    case PolicyKind::kStaticWeights:
      return std::make_unique<StaticWeightsPolicy>(
          StaticWeightsPolicy::make_uniform_spread(*scenario_.topology,
                                                   config_.static_local_share));
    case PolicyKind::kWaterfall:
      return std::make_unique<WaterfallPolicy>(*scenario_.topology,
                                               *scenario_.deployment, *view,
                                               config_.waterfall);
    case PolicyKind::kSlate:
      break;
  }
  return nullptr;
}

void Simulation::init_result_shape(ExperimentResult& r) const {
  const Application& app = *scenario_.app;
  const std::size_t K = app.class_count();
  const std::size_t buckets =
      config_.timeseries_bucket > 0.0
          ? static_cast<std::size_t>(std::ceil(config_.duration /
                                               config_.timeseries_bucket)) +
                1
          : 0;
  for (const CounterRow& row : kResultCounters) {
    if (row.kind != CounterKind::kPerClass &&
        row.kind != CounterKind::kPerBucket) {
      continue;
    }
    const auto member =
        std::get<std::vector<std::uint64_t> ExperimentResult::*>(row.member);
    (r.*member).assign(row.kind == CounterKind::kPerClass ? K : buckets, 0);
  }
  r.e2e_by_class.resize(K);
}

double Simulation::net_delay(ExecCtx& cx, ClusterId from, ClusterId to) {
  double d = scenario_.topology->sample_latency(from, to, cx.rng_routing);
  if (injector_ != nullptr) {
    d = d * injector_->latency_factor(from, to) +
        injector_->extra_latency(from, to);
  }
  return d;
}

void Simulation::observe_load(ExecCtx& cx, ServiceId s, ClusterId c) {
  if (cx.load_meters.empty()) return;
  const std::uint32_t slot = load_slot(s, c);
  RateMeter& meter = cx.load_meters[slot];
  if (!meter.observed()) cx.observed.push_back(slot);
  meter.observe(cx.sim->now());
}

void Simulation::finish_request_tail(ExecCtx& cx, ClassId cls,
                                     ClusterId ingress, bool ok, double e2e,
                                     bool admitted) {
  // Outcome evidence for the admission adaptation loop (whole run —
  // the loop needs signal during warmup too). Gate-rejected requests
  // are excluded: feeding their fast-fails back would spiral every
  // cut into more cuts.
  if (admission_ != nullptr && admitted) {
    admission_->on_outcome(cls, ingress, ok, e2e);
  }
  if (config_.timeseries_bucket > 0.0) {
    const auto b =
        static_cast<std::size_t>(cx.sim->now() / config_.timeseries_bucket);
    auto& series = ok ? cx.res.completed_series : cx.res.failed_series;
    if (b < series.size()) ++series[b];
  }
  if (!measuring_) return;
  if (ok) {
    ++cx.res.completed;
    cx.res.e2e.add(e2e);
    cx.res.e2e_by_class[cls.index()].add(e2e);
    if (admission_ != nullptr && e2e <= admission_->slo_for(cls)) {
      ++cx.res.slo_hits_by_class[cls.index()];
    }
  } else {
    ++cx.res.failed;
    ++cx.res.failed_by_class[cls.index()];
  }
}

void Simulation::finish_request(ExecCtx& cx, const RequestState& req, bool ok,
                                ServiceId entry, ClusterId entry_cluster) {
  const double e2e = cx.sim->now() - req.arrival_time;
  if (ok) proxy(entry, entry_cluster).on_root_response(req.cls, e2e);
  finish_request_tail(cx, req.cls, req.ingress, ok, e2e, /*admitted=*/true);
}

void Simulation::on_arrival(ClassId cls, ClusterId cluster) {
  const Application& app = *scenario_.app;
  ExecCtx& cx = ctx_of(cluster);
  ++cx.res.generated;

  ReqPtr req = cx.request_pool.make();
  req->id = RequestId{cx.next_request++};
  req->cls = cls;
  req->ingress = cluster;
  req->arrival_time = cx.sim->now();
  // End-to-end budget: the class deadline starts at the front door
  // (kNoDeadline when deadlines are off).
  req->deadline = cx.sim->now() + deadline_by_class_[cls.index()];

  // Front-door admission gate: before the redirect logic, before the
  // telemetry the controller solves on (TE sees admitted demand only),
  // and before execute_node ever runs. A rejection completes
  // synchronously as a fast-fail error.
  if (admission_ != nullptr) {
    if (!admission_->try_admit(cls, cluster, cx.sim->now())) {
      ++cx.res.admission_rejected;
      ++cx.res.admission_rejected_by_class[cls.index()];
      registries_[cluster.index()]->record_ingress_rejected(cls);
      finish_request_tail(cx, cls, cluster, /*ok=*/false, /*e2e=*/0.0,
                          /*admitted=*/false);
      return;
    }
    ++cx.res.admission_admitted;
    ++cx.res.admission_admitted_by_class[cls.index()];
  }

  registries_[cluster.index()]->record_ingress(cls, cx.sim->now());

  const ServiceId entry = app.entry_service(cls);
  // Coordinated drain: the front door sheds (1 - keep) of this cluster's
  // new arrivals to the nearest healthy edge — the DNS/anycast weight shift
  // a real evacuation starts with. Zero RNG draws unless this cluster is
  // mid-drain, so undrained runs stay byte-identical.
  bool drain_divert = false;
  if (drain_orch_ != nullptr) {
    const double keep = drain_keep_[cluster.index()];
    if (keep < 1.0 &&
        (keep <= 0.0 || cx.rng_routing.next_double() >= keep)) {
      drain_divert = true;
    }
  }
  // Front door: the arrival cluster, else the nearest up entry replica
  // (clients reach a healthy edge via DNS/anycast; the client edge itself
  // is not subject to link partitions). A diverting cluster is skipped, and
  // nothing is diverted INTO a fully evacuated cluster.
  const std::vector<ClusterId>& entries = candidates_[entry.index()];
  ClusterId entry_cluster = scenario_.topology->local_or_nearest(
      cluster, entries, [&](ClusterId c) {
        if (cluster_down(c)) return true;
        if (c == cluster) return drain_divert;
        return drain_orch_ != nullptr && drain_keep_[c.index()] <= 0.0;
      });
  if (!entry_cluster.valid() && have_fully_drained_) {
    // Panic: every live alternative is evacuated. An evacuated-but-up
    // cluster beats stranding the request (same rule the breaker's
    // panic-threshold applies to ejections).
    entry_cluster = scenario_.topology->local_or_nearest(
        cluster, entries, [&](ClusterId c) {
          return cluster_down(c) || (drain_divert && c == cluster);
        });
  }
  if (!entry_cluster.valid()) {
    if (drain_divert && scenario_.deployment->is_deployed(entry, cluster) &&
        !cluster_down(cluster)) {
      // Nowhere to divert to: a drain must degrade to serving locally,
      // never strand traffic the way a real outage would.
      entry_cluster = cluster;
    } else {
      // Every cluster hosting the entry service is down.
      ++cx.res.call_rejections;
      finish_request(cx, *req, false, entry, cluster);
      return;
    }
  }

  if (measuring_) {
    result_.flows[cls.index()][0](cluster.index(), entry_cluster.index())++;
  }
  observe_load(cx, entry, entry_cluster);

  if (entry_cluster == cluster) {
    Done finish = [this, req, entry, entry_cluster](bool ok) {
      finish_request(ctx_of(req->ingress), *req, ok, entry, entry_cluster);
    };
    const double deadline = req->deadline;
    execute_node(std::move(req), 0, entry_cluster, 0, deadline,
                 std::move(finish));
    return;
  }

  // Front-door redirect to the nearest cluster hosting the entry service.
  // Cold path: these closures may exceed the inline buffers and spill to
  // the heap — redirects only happen under partial deployments or faults.
  const CallGraph& graph = app.traffic_class(cls).graph;
  cx.egress.record(cluster, entry_cluster, graph.node(0).request_bytes);
  const double d1 = net_delay(cx, cluster, entry_cluster);

  if (island_of(entry_cluster) == cx.island) {
    Done finish = [this, req, entry, entry_cluster](bool ok) {
      finish_request(ctx_of(req->ingress), *req, ok, entry, entry_cluster);
    };
    cx.sim->schedule_after(d1, [this, req = std::move(req), entry_cluster,
                                cluster, finish = std::move(finish)]() mutable {
      ReqPtr r = req;
      ExecCtx& ce = ctx_of(entry_cluster);
      if (overload_.deadline.enabled && r->deadline <= ce.sim->now()) {
        // Born dead in transit: the end-to-end budget expired during the
        // redirect hop. Cancel before execute_node ever runs — even
        // without propagation, work already expired at arrival must not
        // be enqueued.
        ++ce.res.deadline_cancellations;
        const double d2 = net_delay(ce, entry_cluster, cluster);
        ce.sim->schedule_after(d2, [finish = std::move(finish)]() mutable {
          finish(false);
        });
        return;
      }
      const double deadline = r->deadline;
      execute_node(std::move(r), 0, entry_cluster, 0, deadline,
                   [this, req = std::move(req), entry_cluster, cluster,
                    finish = std::move(finish)](bool ok) mutable {
                     ExecCtx& ce = ctx_of(entry_cluster);
                     if (ok) {
                       const CallGraph& g =
                           scenario_.app->traffic_class(req->cls).graph;
                       ce.egress.record(entry_cluster, cluster,
                                        g.node(0).response_bytes);
                     }
                     const double d2 = net_delay(ce, entry_cluster, cluster);
                     ce.sim->schedule_after(
                         d2, [finish = std::move(finish), ok]() mutable {
                           finish(ok);
                         });
                   });
    });
    return;
  }

  // Cross-island redirect: ship the request state by value to the entry
  // island's event loop; no pooled handle crosses the boundary. The entry
  // proxy records the root e2e at response-send time (same value the
  // ingress later counts — the network delay home is added before the
  // observation, not after); the ingress island keeps the run counters.
  const RequestState snap = *req;
  engine_->send(
      cx.island, island_of(entry_cluster), cx.sim->now() + d1,
      [this, snap, entry, entry_cluster, cluster]() {
        ExecCtx& ce = ctx_of(entry_cluster);
        if (overload_.deadline.enabled && snap.deadline <= ce.sim->now()) {
          // Born dead in transit (cross-island): cancel at delivery,
          // before the remote pool entry or execute_node exist.
          ++ce.res.deadline_cancellations;
          const double d2 = net_delay(ce, entry_cluster, cluster);
          const double e2e = (ce.sim->now() - snap.arrival_time) + d2;
          engine_->send(ce.island, island_of(cluster), ce.sim->now() + d2,
                        [this, cluster, cls = snap.cls, e2e]() {
                          finish_request_tail(ctx_of(cluster), cls, cluster,
                                              false, e2e, /*admitted=*/true);
                        });
          return;
        }
        ReqPtr r = ce.request_pool.make();
        *r = snap;
        const double deadline = snap.deadline;
        execute_node(
            std::move(r), 0, entry_cluster, 0, deadline,
            [this, arrival = snap.arrival_time, cls = snap.cls, entry,
             entry_cluster, cluster](bool ok) {
              ExecCtx& ce2 = ctx_of(entry_cluster);
              if (ok) {
                const CallGraph& g = scenario_.app->traffic_class(cls).graph;
                ce2.egress.record(entry_cluster, cluster,
                                  g.node(0).response_bytes);
              }
              const double d2 = net_delay(ce2, entry_cluster, cluster);
              const double e2e = (ce2.sim->now() - arrival) + d2;
              if (ok) proxy(entry, entry_cluster).on_root_response(cls, e2e);
              engine_->send(ce2.island, island_of(cluster),
                            ce2.sim->now() + d2, [this, cluster, cls, ok, e2e]() {
                              finish_request_tail(ctx_of(cluster), cls, cluster,
                                                  ok, e2e, /*admitted=*/true);
                            });
            });
      });
}

void Simulation::execute_node(ReqPtr req, std::size_t node, ClusterId cluster,
                              std::uint64_t parent_span, double deadline,
                              Done done) {
  ExecCtx& cx = ctx_of(cluster);
  if (cluster_down(cluster)) {
    // Every station in a down cluster refuses new work; in-flight jobs run
    // to completion (no preemption).
    ++cx.res.call_rejections;
    done(false);
    return;
  }
  if (overload_.deadline.enabled && overload_.deadline.propagate &&
      deadline <= cx.sim->now()) {
    // The budget is gone before the node even starts: cancel instead of
    // queueing doomed work.
    ++cx.res.deadline_cancellations;
    done(false);
    return;
  }
  const CallGraph& graph = scenario_.app->traffic_class(req->cls).graph;
  const CallNode& cnode = graph.node(node);
  ServiceStation* st = station(cnode.service, cluster);
  if (st == nullptr) {
    throw std::logic_error("Simulation: routed to a cluster without the service");
  }
  SlateProxy& px = proxy(cnode.service, cluster);
  px.on_request_start(req->cls, cx.sim->now());

  double compute = cnode.compute_time_mean;
  if (injector_ != nullptr) {
    // Gray failure: the service is up but slow.
    compute *= injector_->compute_factor(cnode.service, cluster);
  }

  ServiceStation::JobSpec spec;
  spec.service_time_mean = compute;
  spec.priority = priority_by_class_[req->cls.index()];
  spec.deadline = deadline;

  auto ns = cx.node_pool.make();
  ns->req = std::move(req);
  ns->node = static_cast<std::uint32_t>(node);
  ns->cluster = cluster;
  ns->span_id = cx.next_span++;
  ns->parent_span = parent_span;
  ns->enqueue_time = cx.sim->now();
  ns->deadline = deadline;
  ns->done = std::move(done);

  // {this, pool handle} captures: both continuations stay inline. Shed and
  // cancelled jobs fail the node — the error feeds the caller's retry
  // budget exactly like any other fast failure.
  st->submit(spec, [this, ns = std::move(ns)](ServiceStation::JobOutcome outcome,
                                              double queue_s,
                                              double service_s) mutable {
    using JobOutcome = ServiceStation::JobOutcome;
    ns->queue_s = queue_s;
    ns->service_s = service_s;
    if (outcome != JobOutcome::kServed) {
      ExecCtx& c2 = ctx_of(ns->cluster);
      switch (outcome) {
        case JobOutcome::kShedQueueFull: ++c2.res.shed_queue_full; break;
        case JobOutcome::kShedQueueDelay: ++c2.res.shed_queue_delay; break;
        case JobOutcome::kEvicted: ++c2.res.shed_evictions; break;
        case JobOutcome::kCancelled:
        case JobOutcome::kExpired: ++c2.res.deadline_cancellations; break;
        case JobOutcome::kServed: break;
      }
      finish_node(ns, false);
      return;
    }
    ReqPtr req = ns->req;
    const std::uint32_t node = ns->node;
    const ClusterId cluster = ns->cluster;
    const std::uint64_t span_id = ns->span_id;
    const double deadline = ns->deadline;
    run_children(std::move(req), node, cluster, span_id, deadline,
                 [this, ns = std::move(ns)](bool ok) mutable {
                   finish_node(ns, ok);
                 });
  });
}

void Simulation::finish_node(const PoolPtr<NodeState>& ns, bool ok) {
  ExecCtx& cx = ctx_of(ns->cluster);
  const CallGraph& g = scenario_.app->traffic_class(ns->req->cls).graph;
  const CallNode& n = g.node(ns->node);
  Span span;
  span.request = ns->req->id;
  span.cls = ns->req->cls;
  span.call_node = ns->node;
  span.service = n.service;
  span.cluster = ns->cluster;
  span.span_id = ns->span_id;
  span.parent_span_id = ns->parent_span;
  span.start_time = ns->enqueue_time;
  span.end_time = cx.sim->now();
  span.queue_time = ns->queue_s;
  span.exclusive_time = ns->queue_s + ns->service_s;
  span.error = !ok;
  proxy(n.service, ns->cluster).on_request_end(ns->req->cls, span);
  Done done = std::move(ns->done);
  done(ok);
}

void Simulation::run_children(ReqPtr req, std::size_t parent_node,
                              ClusterId cluster, std::uint64_t parent_span,
                              double deadline, Done done) {
  const CallGraph& graph = scenario_.app->traffic_class(req->cls).graph;
  const CallNode& parent = graph.node(parent_node);
  if (parent.children.empty()) {
    done(true);
    return;
  }

  ExecCtx& cx = ctx_of(cluster);
  // Realize per-child multiplicities (floor + Bernoulli fraction).
  auto cs = cx.chain_pool.make();
  for (std::size_t child : parent.children) {
    const double mult = graph.node(child).multiplicity;
    std::size_t count = static_cast<std::size_t>(std::floor(mult));
    if (cx.rng_routing.bernoulli(mult - std::floor(mult))) ++count;
    for (std::size_t i = 0; i < count; ++i) {
      cs->calls.push_back(static_cast<std::uint32_t>(child));
    }
  }
  if (cs->calls.empty()) {
    done(true);
    return;
  }

  if (parent.mode == InvocationMode::kParallel) {
    // A parallel fan-out fails if any child failed; siblings are not
    // cancelled (their responses are awaited, then discarded). The chain
    // record only carried the realized call list; it recycles on return.
    auto fs = cx.fanout_pool.make();
    fs->remaining = cs->calls.size();
    fs->all_ok = true;
    fs->done = std::move(done);
    for (std::size_t i = 0; i < cs->calls.size(); ++i) {
      issue_call(req, cs->calls[i], cluster, parent_span, deadline,
                 [this, fs](bool ok) mutable {
                   if (!ok) fs->all_ok = false;
                   if (--fs->remaining == 0) {
                     Done d = std::move(fs->done);
                     d(fs->all_ok);
                   }
                 });
    }
    return;
  }

  // Sequential chain; aborts at the first failed child. The chain record
  // owns the parent continuation; the per-child wrapper holds a pool handle,
  // so requests still in flight when the simulation ends cannot leak a
  // closure cycle.
  cs->req = std::move(req);
  cs->cluster = cluster;
  cs->parent_span = parent_span;
  cs->deadline = deadline;
  cs->done = std::move(done);
  chain_next(cs, true);
}

void Simulation::chain_next(const PoolPtr<ChainState>& cs, bool ok) {
  if (!ok || cs->index == cs->calls.size()) {
    Done done = std::move(cs->done);
    done(ok);
    return;
  }
  const std::uint32_t child = cs->calls[cs->index++];
  issue_call(cs->req, child, cs->cluster, cs->parent_span, cs->deadline,
             [this, cs = cs](bool child_ok) mutable { chain_next(cs, child_ok); });
}

void Simulation::issue_call(ReqPtr req, std::size_t node, ClusterId from,
                            std::uint64_t parent_span, double deadline,
                            Done done) {
  ExecCtx& cx = ctx_of(from);
  if (config_.failure.enabled) {
    // Each first attempt earns fractional retry credit (Finagle-style
    // budget): retries are bounded at ~ratio x offered call volume.
    cx.retry_tokens = std::min(cx.retry_tokens + config_.failure.retry_budget_ratio,
                               config_.failure.retry_budget_cap);
  }
  auto as = cx.attempt_pool.make();
  as->req = std::move(req);
  as->node = static_cast<std::uint32_t>(node);
  as->from = from;
  as->exclude = ClusterId{};
  as->parent_span = parent_span;
  as->attempt = 0;
  as->slot = kNilSlot;
  as->settled = false;
  as->deadline = deadline;
  as->done = std::move(done);
  start_attempt(as);
}

std::uint32_t Simulation::acquire_slot(ExecCtx& cx,
                                       const PoolPtr<AttemptState>& as) {
  std::uint32_t slot;
  if (cx.free_slot != kNilSlot) {
    slot = cx.free_slot;
    cx.free_slot = cx.slots[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(cx.slots.size());
    cx.slots.emplace_back();
  }
  PendingRemote& pr = cx.slots[slot];
  pr.as = as;  // pins the attempt until release
  pr.next_free = kNilSlot;
  as->slot = slot;
  return slot;
}

void Simulation::release_slot(ExecCtx& cx, AttemptState& as) {
  if (as.slot == kNilSlot) return;
  PendingRemote& pr = cx.slots[as.slot];
  ++pr.gen;  // any response still in flight for this slot is now stale
  pr.as.reset();
  pr.next_free = cx.free_slot;
  cx.free_slot = as.slot;
  as.slot = kNilSlot;
}

void Simulation::on_remote_response(ExecCtx& cx, RemoteToken tok, bool ok) {
  if (tok.slot >= cx.slots.size()) return;
  PendingRemote& pr = cx.slots[tok.slot];
  if (pr.gen != tok.slot_gen || !pr.as) return;  // slot recycled: stale
  const PoolPtr<AttemptState> as = pr.as;        // keep alive across settle
  if (as->attempt != tok.attempt_gen || as->settled) return;
  as->settled = true;
  settle_attempt(as, ok);
}

void Simulation::start_attempt(const PoolPtr<AttemptState>& as) {
  ExecCtx& cx = ctx_of(as->from);
  const Application& app = *scenario_.app;
  const CallGraph& graph = app.traffic_class(as->req->cls).graph;
  const CallNode& cnode = graph.node(as->node);
  const ServiceId child_svc = cnode.service;
  const ClusterId from = as->from;
  const double now = cx.sim->now();

  if (overload_.deadline.enabled && overload_.deadline.propagate &&
      as->deadline <= now) {
    // The call's remaining budget is gone (e.g. burned by earlier attempts'
    // backoff): fail fast without issuing another attempt.
    ++cx.res.deadline_cancellations;
    as->settled = true;
    release_slot(cx, *as);
    Done done = std::move(as->done);
    done(false);
    return;
  }

  const auto& candidates = candidates_[child_svc.index()];

  // Candidate filtering: steer away from the cluster the previous attempt
  // failed on (retry-on-different-cluster) and from clusters the circuit
  // breaker has ejected for this service. Local-only routing has exactly
  // one viable target, so filtering is skipped entirely (the panic-routing
  // rule: with no alternative, ejections and exclusions must not strand
  // the request).
  CircuitBreakerBank* bank = cx.breakers.get();
  const bool can_reroute = config_.policy != PolicyKind::kLocalOnly;
  const bool exclude_failed = can_reroute && as->exclude.valid() &&
                              config_.failure.retry_excludes_failed;
  // Fully evacuated clusters are filtered like breaker ejections. The flag
  // flips only at global barriers, so the filter set is window-stable.
  const bool exclude_drained = can_reroute && have_fully_drained_;
  // The filter runs on every attempt when breakers are armed, so it reuses
  // the context's scratch vector: a local here would heap-allocate per
  // attempt (the chain-2c-overload allocation regression). The scratch is
  // consumed synchronously below — route() and nearest() read it before any
  // event is scheduled — so reuse across attempts is safe.
  const std::vector<ClusterId>* cand = &candidates;
  std::vector<ClusterId>& filtered = cx.filter_scratch;
  if (exclude_failed || exclude_drained || (can_reroute && bank != nullptr)) {
    filtered.clear();
    for (ClusterId c : candidates) {
      if (exclude_failed && c == as->exclude) continue;
      if (exclude_drained && drain_keep_[c.index()] <= 0.0) continue;
      if (bank != nullptr && !bank->allowed(child_svc, c, now)) {
        continue;
      }
      filtered.push_back(c);
    }
    if (filtered.empty() && (bank != nullptr || exclude_drained)) {
      // Panic routing (Envoy's panic-threshold idea): every candidate is
      // ejected or evacuated, so those filters are ignored rather than
      // failing all traffic.
      for (ClusterId c : candidates) {
        if (exclude_failed && c == as->exclude) continue;
        filtered.push_back(c);
      }
    }
    if (!filtered.empty()) cand = &filtered;
  }

  RouteQuery query;
  query.cls = as->req->cls;
  query.call_node = as->node;
  query.child_service = child_svc;
  query.from = from;
  query.candidates = cand;

  const ServiceId parent_svc = graph.node(cnode.parent).service;
  ClusterId to;
  if (config_.policy == PolicyKind::kSlate) {
    to = proxy(parent_svc, from).route(query, cx.rng_routing);
  } else {
    to = cx.baseline->route(query, cx.rng_routing);
  }
  if (cand == &filtered && filtered.size() != candidates.size()) {
    // Weighted rules ignore the candidate filter; force the failover when
    // the pick is excluded or ejected.
    bool in_filtered = false;
    for (ClusterId c : filtered) {
      if (c == to) {
        in_filtered = true;
        break;
      }
    }
    if (!in_filtered) to = scenario_.topology->nearest(from, filtered);
  }
  as->to = to;

  if (measuring_) {
    result_.flows[as->req->cls.index()][as->node](from.index(), to.index())++;
  }
  observe_load(cx, child_svc, to);
  cx.egress.record(from, to, cnode.request_bytes);

  const FailurePolicy& fp = config_.failure;

  // Attempt settlement: the first of {response, timeout, deadline} wins.
  // The attempt record is reused across retries, so every event of this
  // attempt carries its generation and drops itself if a retry has
  // superseded it.
  const std::uint32_t gen = as->attempt;

  // The attempt is abandoned at the per-attempt timeout or the remaining
  // end-to-end budget, whichever comes first.
  double timeout_after = ServiceStation::kNoDeadline;
  if (fp.enabled && fp.call_timeout > 0.0) timeout_after = fp.call_timeout;
  if (overload_.deadline.enabled && overload_.deadline.propagate) {
    timeout_after = std::min(timeout_after, as->deadline - now);
  }
  if (timeout_after < ServiceStation::kNoDeadline) {
    cx.sim->schedule_after(timeout_after, [this, as, gen]() {
      if (as->attempt != gen || as->settled) return;
      ExecCtx& c = ctx_of(as->from);
      as->settled = true;
      ++c.res.call_timeouts;
      ++c.res.call_timeouts_by_class[as->req->cls.index()];
      settle_attempt(as, false);
    });
  }

  // The remaining budget the callee's subtree inherits: the caller stops
  // waiting at now + timeout_after, so any work past that point is wasted
  // regardless of the request deadline. Without propagation the raw
  // deadline is carried for wasted-work accounting only.
  double child_deadline = ServiceStation::kNoDeadline;
  if (overload_.deadline.enabled) {
    child_deadline = overload_.deadline.propagate
                         ? std::min(as->deadline, now + timeout_after)
                         : as->deadline;
  }

  // Request leg. A partitioned link swallows the message: with a timeout
  // the caller notices at the deadline; without one the call hangs — the
  // honest price of a fair-weather configuration in a faulty world.
  if (injector_ != nullptr && injector_->link_partitioned(from, to)) return;

  const double out = net_delay(cx, from, to);

  if (island_of(to) == cx.island) {
    cx.sim->schedule_after(out, [this, as, gen, child_deadline]() mutable {
      // Deadline propagation: an attempt abandoned before the request
      // arrived is not executed by the server.
      if (as->attempt != gen || as->settled) return;
      ReqPtr req = as->req;
      const ClusterId from = as->from;
      const ClusterId to = as->to;
      // The response continuation pins this generation's endpoints by value:
      // by the time it fires a retry may have re-aimed the attempt record.
      execute_node(
          std::move(req), as->node, to, as->parent_span, child_deadline,
          [this, as, gen, from, to](bool ok) mutable {
            // Response leg (errors travel back too, but pay no egress).
            if (injector_ != nullptr && injector_->link_partitioned(to, from)) {
              return;  // response lost; the caller's timeout settles it
            }
            ExecCtx& ct = ctx_of(to);
            if (ok) {
              const CallGraph& g =
                  scenario_.app->traffic_class(as->req->cls).graph;
              ct.egress.record(to, from, g.node(as->node).response_bytes);
            }
            const double back = net_delay(ct, to, from);
            ct.sim->schedule_after(back, [this, as, gen, ok]() {
              if (as->attempt != gen || as->settled) return;
              as->settled = true;
              settle_attempt(as, ok);
            });
          });
    });
    return;
  }

  // Remote leg: the request crosses islands as a by-value message; the
  // response finds its way back through the caller's slot registry. The
  // staleness checks that the local path performs on request arrival run
  // here at send time only — an attempt abandoned while the message is in
  // flight still executes callee-side (wasted work the timeout already
  // charges for), and the late response is dropped by the token.
  if (as->slot == kNilSlot) acquire_slot(cx, as);
  const RemoteToken tok{as->slot, cx.slots[as->slot].gen, gen};
  const RequestState snap = *as->req;
  engine_->send(
      cx.island, island_of(to), now + out,
      [this, snap, node = as->node, parent_span = as->parent_span,
       child_deadline, from, to, tok]() {
        ExecCtx& ce = ctx_of(to);
        ReqPtr r = ce.request_pool.make();
        *r = snap;
        execute_node(
            std::move(r), node, to, parent_span, child_deadline,
            [this, cls = snap.cls, node, from, to, tok](bool ok) {
              if (injector_ != nullptr &&
                  injector_->link_partitioned(to, from)) {
                return;  // response lost; the caller's timeout settles it
              }
              ExecCtx& ce2 = ctx_of(to);
              if (ok) {
                const CallGraph& g = scenario_.app->traffic_class(cls).graph;
                ce2.egress.record(to, from, g.node(node).response_bytes);
              }
              const double back = net_delay(ce2, to, from);
              engine_->send(ce2.island, island_of(from),
                            ce2.sim->now() + back, [this, from, tok, ok]() {
                              on_remote_response(ctx_of(from), tok, ok);
                            });
            });
      });
}

void Simulation::settle_attempt(const PoolPtr<AttemptState>& as, bool ok) {
  ExecCtx& cx = ctx_of(as->from);
  if (cx.breakers != nullptr) {
    // Outlier detection: every settled attempt is a health datapoint for
    // the (service, destination) breaker.
    const CallGraph& g = scenario_.app->traffic_class(as->req->cls).graph;
    cx.breakers->on_result(g.node(as->node).service, as->to, ok, cx.sim->now());
  }
  if (ok) {
    release_slot(cx, *as);
    Done done = std::move(as->done);
    done(true);
    return;
  }
  const FailurePolicy& policy = config_.failure;
  // Retrying past the deadline cannot help anyone; the failure is terminal.
  const bool budget_left =
      !(overload_.deadline.enabled && overload_.deadline.propagate &&
        as->deadline <= cx.sim->now());
  if (policy.enabled && budget_left && as->attempt < policy.max_retries) {
    if (cx.retry_tokens >= 1.0) {
      cx.retry_tokens -= 1.0;
      ++cx.res.call_retries;
      ++cx.res.call_retries_by_class[as->req->cls.index()];
      const double backoff =
          policy.backoff_base *
          std::pow(policy.backoff_multiplier, static_cast<double>(as->attempt));
      // Re-arm the same attempt record: bump the generation (stale events
      // of this attempt drop themselves) and steer away from the cluster
      // that just failed. The remote slot — if any — stays held: a late
      // response addressed to the old generation must find the registry
      // entry and miss on the generation check, not hit a recycled slot.
      as->exclude = as->to;
      ++as->attempt;
      as->settled = false;
      cx.sim->schedule_after(backoff, [this, as]() { start_attempt(as); });
      return;
    }
    ++cx.res.retry_budget_denials;
    ++cx.res.retry_budget_denials_by_class[as->req->cls.index()];
  }
  release_slot(cx, *as);
  Done done = std::move(as->done);
  done(false);
}

void Simulation::corrupt_report(ClusterReport& report, double factor) {
  // Finite garbage only: a NaN entering the demand EWMA would persist
  // forever, turning "corrupted period" into "bricked controller" — real
  // byzantine reporters emit wrong numbers, not signalling values.
  // Underreports dominate the mix: dropped counters and truncated
  // accumulators are the common byzantine-reporter failure, and they are
  // the dangerous direction here — an ingress estimate that sags below
  // local capacity talks the controller out of spilling entirely.
  for (double& v : report.ingress_rps) {
    const double roll = rng_chaos_.next_double();
    if (roll < 0.4) {
      v = 0.0;  // dropped counter
    } else if (roll < 0.65) {
      v /= factor;  // truncated accumulator
    } else if (roll < 0.9) {
      v *= factor;  // phantom demand spike
    } else {
      v = -v * factor;  // sign-flipped accumulator
    }
  }
  for (auto& m : report.request_metrics) {
    const double roll = rng_chaos_.next_double();
    if (roll < 0.5) {
      m.mean_latency *= factor;
      m.max_latency *= factor;
    } else if (roll < 0.75) {
      m.completion_rps *= factor;
    } else {
      m.mean_latency = 0.0;
      m.mean_service_time = 0.0;
    }
  }
  for (auto& sm : report.station_metrics) {
    if (rng_chaos_.bernoulli(0.5)) sm.utilization *= factor;
  }
  for (auto& e : report.e2e) {
    if (rng_chaos_.bernoulli(0.5)) {
      e.mean_latency *= factor;
      e.p99_latency *= factor;
    }
  }
}

void Simulation::control_tick() {
  const double now = engine_->global().now();
  std::vector<ClusterReport> reports;
  reports.reserve(cluster_controllers_.size());
  for (auto& cc : cluster_controllers_) {
    const bool dark =
        injector_ != nullptr && injector_->telemetry_blackout(cc->cluster());
    ClusterReport report = cc->collect(now);  // local aggregation always runs
    if (dark) {
      // The report is lost in flight, and this period's rule push will not
      // arrive either. After enough missed periods the cluster degrades
      // itself to locality failover rather than executing stale weights.
      cc->age_rules(now, config_.control_period,
                    config_.control_staleness_periods);
      continue;
    }
    if (injector_ != nullptr && injector_->telemetry_corrupt(cc->cluster())) {
      corrupt_report(report, injector_->corrupt_factor(cc->cluster()));
    }
    reports.push_back(std::move(report));
  }
  if (injector_ != nullptr) {
    global_->set_solver_chaos(injector_->solver_down());
  }
  // Bi-level upward coupling: overlay each autoscaler's provisioning-lag-
  // aware effective capacity onto the solver's live-server view.
  if (bilevel_ != nullptr) bilevel_->pre_solve();
  auto rules = global_->on_reports(reports, now);
  // Downward coupling: push the solved plan's per-station busy work into
  // the autoscalers as their planned load.
  if (bilevel_ != nullptr) bilevel_->post_solve();
  const std::uint64_t epoch = global_->last_push_epoch();
  for (auto& cc : cluster_controllers_) {
    if (injector_ != nullptr && injector_->telemetry_blackout(cc->cluster())) {
      continue;
    }
    cc->heartbeat(now);
    if (rules != nullptr) cc->push_rules(rules, epoch);
  }
  if (rules != nullptr) {
    ++rule_pushes_;
    if (last_pushed_rules_ != nullptr) {
      result_.rule_delta_sum += rule_set_distance(*last_pushed_rules_, *rules);
      ++result_.rule_delta_count;
    }
    last_pushed_rules_ = rules;
  } else if (last_pushed_rules_ != nullptr) {
    // A hold period (canary window, solver hold, flap freeze) leaves the
    // fleet executing the same weights: zero movement, but it still counts
    // toward the per-period mean — otherwise a controller that pushes
    // rarely but wildly would score BETTER on flap than one that pushes
    // every period with tiny steps.
    ++result_.rule_delta_count;
  }

  const OptimizerResult& plan = global_->last_result();
  result_.plan_overflow_station_periods += plan.overflowed_stations();
  result_.plan_peak_utilization =
      std::max(result_.plan_peak_utilization, plan.peak_utilization());

  if (config_.record_demand_trace) {
    const FlatMatrix<double>& estimated = global_->demand();
    // Forecast column: the live next-period prediction when a forecaster
    // is armed, else whatever demand the last solve consumed (the oracle's
    // future, or the estimate itself when reactive).
    const FlatMatrix<double>& forecast =
        global_->forecaster() != nullptr ? global_->forecaster()->predicted()
                                         : global_->solve_demand();
    for (std::size_t k = 0; k < estimated.rows(); ++k) {
      for (std::size_t c = 0; c < estimated.cols(); ++c) {
        DemandTracePoint p;
        p.time = now;
        p.cls = static_cast<std::uint32_t>(k);
        p.cluster = static_cast<std::uint32_t>(c);
        p.offered_rps = scenario_.demand.rate_at(ClassId{k}, ClusterId{c}, now);
        p.estimated_rps = estimated(k, c);
        p.forecast_rps = forecast(k, c);
        result_.demand_trace.push_back(p);
      }
    }
  }
}

void Simulation::apply_drain_keep(ClusterId cluster, double keep) {
  drain_keep_[cluster.index()] = keep;
  have_fully_drained_ = false;
  for (double k : drain_keep_) {
    if (k <= 0.0) {
      have_fully_drained_ = true;
      break;
    }
  }
  // The solver sees the draining cluster as shrinking capacity, so weights
  // walk off it ahead of the evacuation instead of reacting to it.
  if (global_ != nullptr) global_->set_drain_scale(cluster, keep);
  // The cluster's autoscalers must not fight the drain by re-adding
  // replicas to capacity the drain is walking away from.
  if (!autoscalers_.empty()) {
    const std::size_t S = scenario_.app->service_count();
    for (std::size_t s = 0; s < S; ++s) {
      const std::size_t idx = s * cluster_count_ + cluster.index();
      if (autoscalers_[idx] != nullptr) {
        autoscalers_[idx]->set_scale_up_inhibited(keep < 1.0);
      }
    }
  }
}

void Simulation::begin_measurement() {
  measuring_ = true;
  for (auto& cx : ctxs_) cx->egress.reset();
  // Stations keep running; utilization for results is derived from
  // lifetime_busy_seconds deltas captured here.
}

void Simulation::refresh_waterfall_snapshot() {
  // At a window barrier every island's clock sits at the window end. Bit-
  // identical to summing every island's meter for every slot: a meter an
  // island never observed reads exactly +0.0, adding +0.0 to a sum of
  // non-negative rates leaves it unchanged, and each slot still receives
  // its nonzero terms in island order.
  const double now = engine_->lp(0).now();
  std::fill(waterfall_snapshot_.begin(), waterfall_snapshot_.end(), 0.0);
  for (const auto& cx : ctxs_) {
    for (const std::uint32_t slot : cx->observed) {
      waterfall_snapshot_[slot] += cx->load_meters[slot].rate(now);
    }
  }
}

namespace {

// Folds one island's accumulator into the merged one. An empty container
// adopts the island's buffer instead of copying it, so the first island's
// shape becomes the merged shape.
template <class T>
void add_into(T& into, T& from) {
  into += from;
}

void add_into(SampleSet& into, SampleSet& from) {
  if (into.empty()) {
    into = std::move(from);
    return;
  }
  into.reserve(into.count() + from.count());
  for (double v : from.samples()) into.add(v);  // in order
}

template <class T>
void add_into(std::vector<T>& into, std::vector<T>& from) {
  if (into.empty()) {
    into = std::move(from);
    return;
  }
  for (std::size_t i = 0; i < into.size(); ++i) add_into(into[i], from[i]);
}

}  // namespace

// Folds each island's partial result into result_ and its trace ring into
// traces_. Islands write only data-plane rows (all kSum); the kMax and
// kLast rows are set from global state after this merge, so they are
// skipped here. Flows need no merge: islands write result_.flows directly.
void Simulation::merge_results() {
  traces_ = std::move(ctxs_.front()->traces);
  for (const auto& cp : ctxs_) {
    ExperimentResult& r = cp->res;
    for (const CounterRow& row : kResultCounters) {
      if (row.merge != MergeRule::kSum) continue;
      std::visit([&](auto member) { add_into(result_.*member, r.*member); },
                 row.member);
    }
    add_into(result_.e2e, r.e2e);
    add_into(result_.e2e_by_class, r.e2e_by_class);
    if (cp != ctxs_.front()) {
      cp->traces.for_each([this](const Span& s) { traces_.record(s); });
    }
  }
}

ExperimentResult Simulation::run() {
  const Application& app = *scenario_.app;
  const std::size_t S = app.service_count();

  // Autoscalers (paper §5 interaction study): one per deployed station,
  // driven by the station's own event loop.
  if (config_.autoscaler_enabled) {
    // Station-indexed (null where not deployed) so a drain can find the
    // scalers of one cluster; the counter loop below skips the holes.
    autoscalers_.resize(stations_.size());
    for (std::size_t i = 0; i < stations_.size(); ++i) {
      if (stations_[i] == nullptr) continue;
      const ClusterId cluster{i % cluster_count_};
      autoscalers_[i] = std::make_unique<Autoscaler>(
          *ctx_of(cluster).sim, *stations_[i], config_.autoscaler);
    }
  }

  // Bi-level coordinator: bridges the controller and the autoscalers once
  // per control period, on the global timeline (control_tick), when the
  // constructor found both halves it couples.
  if (bilevel_armed_) {
    bilevel_ = std::make_unique<BilevelCoordinator>(
        *global_, scenario_.bilevel, config_.control_period, S, cluster_count_);
    for (std::size_t i = 0; i < autoscalers_.size(); ++i) {
      if (autoscalers_[i] != nullptr) bilevel_->attach(i, autoscalers_[i].get());
    }
  }

  // Scheduled capacity changes (failures, manual provisioning). Global
  // timeline: these apply at window barriers, like every other
  // operator-plane action.
  for (const CapacityEvent& event : config_.capacity_events) {
    ServiceStation* st = station(event.service, event.cluster);
    if (st == nullptr) {
      throw std::invalid_argument(
          "Simulation: capacity event targets an undeployed station");
    }
    engine_->global().schedule_at(
        event.time, [st, servers = event.servers]() { st->set_servers(servers); });
  }

  // Faults.
  if (injector_ != nullptr) injector_->arm();

  // Warmup boundary.
  std::vector<double> busy_at_warmup(S * cluster_count_, 0.0);
  std::vector<double> provisioned_at_warmup(S * cluster_count_, 0.0);
  engine_->global().schedule_at(
      config_.warmup, [this, &busy_at_warmup, &provisioned_at_warmup]() {
        begin_measurement();
        for (std::size_t i = 0; i < stations_.size(); ++i) {
          if (stations_[i] != nullptr) {
            busy_at_warmup[i] = stations_[i]->lifetime_busy_seconds();
            provisioned_at_warmup[i] = stations_[i]->lifetime_server_seconds();
          }
        }
      });

  // Drain orchestrator: one tick per control period on the global timeline,
  // scheduled before the control loop so a capacity change lands ahead of
  // the same period's solve. Unscheduled (zero events) with no drains.
  if (!scenario_.drains.empty()) {
    DrainOrchestrator::Hooks hooks;
    hooks.jobs_served = [this]() {
      std::uint64_t total = 0;
      for (const auto& st : stations_) {
        if (st != nullptr) total += st->jobs_completed();
      }
      return total;
    };
    hooks.cluster_down = [this](ClusterId c) { return cluster_down(c); };
    hooks.apply_keep = [this](ClusterId c, double keep) {
      apply_drain_keep(c, keep);
    };
    drain_orch_ = std::make_unique<DrainOrchestrator>(
        scenario_.drains, config_.control_period, std::move(hooks));
    drain_timer_ = engine_->global().schedule_scoped_periodic(
        config_.control_period,
        [this]() { drain_orch_->tick(engine_->global().now()); });
  }

  // Control loop (RAII handle: cancelled when the Simulation dies).
  if (config_.policy == PolicyKind::kSlate) {
    control_timer_ = engine_->global().schedule_scoped_periodic(
        config_.control_period, [this]() { control_tick(); });
  }

  // Admission adaptation loop: once per control period on the global
  // timeline (at window barriers, where every island is quiesced).
  // Scheduled only when armed with adapt on, so an unarmed run executes
  // zero extra events.
  if (admission_ != nullptr && scenario_.admission.adapt) {
    admission_timer_ = engine_->global().schedule_scoped_periodic(
        config_.control_period, [this]() {
          const DemandForecaster* f =
              global_ != nullptr ? global_->forecaster() : nullptr;
          admission_->adapt(engine_->global().now(),
                            f != nullptr ? &f->predicted() : nullptr,
                            f != nullptr ? &f->confidence() : nullptr);
        });
  }

  // Workload. Each driver forks every stream's RNG from an identical copy
  // of the fork(0) parent, so a stream's arrival sequence is the same no
  // matter which island's driver owns it.
  Rng workload_rng = rng_root_.fork(0);
  if (load_view_ != nullptr && island_count_ > 1) {
    engine_->set_barrier_hook([this]() { refresh_waterfall_snapshot(); });
  }
  for (std::size_t i = 0; i < island_count_; ++i) {
    const auto island = static_cast<std::uint32_t>(i);
    workloads_.push_back(std::make_unique<WorkloadDriver>(
        engine_->lp(i), workload_rng, scenario_.demand, config_.duration,
        [this](ClassId cls, ClusterId cluster) { on_arrival(cls, cluster); },
        [this, island](std::size_t s) {
          const ClusterId c = scenario_.demand.streams()[s].cluster;
          return island_of_[c.index()] == island;
        }));
  }
  engine_->run_until(config_.duration);
  merge_results();

  // Finalize.
  result_.sim_events = engine_->events_executed();
  result_.measured_seconds = config_.duration - config_.warmup;
  for (const auto& cx : ctxs_) {
    result_.egress_bytes += cx->egress.total_egress_bytes();
    result_.local_bytes += cx->egress.total_local_bytes();
    result_.egress_cost_dollars += cx->egress.total_cost_dollars();
  }
  result_.station_utilization.assign(S * cluster_count_, -1.0);
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (stations_[i] == nullptr) continue;
    const double busy = stations_[i]->lifetime_busy_seconds() - busy_at_warmup[i];
    result_.station_utilization[i] =
        busy / (result_.measured_seconds *
                static_cast<double>(stations_[i]->servers()));
    // Provisioned-capacity spend over the measurement window, priced at the
    // station's cluster rate (0 when no `price` directives are set).
    const double provisioned =
        stations_[i]->lifetime_server_seconds() - provisioned_at_warmup[i];
    result_.server_seconds += provisioned;
    result_.server_cost_dollars +=
        provisioned / 3600.0 *
        scenario_.topology->server_price_per_hour(ClusterId{i % cluster_count_});
  }
  if (bilevel_ != nullptr) {
    result_.bilevel_capacity_overrides = bilevel_->capacity_overrides();
    result_.bilevel_plans_pushed = bilevel_->plans_pushed();
  }
  if (global_ != nullptr) {
    result_.controller_rounds = global_->rounds();
    result_.solver_holds = global_->solver_holds();
    result_.solver_resolve_skips = global_->resolve_skips();
    result_.forecast_solves = global_->forecast_solves();
    const SolveTelemetry& st = global_->solve_telemetry();
    result_.solver_solves = st.solves;
    result_.solver_last_seconds = st.last_seconds;
    result_.solver_max_seconds = st.max_seconds;
    result_.solver_total_seconds = st.total_seconds;
    result_.solver_exact_cold = st.exact_cold;
    result_.solver_exact_warm = st.exact_warm;
    result_.solver_arm_fast = st.fast;
    result_.solver_arm_split = st.split;
    result_.solver_arm_hold = st.hold;
    if (const DemandForecaster* f = global_->forecaster()) {
      result_.forecast_mean_smape = f->mean_smape();
      result_.forecast_mean_confidence = f->mean_confidence();
    }
    if (const ReportValidator* v = global_->validator()) {
      result_.guard_fields_rejected = v->fields_rejected();
      result_.guard_spikes_clamped = v->spikes_clamped();
      result_.guard_interpolations = v->interpolations();
    }
    result_.solver_fallbacks = global_->solver_guard().fallbacks();
    if (const RuleRollout* ro = global_->rollout()) {
      result_.rollout_rollbacks = ro->rollbacks();
      result_.rollout_flap_freezes = ro->flap_freezes();
      result_.rollout_damped_pushes = ro->damped_pushes();
    }
    result_.contingency_evals = global_->contingency_evals();
    result_.contingency_resolves = global_->contingency_resolves();
    result_.contingency_margin_last = global_->contingency_margin_last();
    result_.contingency_margin_worst = global_->contingency_margin_worst();
    result_.contingency_pad_level = global_->contingency_pad_level();
  }
  if (drain_orch_ != nullptr) {
    result_.drains_started = drain_orch_->drains_started();
    result_.drains_completed = drain_orch_->drains_completed();
    result_.drains_cancelled = drain_orch_->drains_cancelled();
    result_.drain_pause_periods = drain_orch_->drain_pause_periods();
    result_.drain_steps = drain_orch_->drain_steps();
  }
  for (const auto& cc : cluster_controllers_) {
    result_.stale_rule_pushes += cc->stale_rule_pushes();
  }
  result_.rule_pushes = rule_pushes_;
  if (injector_ != nullptr) {
    result_.fault_transitions = injector_->transitions();
  }
  for (const auto& scaler : autoscalers_) {
    if (scaler == nullptr) continue;
    result_.autoscaler_scale_ups += scaler->scale_ups();
    result_.autoscaler_scale_downs += scaler->scale_downs();
  }
  result_.final_servers.assign(S * cluster_count_, 0);
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (stations_[i] != nullptr) {
      result_.final_servers[i] = stations_[i]->servers();
    }
  }
  if (admission_ != nullptr) {
    result_.admission_adapt_rounds = admission_->adapt_rounds();
    result_.admission_rate_raises = admission_->rate_raises();
    result_.admission_rate_cuts = admission_->rate_cuts();
    result_.admission_floor_raises = admission_->floor_raises();
    result_.admission_forecast_widenings = admission_->forecast_widenings();
  }
  for (const auto& cx : ctxs_) {
    if (cx->breakers != nullptr) {
      result_.breaker_ejections += cx->breakers->ejections();
    }
  }
  // Station-level job conservation and doomed-work accounting.
  for (const auto& st : stations_) {
    if (st == nullptr) continue;
    result_.jobs_submitted += st->jobs_submitted();
    result_.jobs_served += st->jobs_completed();
    result_.jobs_cancelled += st->jobs_cancelled();
    result_.jobs_evicted += st->jobs_evicted();
    result_.jobs_shed += st->jobs_shed();
    result_.jobs_in_flight_at_end += st->busy_servers() + st->queue_length();
    result_.wasted_server_seconds += st->wasted_server_seconds();
  }
  return result_;
}

}  // namespace slate

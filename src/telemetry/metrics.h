// Per-cluster request metrics.
//
// Each cluster's proxies record request-level telemetry here (paper §3.1:
// load, latency, class). Two consumers with different needs share the data:
//   * the cluster controller snapshots-and-resets per control period to
//     build its report for the global controller;
//   * baseline policies (Waterfall) need an instantaneous load estimate,
//     served by exponentially-weighted rate meters.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/ids.h"
#include "util/stats.h"

namespace slate {

// Exponentially weighted arrival-rate estimator. Event-driven: each call to
// observe() decays the estimate by the elapsed gap. The estimate converges to
// the true rate with time constant `tau` seconds.
class RateMeter {
 public:
  explicit RateMeter(double tau = 1.0) : tau_(tau) {}

  void observe(double now) noexcept;
  // Rate estimate at time `now` (decays if no recent events). Exactly 0.0
  // until the first observe().
  [[nodiscard]] double rate(double now) const noexcept;
  [[nodiscard]] bool observed() const noexcept { return last_ >= 0.0; }

 private:
  double tau_;
  double rate_ = 0.0;
  double last_ = -1.0;
};

// Accumulated per-(service, class) statistics for one control period.
// Assembled on demand from the registry's SoA columns — see stats().
struct RequestStats {
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  StreamingStats latency;  // station-local (queue + service) seconds
  // Pure service (application handler) seconds, excluding queueing. The
  // sidecar observes this split directly, which is what lets the model
  // fitter recover per-class compute costs even at saturated stations.
  StreamingStats service;
};

// Registry for one cluster. Cells exist only for the services the cluster
// hosts, dense over (hosted service, class); a service hosted elsewhere
// reads as empty stats and refuses recording.
class MetricsRegistry {
 public:
  // `hosted` lists the services with a station in this cluster; nullopt
  // hosts every service.
  MetricsRegistry(std::size_t service_count, std::size_t class_count,
                  std::optional<std::vector<ServiceId>> hosted = std::nullopt,
                  double rate_tau = 1.0);

  void record_start(ServiceId service, ClassId cls, double now);
  void record_end(ServiceId service, ClassId cls, double latency_seconds,
                  double service_seconds = 0.0);

  // Ingress demand tracking: class-k requests entering this cluster.
  void record_ingress(ClassId cls, double now);
  // Class-k requests refused at this cluster's front door (admission
  // control). Kept out of record_ingress so the demand estimate the
  // controller solves on reflects admitted work only.
  void record_ingress_rejected(ClassId cls);
  [[nodiscard]] std::uint64_t ingress_rejected_count(ClassId cls) const;

  // End-to-end latency of a class-k request that entered at this cluster
  // (root span duration). Feeds the guarded controller's live objective.
  void record_e2e(ClassId cls, double latency_seconds);
  [[nodiscard]] const StreamingStats& e2e(ClassId cls) const;
  // Exact period-local e2e quantile (0 with no samples). Backed by a full
  // sample window that resets with the period, so the tail reflects only
  // the current control interval.
  [[nodiscard]] double e2e_quantile(ClassId cls, double q) const;

  // Period stats for one (service, class) cell, assembled from the SoA
  // columns (empty for a service not hosted here). Snapshot semantics:
  // callers read it once per control period.
  [[nodiscard]] RequestStats stats(ServiceId service, ClassId cls) const;
  // Instantaneous per-service arrival rate (all classes), for Waterfall.
  [[nodiscard]] double service_rate(ServiceId service, double now) const;
  [[nodiscard]] double ingress_rate(ClassId cls, double now) const;
  [[nodiscard]] std::uint64_t ingress_count(ClassId cls) const;
  [[nodiscard]] std::size_t inflight(ServiceId service) const;

  [[nodiscard]] std::size_t service_count() const noexcept { return services_; }
  [[nodiscard]] std::size_t class_count() const noexcept { return classes_; }

  // Clears period-accumulated stats (RequestStats, ingress counts) but keeps
  // rate meters running.
  void reset_period();

 private:
  static constexpr std::uint32_t kNotHosted = 0xffffffffu;

  // Hosted row of `s` (kNotHosted if not hosted); throws on an id outside
  // the application.
  [[nodiscard]] std::uint32_t row(ServiceId s) const;
  // Row to record `s` into; throws unless `s` is hosted here.
  [[nodiscard]] std::uint32_t hosted_row(ServiceId s) const;
  void check_class(ClassId k) const;

  std::size_t services_;
  std::size_t classes_;
  std::vector<std::uint32_t> row_of_;  // per service: hosted row or kNotHosted
  // Structure-of-arrays over (hosted service x class): the data plane
  // increments a bare counter per request start, so the hot column stays
  // 8 bytes/cell instead of dragging a whole RequestStats line into cache.
  std::vector<std::uint64_t> started_;       // hosted x classes
  std::vector<std::uint64_t> completed_;     // hosted x classes
  std::vector<StreamingStats> latency_;      // hosted x classes
  std::vector<StreamingStats> service_time_; // hosted x classes
  std::vector<RateMeter> service_rates_;     // per hosted service
  std::vector<std::size_t> inflight_;        // per hosted service
  std::vector<RateMeter> ingress_rates_;     // per class
  std::vector<std::uint64_t> ingress_counts_;  // per class, period-scoped
  std::vector<std::uint64_t> ingress_rejected_;  // per class, period-scoped
  std::vector<StreamingStats> e2e_;          // per class, period-scoped
  std::vector<SampleSet> e2e_samples_;       // per class, period-scoped
};

}  // namespace slate

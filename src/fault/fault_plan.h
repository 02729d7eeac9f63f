// Declarative fault schedules.
//
// A FaultPlan is a list of timed fault specifications — the experiment's
// "chaos script". Four fault kinds cover the failure families the paper's
// production targets (Traffic Director, ServiceRouter) are defined by:
//
//   * cluster outage      — every station in a cluster rejects new work;
//   * link degradation    — latency surge (multiplier and/or additive) or a
//                           full partition on one directed topology edge;
//   * service slowdown    — a compute-time multiplier on one service in one
//                           cluster (gray failure: slow, not down);
//   * telemetry blackout  — the cluster controller loses contact with the
//                           global controller (reports and rule pushes both
//                           stop; the data plane keeps serving);
//   * telemetry corruption — the cluster's reports arrive but carry garbage
//                           (spiked demand, zeroed/negated latencies): the
//                           byzantine-reporter case the admission guard
//                           exists for;
//   * solver outage       — the global controller's model-driven solvers
//                           are unavailable (crash-looping optimizer, forced
//                           timeouts); the fallback ladder or a full hold
//                           takes over.
//
// Plans are pure data: validation happens against a topology/application
// size, and the FaultInjector (fault_injector.h) turns a plan into live
// state on the discrete-event simulator. Faults may overlap freely —
// overlapping effects stack (multipliers multiply, extra latencies add) and
// boolean effects hold until every covering fault has ended.
#pragma once

#include <cstddef>
#include <vector>

#include "util/ids.h"

namespace slate {

enum class FaultKind {
  kClusterOutage,
  kLinkDegradation,
  kServiceSlowdown,
  kTelemetryBlackout,
  kTelemetryCorruption,
  kSolverOutage,
};

const char* to_string(FaultKind kind) noexcept;

struct FaultSpec {
  FaultKind kind = FaultKind::kClusterOutage;
  // Activation window [start, start + duration).
  double start = 0.0;
  double duration = 0.0;

  // kClusterOutage / kTelemetryBlackout / kTelemetryCorruption: the
  // affected cluster. kLinkDegradation: the edge source. kServiceSlowdown:
  // the hosting cluster, or invalid for "every cluster". kSolverOutage:
  // unused (the outage is global).
  ClusterId cluster;
  // kLinkDegradation only: the edge destination. The effect applies to the
  // directed edge (cluster -> to); add a second spec for the reverse path.
  ClusterId to;
  // kServiceSlowdown only: the affected service.
  ServiceId service;

  // kLinkDegradation: sampled latency -> latency * factor + extra_latency.
  // kServiceSlowdown: compute time -> compute * factor.
  // kTelemetryCorruption: spike multiplier applied to corrupted fields.
  double factor = 1.0;
  double extra_latency = 0.0;
  // kLinkDegradation: when true, messages on the edge are dropped instead
  // of delayed (callers see timeouts, not slowness).
  bool partition = false;

  [[nodiscard]] double end() const noexcept { return start + duration; }
};

class FaultPlan {
 public:
  // Appends a fault. Throws std::invalid_argument for non-positive
  // durations, negative start times, factors < 0, or kind/field mismatches
  // that can be checked without a world (e.g. a link fault with no `to`).
  void add(const FaultSpec& spec);

  // Convenience builders (return the added spec's index).
  std::size_t cluster_outage(ClusterId cluster, double start, double duration);
  std::size_t link_degradation(ClusterId from, ClusterId to, double start,
                               double duration, double factor,
                               double extra_latency = 0.0);
  std::size_t link_partition(ClusterId from, ClusterId to, double start,
                             double duration);
  std::size_t service_slowdown(ServiceId service, ClusterId cluster,
                               double start, double duration, double factor);
  std::size_t telemetry_blackout(ClusterId cluster, double start,
                                 double duration);
  std::size_t telemetry_corruption(ClusterId cluster, double start,
                                   double duration, double factor = 50.0);
  std::size_t solver_outage(double start, double duration);

  // Checks every referenced id against the world's sizes. Throws
  // std::invalid_argument naming the offending fault index.
  void validate(std::size_t cluster_count, std::size_t service_count) const;

  void clear() noexcept { faults_.clear(); }

  [[nodiscard]] bool empty() const noexcept { return faults_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return faults_.size(); }
  [[nodiscard]] const std::vector<FaultSpec>& faults() const noexcept {
    return faults_;
  }

 private:
  std::vector<FaultSpec> faults_;
};

}  // namespace slate

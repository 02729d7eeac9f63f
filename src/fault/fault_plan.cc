#include "fault/fault_plan.h"

#include <stdexcept>
#include <string>

#include "util/strfmt.h"

namespace slate {

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kClusterOutage: return "cluster-outage";
    case FaultKind::kLinkDegradation: return "link-degradation";
    case FaultKind::kServiceSlowdown: return "service-slowdown";
    case FaultKind::kTelemetryBlackout: return "telemetry-blackout";
    case FaultKind::kTelemetryCorruption: return "telemetry-corruption";
    case FaultKind::kSolverOutage: return "solver-outage";
  }
  return "?";
}

void FaultPlan::add(const FaultSpec& spec) {
  if (spec.start < 0.0) {
    throw std::invalid_argument("FaultPlan: negative start time");
  }
  if (!(spec.duration > 0.0)) {
    throw std::invalid_argument("FaultPlan: duration must be positive");
  }
  if (spec.factor < 0.0) {
    throw std::invalid_argument("FaultPlan: negative factor");
  }
  if (spec.extra_latency < 0.0) {
    throw std::invalid_argument("FaultPlan: negative extra latency");
  }
  switch (spec.kind) {
    case FaultKind::kClusterOutage:
    case FaultKind::kTelemetryBlackout:
      if (!spec.cluster.valid()) {
        throw std::invalid_argument("FaultPlan: fault needs a cluster");
      }
      break;
    case FaultKind::kTelemetryCorruption:
      if (!spec.cluster.valid()) {
        throw std::invalid_argument("FaultPlan: fault needs a cluster");
      }
      if (spec.factor <= 1.0) {
        throw std::invalid_argument(
            "FaultPlan: corruption spike factor must exceed 1");
      }
      break;
    case FaultKind::kSolverOutage:
      // Global: no ids to check.
      break;
    case FaultKind::kLinkDegradation:
      if (!spec.cluster.valid() || !spec.to.valid()) {
        throw std::invalid_argument("FaultPlan: link fault needs two clusters");
      }
      if (spec.cluster == spec.to) {
        throw std::invalid_argument("FaultPlan: link fault endpoints equal");
      }
      if (!spec.partition && spec.factor == 1.0 && spec.extra_latency == 0.0) {
        throw std::invalid_argument("FaultPlan: link fault with no effect");
      }
      break;
    case FaultKind::kServiceSlowdown:
      if (!spec.service.valid()) {
        throw std::invalid_argument("FaultPlan: slowdown needs a service");
      }
      if (spec.factor == 1.0) {
        throw std::invalid_argument("FaultPlan: slowdown with factor 1");
      }
      break;
  }
  faults_.push_back(spec);
}

std::size_t FaultPlan::cluster_outage(ClusterId cluster, double start,
                                      double duration) {
  FaultSpec spec;
  spec.kind = FaultKind::kClusterOutage;
  spec.cluster = cluster;
  spec.start = start;
  spec.duration = duration;
  add(spec);
  return faults_.size() - 1;
}

std::size_t FaultPlan::link_degradation(ClusterId from, ClusterId to,
                                        double start, double duration,
                                        double factor, double extra_latency) {
  FaultSpec spec;
  spec.kind = FaultKind::kLinkDegradation;
  spec.cluster = from;
  spec.to = to;
  spec.start = start;
  spec.duration = duration;
  spec.factor = factor;
  spec.extra_latency = extra_latency;
  add(spec);
  return faults_.size() - 1;
}

std::size_t FaultPlan::link_partition(ClusterId from, ClusterId to,
                                      double start, double duration) {
  FaultSpec spec;
  spec.kind = FaultKind::kLinkDegradation;
  spec.cluster = from;
  spec.to = to;
  spec.start = start;
  spec.duration = duration;
  spec.partition = true;
  add(spec);
  return faults_.size() - 1;
}

std::size_t FaultPlan::service_slowdown(ServiceId service, ClusterId cluster,
                                        double start, double duration,
                                        double factor) {
  FaultSpec spec;
  spec.kind = FaultKind::kServiceSlowdown;
  spec.service = service;
  spec.cluster = cluster;
  spec.start = start;
  spec.duration = duration;
  spec.factor = factor;
  add(spec);
  return faults_.size() - 1;
}

std::size_t FaultPlan::telemetry_blackout(ClusterId cluster, double start,
                                          double duration) {
  FaultSpec spec;
  spec.kind = FaultKind::kTelemetryBlackout;
  spec.cluster = cluster;
  spec.start = start;
  spec.duration = duration;
  add(spec);
  return faults_.size() - 1;
}

std::size_t FaultPlan::telemetry_corruption(ClusterId cluster, double start,
                                            double duration, double factor) {
  FaultSpec spec;
  spec.kind = FaultKind::kTelemetryCorruption;
  spec.cluster = cluster;
  spec.start = start;
  spec.duration = duration;
  spec.factor = factor;
  add(spec);
  return faults_.size() - 1;
}

std::size_t FaultPlan::solver_outage(double start, double duration) {
  FaultSpec spec;
  spec.kind = FaultKind::kSolverOutage;
  spec.start = start;
  spec.duration = duration;
  add(spec);
  return faults_.size() - 1;
}

void FaultPlan::validate(std::size_t cluster_count,
                         std::size_t service_count) const {
  auto bad = [](std::size_t i, const char* what) {
    throw std::invalid_argument(
        strfmt("FaultPlan: fault %zu references %s", i, what));
  };
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    const FaultSpec& f = faults_[i];
    if (f.cluster.valid() && f.cluster.index() >= cluster_count) {
      bad(i, "an unknown cluster");
    }
    if (f.kind == FaultKind::kLinkDegradation && f.to.index() >= cluster_count) {
      bad(i, "an unknown cluster");
    }
    if (f.kind == FaultKind::kServiceSlowdown &&
        f.service.index() >= service_count) {
      bad(i, "an unknown service");
    }
  }
}

}  // namespace slate

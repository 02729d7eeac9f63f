#include "runtime/experiment.h"

#include <algorithm>

#include "runtime/simulation.h"

namespace slate {

const char* to_string(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::kLocalOnly: return "local-only";
    case PolicyKind::kRoundRobin: return "round-robin";
    case PolicyKind::kLocalityFailover: return "locality-failover";
    case PolicyKind::kStaticWeights: return "static-weights";
    case PolicyKind::kWaterfall: return "waterfall";
    case PolicyKind::kSlate: return "slate";
  }
  return "?";
}

Scenario::Scenario(const Scenario& other)
    : name(other.name),
      app(other.app ? std::make_unique<Application>(*other.app) : nullptr),
      topology(other.topology ? std::make_unique<Topology>(*other.topology)
                              : nullptr),
      deployment(other.deployment
                     ? std::make_unique<Deployment>(*other.deployment, *app)
                     : nullptr),
      demand(other.demand),
      faults(other.faults),
      overload(other.overload),
      guard(other.guard),
      forecast(other.forecast),
      admission(other.admission),
      contingency(other.contingency),
      drains(other.drains),
      bilevel(other.bilevel) {}

double ExperimentResult::error_rate(ClassId k) const {
  if (k.index() >= failed_by_class.size()) return 0.0;
  const std::uint64_t errors = failed_by_class[k.index()];
  const std::uint64_t ok =
      k.index() < e2e_by_class.size() ? e2e_by_class[k.index()].count() : 0;
  const std::uint64_t finished = ok + errors;
  return finished > 0
             ? static_cast<double>(errors) / static_cast<double>(finished)
             : 0.0;
}

double ExperimentResult::goodput_in_window(double from, double to) const {
  if (series_bucket <= 0.0 || completed_series.empty() || to <= from) return 0.0;
  const auto first = static_cast<std::size_t>(from / series_bucket);
  auto last = static_cast<std::size_t>(to / series_bucket);
  if (last * series_bucket < to) ++last;  // include the partial tail bucket
  last = std::min(last, completed_series.size());
  if (first >= last) return 0.0;
  std::uint64_t total = 0;
  for (std::size_t i = first; i < last; ++i) total += completed_series[i];
  return static_cast<double>(total) /
         (static_cast<double>(last - first) * series_bucket);
}

double ExperimentResult::remote_fraction(ClassId k, std::size_t node) const {
  if (k.index() >= flows.size() || node >= flows[k.index()].size()) return 0.0;
  const auto& m = flows[k.index()][node];
  std::uint64_t total = 0, remote = 0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      total += m(i, j);
      if (i != j) remote += m(i, j);
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(remote) / static_cast<double>(total);
}

double ExperimentResult::remote_fraction_from(ClassId k, std::size_t node,
                                              ClusterId from) const {
  if (k.index() >= flows.size() || node >= flows[k.index()].size()) return 0.0;
  const auto& m = flows[k.index()][node];
  if (from.index() >= m.rows()) return 0.0;
  std::uint64_t total = 0, remote = 0;
  for (std::size_t j = 0; j < m.cols(); ++j) {
    total += m(from.index(), j);
    if (j != from.index()) remote += m(from.index(), j);
  }
  return total == 0 ? 0.0
                    : static_cast<double>(remote) / static_cast<double>(total);
}

ExperimentResult run_experiment(const Scenario& scenario,
                                const RunConfig& config) {
  Simulation sim(scenario, config);
  return sim.run();
}

}  // namespace slate

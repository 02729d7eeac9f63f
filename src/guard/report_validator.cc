#include "guard/report_validator.h"

#include <algorithm>
#include <cmath>

namespace slate {

namespace {

constexpr std::size_t kMaxWindow = 256;

// Median of the first `n` entries of `buf` (buf is scratch, reordered).
double median_of(double* buf, std::size_t n) {
  const std::size_t mid = n / 2;
  std::nth_element(buf, buf + mid, buf + n);
  double m = buf[mid];
  if (n % 2 == 0) {
    std::nth_element(buf, buf + mid - 1, buf + mid);
    m = 0.5 * (m + buf[mid - 1]);
  }
  return m;
}

}  // namespace

MadTracker::MadTracker(std::size_t rows, std::size_t cols, std::size_t window)
    : cols_(cols),
      window_(std::max<std::size_t>(2, std::min(window, kMaxWindow))),
      values_(rows * cols * window_, 0.0),
      count_(rows * cols, 0),
      next_(rows * cols, 0) {}

std::size_t MadTracker::history(std::size_t row, std::size_t col) const {
  return count_[row * cols_ + col];
}

double MadTracker::median(std::size_t row, std::size_t col) const {
  const std::size_t n = count_[row * cols_ + col];
  if (n == 0) return 0.0;
  double scratch[kMaxWindow];
  const double* src = values_.data() + base(row, col);
  std::copy(src, src + n, scratch);
  return median_of(scratch, n);
}

double MadTracker::mad(std::size_t row, std::size_t col) const {
  const std::size_t n = count_[row * cols_ + col];
  if (n < 2) return 0.0;
  double scratch[kMaxWindow];
  const double* src = values_.data() + base(row, col);
  std::copy(src, src + n, scratch);
  const double med = median_of(scratch, n);
  for (std::size_t i = 0; i < n; ++i) scratch[i] = std::abs(scratch[i] - med);
  return median_of(scratch, n);
}

void MadTracker::clear(std::size_t row, std::size_t col) {
  const std::size_t series = row * cols_ + col;
  count_[series] = 0;
  next_[series] = 0;
}

bool MadTracker::is_spike(std::size_t row, std::size_t col, double x,
                          double threshold, double noise_floor,
                          std::size_t min_history) const {
  const std::size_t n = count_[row * cols_ + col];
  if (n < std::max<std::size_t>(min_history, 2)) return false;
  double scratch[kMaxWindow];
  const double* src = values_.data() + base(row, col);
  std::copy(src, src + n, scratch);
  const double med = median_of(scratch, n);
  for (std::size_t i = 0; i < n; ++i) scratch[i] = std::abs(scratch[i] - med);
  const double mad = median_of(scratch, n);
  const double scale =
      std::max({mad, noise_floor * std::abs(med), 1e-9});
  return std::abs(x - med) > threshold * scale;
}

void MadTracker::push(std::size_t row, std::size_t col, double x) {
  const std::size_t series = row * cols_ + col;
  values_[base(row, col) + next_[series]] = x;
  next_[series] = (next_[series] + 1) % static_cast<std::uint32_t>(window_);
  if (count_[series] < window_) ++count_[series];
}

ReportValidator::ReportValidator(std::size_t service_count,
                                 std::size_t class_count,
                                 std::size_t cluster_count,
                                 AdmissionOptions options)
    : services_(service_count),
      classes_(class_count),
      clusters_(cluster_count),
      options_(options),
      ingress_mad_(class_count, cluster_count, options.mad_window),
      station_mad_(service_count * class_count, cluster_count,
                   options.mad_window),
      rps_mad_(service_count * class_count, cluster_count, options.mad_window),
      service_mad_(service_count * class_count, cluster_count,
                   options.mad_window),
      util_mad_(service_count, cluster_count, options.mad_window),
      e2e_mad_(class_count, cluster_count, options.mad_window),
      last_ingress_(class_count * cluster_count, 0.0),
      trust_(cluster_count, 1.0) {}

bool ReportValidator::sanitize_field(double& value, double fallback,
                                     double ceiling, bool* dirty) {
  if (std::isfinite(value) && value >= 0.0 && value <= ceiling) return false;
  value = fallback;
  ++fields_rejected_;
  ++interpolations_;
  *dirty = true;
  return true;
}

bool ReportValidator::clamp_spike(SpikeGate& gate, std::size_t row,
                                  std::size_t col, double& value,
                                  bool* dirty) {
  if (!gate.main.is_spike(row, col, value, options_.mad_threshold,
                          options_.mad_noise_floor, options_.min_history)) {
    gate.main.push(row, col, value);
    // An in-band value breaks any rejected streak: the shadow only ever
    // holds CONSECUTIVE rejects, so incoherent noise cannot slowly
    // assemble a fake "level shift" across clean periods.
    gate.shadow.clear(row, col);
    return false;
  }

  // Out of band. A genuine level shift produces a run of rejects that
  // agree with each other; byzantine noise produces a run that does not.
  // Require min_history consecutive rejects whose dispersion around their
  // own median is small before treating the new level as real.
  gate.shadow.push(row, col, value);
  const std::size_t min_history = std::max<std::size_t>(options_.min_history, 2);
  if (gate.shadow.history(row, col) >= min_history) {
    const double med = gate.shadow.median(row, col);
    const double dispersion = gate.shadow.mad(row, col);
    const double tolerance =
        std::max(options_.mad_noise_floor * std::abs(med), 1e-9);
    if (dispersion <= tolerance &&
        std::abs(value - med) <= options_.mad_threshold * tolerance) {
      // Coherent new level: readmit and re-seed the reference window so
      // the gate re-arms around it.
      gate.main.clear(row, col);
      gate.main.push(row, col, value);
      gate.shadow.clear(row, col);
      return false;
    }
  }

  value = gate.main.median(row, col);
  ++spikes_clamped_;
  ++interpolations_;
  *dirty = true;
  return true;
}

bool ReportValidator::admit(ClusterReport& report) {
  ++reports_;
  bool dirty = false;
  const std::size_t c = report.cluster.index();
  if (c >= clusters_) {
    // A report from a cluster that does not exist: nothing downstream can
    // index it safely. Gut it rather than guessing.
    report.request_metrics.clear();
    report.station_metrics.clear();
    report.ingress_rps.clear();
    report.e2e.clear();
    ++dirty_;
    ++fields_rejected_;
    return true;
  }

  // Structural checks: out-of-range ids would index out of bounds in
  // ingest; wrong-sized per-class vectors would mis-attribute classes.
  auto drop_bad_ids = [&](auto& entries, auto&& valid) {
    const std::size_t before = entries.size();
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [&](const auto& e) { return !valid(e); }),
                  entries.end());
    if (entries.size() != before) {
      fields_rejected_ += before - entries.size();
      dirty = true;
    }
  };
  drop_bad_ids(report.request_metrics, [&](const ServiceClassMetrics& m) {
    return m.service.valid() && m.service.index() < services_ &&
           m.cls.valid() && m.cls.index() < classes_;
  });
  drop_bad_ids(report.station_metrics, [&](const StationMetrics& m) {
    return m.service.valid() && m.service.index() < services_;
  });
  if (report.ingress_rps.size() != classes_) {
    report.ingress_rps.resize(classes_, 0.0);
    dirty = true;
    ++fields_rejected_;
  }
  if (report.e2e.size() != classes_) {
    report.e2e.resize(classes_);
    dirty = true;
    ++fields_rejected_;
  }

  // Ingress demand: the one series that must never carry poison — it is
  // EWMA-ed straight into the demand matrix the optimizer runs on.
  for (std::size_t k = 0; k < classes_; ++k) {
    double& v = report.ingress_rps[k];
    const double last = last_ingress_[k * clusters_ + c];
    const bool replaced = sanitize_field(v, last, options_.max_rps, &dirty);
    // Clamp spikes to the rolling median but remember the raw value: a
    // sustained level shift must become the new normal, not be rejected
    // forever.
    if (!replaced) clamp_spike(ingress_mad_, k, c, v, &dirty);
    last_ingress_[k * clusters_ + c] = v;
  }

  // Station metrics feed live_servers and the utilization attached to
  // model-fitter samples.
  for (auto& sm : report.station_metrics) {
    sanitize_field(sm.utilization, 0.0, options_.max_utilization, &dirty);
    sanitize_field(sm.queue_length, 0.0, 1e9, &dirty);
    clamp_spike(util_mad_, sm.service.index(), c, sm.utilization, &dirty);
  }

  // Request metrics feed the sample store / model fitter. A poisoned
  // latency is dropped outright (one missing sample is harmless; one
  // absurd sample skews the fit), a spiking one is MAD-clamped.
  {
    const std::size_t before = report.request_metrics.size();
    auto bad = [&](ServiceClassMetrics& m) {
      if (!std::isfinite(m.mean_latency) || m.mean_latency < 0.0 ||
          m.mean_latency > options_.max_latency ||
          !std::isfinite(m.mean_service_time) || m.mean_service_time < 0.0 ||
          !std::isfinite(m.completion_rps) || m.completion_rps < 0.0 ||
          m.completion_rps > options_.max_rps) {
        return true;
      }
      const std::size_t row = m.service.index() * classes_ + m.cls.index();
      clamp_spike(station_mad_, row, c, m.mean_latency, &dirty);
      // Completion rate and service time feed the model fitter's capacity
      // estimate directly; a spiked rate or zeroed service time talks the
      // optimizer into a phantom-capacity plan just as surely as poisoned
      // demand does.
      clamp_spike(rps_mad_, row, c, m.completion_rps, &dirty);
      clamp_spike(service_mad_, row, c, m.mean_service_time, &dirty);
      if (!std::isfinite(m.max_latency) || m.max_latency < m.mean_latency) {
        m.max_latency = m.mean_latency;
      }
      return false;
    };
    report.request_metrics.erase(
        std::remove_if(report.request_metrics.begin(),
                       report.request_metrics.end(), bad),
        report.request_metrics.end());
    if (report.request_metrics.size() != before) {
      fields_rejected_ += before - report.request_metrics.size();
      dirty = true;
    }
  }

  // End-to-end cells drive the rollout canary verdicts (goodput from the
  // counts, tail from the p99s). A poisoned cell is neutralized (count -> 0
  // removes it from every sum and weighted mean), a spiking one is clamped.
  for (std::size_t k = 0; k < classes_; ++k) {
    E2eMetrics& e = report.e2e[k];
    if (e.count == 0) continue;
    if (!std::isfinite(e.mean_latency) || e.mean_latency < 0.0 ||
        e.mean_latency > options_.max_latency) {
      e = E2eMetrics{};
      ++fields_rejected_;
      dirty = true;
      continue;
    }
    clamp_spike(e2e_mad_, k, c, e.mean_latency, &dirty);
    if (!std::isfinite(e.p99_latency) || e.p99_latency < e.mean_latency) {
      e.p99_latency = e.mean_latency;
    }
  }

  // Trust bookkeeping.
  double& t = trust_[c];
  t = dirty ? std::max(options_.min_trust, t - options_.trust_decay)
            : std::min(1.0, t + options_.trust_recovery);
  if (dirty) ++dirty_;
  return dirty;
}

}  // namespace slate

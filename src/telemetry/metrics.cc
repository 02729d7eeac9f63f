#include "telemetry/metrics.h"

#include <cmath>
#include <stdexcept>

namespace slate {

void RateMeter::observe(double now) noexcept {
  if (last_ < 0.0) {
    last_ = now;
    rate_ = 1.0 / tau_;  // first event: seed with one event per tau
    return;
  }
  const double gap = now - last_;
  last_ = now;
  if (gap <= 0.0) {
    // Simultaneous events: each adds one event's worth of instantaneous mass.
    rate_ += 1.0 / tau_;
    return;
  }
  const double decay = std::exp(-gap / tau_);
  rate_ = rate_ * decay + (1.0 - decay) / gap;
}

double RateMeter::rate(double now) const noexcept {
  if (last_ < 0.0) return 0.0;
  const double gap = now - last_;
  if (gap <= 0.0) return rate_;
  return rate_ * std::exp(-gap / tau_);
}

MetricsRegistry::MetricsRegistry(std::size_t service_count,
                                 std::size_t class_count,
                                 std::optional<std::vector<ServiceId>> hosted,
                                 double rate_tau)
    : services_(service_count),
      classes_(class_count),
      row_of_(service_count, kNotHosted),
      ingress_rates_(class_count, RateMeter(rate_tau)),
      ingress_counts_(class_count, 0),
      ingress_rejected_(class_count, 0),
      e2e_(class_count),
      e2e_samples_(class_count) {
  if (!hosted) {
    hosted.emplace();
    for (std::size_t s = 0; s < service_count; ++s) {
      hosted->push_back(ServiceId{s});
    }
  }
  std::uint32_t rows = 0;
  for (const ServiceId s : *hosted) {
    if (!s.valid() || s.index() >= services_ ||
        row_of_[s.index()] != kNotHosted) {
      throw std::invalid_argument("MetricsRegistry: bad hosted service list");
    }
    row_of_[s.index()] = rows++;
  }
  started_.assign(rows * class_count, 0);
  completed_.assign(rows * class_count, 0);
  latency_.resize(rows * class_count);
  service_time_.resize(rows * class_count);
  service_rates_.assign(rows, RateMeter(rate_tau));
  inflight_.assign(rows, 0);
}

std::uint32_t MetricsRegistry::row(ServiceId s) const {
  if (!s.valid() || s.index() >= services_) {
    throw std::out_of_range("MetricsRegistry: bad service id");
  }
  return row_of_[s.index()];
}

void MetricsRegistry::check_class(ClassId k) const {
  if (!k.valid() || k.index() >= classes_) {
    throw std::out_of_range("MetricsRegistry: bad class id");
  }
}

std::uint32_t MetricsRegistry::hosted_row(ServiceId s) const {
  const std::uint32_t r = row(s);
  if (r == kNotHosted) {
    throw std::out_of_range("MetricsRegistry: service not hosted here");
  }
  return r;
}

void MetricsRegistry::record_start(ServiceId service, ClassId cls, double now) {
  const std::uint32_t r = hosted_row(service);
  check_class(cls);
  ++started_[r * classes_ + cls.index()];
  ++inflight_[r];
  service_rates_[r].observe(now);
}

void MetricsRegistry::record_end(ServiceId service, ClassId cls,
                                 double latency_seconds,
                                 double service_seconds) {
  const std::uint32_t r = hosted_row(service);
  check_class(cls);
  const std::size_t i = r * classes_ + cls.index();
  ++completed_[i];
  latency_[i].add(latency_seconds);
  service_time_[i].add(service_seconds);
  if (inflight_[r] > 0) --inflight_[r];
}

void MetricsRegistry::record_ingress(ClassId cls, double now) {
  check_class(cls);
  ingress_rates_[cls.index()].observe(now);
  ++ingress_counts_[cls.index()];
}

void MetricsRegistry::record_ingress_rejected(ClassId cls) {
  check_class(cls);
  ++ingress_rejected_[cls.index()];
}

std::uint64_t MetricsRegistry::ingress_rejected_count(ClassId cls) const {
  check_class(cls);
  return ingress_rejected_[cls.index()];
}

void MetricsRegistry::record_e2e(ClassId cls, double latency_seconds) {
  check_class(cls);
  e2e_[cls.index()].add(latency_seconds);
  e2e_samples_[cls.index()].add(latency_seconds);
}

double MetricsRegistry::e2e_quantile(ClassId cls, double q) const {
  check_class(cls);
  return e2e_samples_[cls.index()].quantile(q);
}

const StreamingStats& MetricsRegistry::e2e(ClassId cls) const {
  check_class(cls);
  return e2e_[cls.index()];
}

RequestStats MetricsRegistry::stats(ServiceId service, ClassId cls) const {
  const std::uint32_t r = row(service);
  check_class(cls);
  if (r == kNotHosted) return RequestStats{};
  const std::size_t i = r * classes_ + cls.index();
  return RequestStats{started_[i], completed_[i], latency_[i],
                      service_time_[i]};
}

double MetricsRegistry::service_rate(ServiceId service, double now) const {
  const std::uint32_t r = row(service);
  return r == kNotHosted ? 0.0 : service_rates_[r].rate(now);
}

double MetricsRegistry::ingress_rate(ClassId cls, double now) const {
  check_class(cls);
  return ingress_rates_[cls.index()].rate(now);
}

std::uint64_t MetricsRegistry::ingress_count(ClassId cls) const {
  check_class(cls);
  return ingress_counts_[cls.index()];
}

std::size_t MetricsRegistry::inflight(ServiceId service) const {
  const std::uint32_t r = row(service);
  return r == kNotHosted ? 0 : inflight_[r];
}

void MetricsRegistry::reset_period() {
  for (auto& c : started_) c = 0;
  for (auto& c : completed_) c = 0;
  for (auto& l : latency_) l.reset();
  for (auto& s : service_time_) s.reset();
  for (auto& c : ingress_counts_) c = 0;
  for (auto& c : ingress_rejected_) c = 0;
  for (auto& e : e2e_) e.reset();
  for (auto& s : e2e_samples_) s.clear();
}

}  // namespace slate

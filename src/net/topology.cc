#include "net/topology.h"

#include <stdexcept>

#include "util/strfmt.h"

namespace slate {

Topology::Topology(std::size_t cluster_count) {
  for (std::size_t i = 0; i < cluster_count; ++i) {
    add_cluster(strfmt("cluster-%zu", i));
  }
}

ClusterId Topology::add_cluster(std::string name) {
  const ClusterId id{names_.size()};
  names_.push_back(std::move(name));
  server_price_.push_back(0.0);
  // Grow both matrices, preserving existing entries.
  FlatMatrix<double> new_latency(names_.size(), names_.size(), 0.0);
  FlatMatrix<double> new_price(names_.size(), names_.size(), 0.0);
  for (std::size_t r = 0; r + 1 < names_.size(); ++r) {
    for (std::size_t c = 0; c + 1 < names_.size(); ++c) {
      new_latency(r, c) = latency_(r, c);
      new_price(r, c) = price_(r, c);
    }
  }
  latency_ = std::move(new_latency);
  price_ = std::move(new_price);
  return id;
}

void Topology::check(ClusterId c) const {
  if (!c.valid() || c.index() >= names_.size()) {
    throw std::out_of_range("Topology: bad cluster id");
  }
}

const std::string& Topology::cluster_name(ClusterId c) const {
  check(c);
  return names_[c.index()];
}

ClusterId Topology::find_cluster(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return ClusterId{i};
  }
  return ClusterId{};
}

void Topology::set_rtt(ClusterId a, ClusterId b, double rtt_seconds) {
  if (rtt_seconds < 0.0) throw std::invalid_argument("Topology: negative rtt");
  set_one_way_latency(a, b, rtt_seconds / 2.0);
  set_one_way_latency(b, a, rtt_seconds / 2.0);
}

void Topology::set_one_way_latency(ClusterId from, ClusterId to, double seconds) {
  check(from);
  check(to);
  if (seconds < 0.0) throw std::invalid_argument("Topology: negative latency");
  latency_(from.index(), to.index()) = seconds;
}

double Topology::one_way_latency(ClusterId from, ClusterId to) const {
  check(from);
  check(to);
  return latency_(from.index(), to.index());
}

double Topology::rtt(ClusterId a, ClusterId b) const {
  return one_way_latency(a, b) + one_way_latency(b, a);
}

void Topology::set_egress_price(ClusterId from, ClusterId to,
                                double dollars_per_gb) {
  check(from);
  check(to);
  if (dollars_per_gb < 0.0) throw std::invalid_argument("Topology: negative price");
  price_(from.index(), to.index()) = dollars_per_gb;
}

void Topology::set_uniform_egress_price(double dollars_per_gb) {
  for (std::size_t r = 0; r < names_.size(); ++r) {
    for (std::size_t c = 0; c < names_.size(); ++c) {
      if (r != c) price_(r, c) = dollars_per_gb;
    }
  }
}

double Topology::egress_price_per_gb(ClusterId from, ClusterId to) const {
  check(from);
  check(to);
  return price_(from.index(), to.index());
}

void Topology::set_server_price(ClusterId c, double dollars_per_hour) {
  check(c);
  if (dollars_per_hour < 0.0) {
    throw std::invalid_argument("Topology: negative server price");
  }
  server_price_[c.index()] = dollars_per_hour;
}

void Topology::set_uniform_server_price(double dollars_per_hour) {
  if (dollars_per_hour < 0.0) {
    throw std::invalid_argument("Topology: negative server price");
  }
  for (double& p : server_price_) p = dollars_per_hour;
}

double Topology::server_price_per_hour(ClusterId c) const {
  check(c);
  return server_price_[c.index()];
}

void Topology::set_jitter_fraction(double j) {
  if (j < 0.0 || j >= 1.0) {
    throw std::invalid_argument("Topology: jitter must be in [0, 1)");
  }
  jitter_ = j;
}

double Topology::sample_latency(ClusterId from, ClusterId to, Rng& rng) const {
  const double base = one_way_latency(from, to);
  if (base == 0.0 || jitter_ == 0.0) return base;
  return base * (1.0 + rng.uniform(-jitter_, jitter_));
}

std::vector<ClusterId> Topology::all_clusters() const {
  std::vector<ClusterId> out;
  out.reserve(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) out.emplace_back(i);
  return out;
}

}  // namespace slate

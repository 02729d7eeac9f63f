#include "net/egress_meter.h"

namespace slate {

EgressMeter::EgressMeter(const Topology& topology)
    : topology_(&topology),
      bytes_(topology.cluster_count(), topology.cluster_count(), 0) {}

void EgressMeter::record(ClusterId from, ClusterId to, std::uint64_t bytes) {
  bytes_(from.index(), to.index()) += bytes;
  if (from == to) {
    total_local_bytes_ += bytes;
    return;
  }
  total_egress_bytes_ += bytes;
  total_cost_ += static_cast<double>(bytes) / kBytesPerGb *
                 topology_->egress_price_per_gb(from, to);
}

std::uint64_t EgressMeter::egress_bytes(ClusterId from, ClusterId to) const {
  return bytes_(from.index(), to.index());
}

void EgressMeter::absorb(const EgressMeter& other) {
  const std::size_t n = bytes_.rows();
  for (std::size_t f = 0; f < n; ++f) {
    for (std::size_t t = 0; t < n; ++t) {
      bytes_(f, t) += other.bytes_(f, t);
    }
  }
  total_egress_bytes_ += other.total_egress_bytes_;
  total_local_bytes_ += other.total_local_bytes_;
  total_cost_ += other.total_cost_;
}

void EgressMeter::reset() noexcept {
  bytes_.fill(0);
  total_egress_bytes_ = 0;
  total_local_bytes_ = 0;
  total_cost_ = 0.0;
}

}  // namespace slate

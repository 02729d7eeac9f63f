// Inter-cluster network model.
//
// Clusters are vertices; between every ordered pair we model a one-way
// propagation latency (with optional jitter) and an egress price in dollars
// per gigabyte. This is the "tc netem + cloud billing" substrate of the
// paper's testbed: crossing a cluster boundary costs time and money, staying
// local costs neither.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/ids.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace slate {

// Egress prices are per GiB (2^30 bytes), as cloud bills count them.
inline constexpr double kBytesPerGb = 1024.0 * 1024.0 * 1024.0;

// The default exclusion predicate of Topology::nearest/local_or_nearest.
struct NoneExcluded {
  constexpr bool operator()(ClusterId /*c*/) const noexcept { return false; }
};

class Topology {
 public:
  // Creates a topology with `cluster_count` clusters named "cluster-<i>".
  explicit Topology(std::size_t cluster_count = 0);

  // Adds a cluster and returns its id. Latencies to existing clusters
  // default to 0 (same-site); set them explicitly.
  ClusterId add_cluster(std::string name);

  [[nodiscard]] std::size_t cluster_count() const noexcept { return names_.size(); }
  [[nodiscard]] const std::string& cluster_name(ClusterId c) const;
  // Returns an invalid id if no cluster has `name`.
  [[nodiscard]] ClusterId find_cluster(std::string_view name) const noexcept;

  // Symmetric convenience: one-way latency in both directions = rtt/2.
  void set_rtt(ClusterId a, ClusterId b, double rtt_seconds);
  void set_one_way_latency(ClusterId from, ClusterId to, double seconds);
  [[nodiscard]] double one_way_latency(ClusterId from, ClusterId to) const;
  [[nodiscard]] double rtt(ClusterId a, ClusterId b) const;

  // Egress pricing, $/GB for traffic leaving `from` toward `to`.
  void set_egress_price(ClusterId from, ClusterId to, double dollars_per_gb);
  // Sets every inter-cluster pair to `dollars_per_gb`; intra stays 0.
  void set_uniform_egress_price(double dollars_per_gb);
  [[nodiscard]] double egress_price_per_gb(ClusterId from, ClusterId to) const;

  // Compute pricing, $/server-hour for capacity provisioned in `c`
  // (regions price the same VM differently — the other half of the
  // egress-vs-servers cost trade the bi-level objective optimizes).
  // Defaults to 0: server time is free unless a scenario prices it.
  void set_server_price(ClusterId c, double dollars_per_hour);
  void set_uniform_server_price(double dollars_per_hour);
  [[nodiscard]] double server_price_per_hour(ClusterId c) const;

  // Multiplicative jitter: sampled latency = base * (1 + U(-j, +j)).
  // j = 0 (default) disables jitter. Requires 0 <= j < 1.
  void set_jitter_fraction(double j);
  [[nodiscard]] double jitter_fraction() const noexcept { return jitter_; }

  // One latency draw for a message from -> to. Intra-cluster is 0.
  [[nodiscard]] double sample_latency(ClusterId from, ClusterId to, Rng& rng) const;

  // The cluster nearest to `from` among `candidates` by one-way latency
  // (excluding `from` itself unless no other candidate is left). Ties break
  // to the lowest id, mirroring a deterministic priority list; when no
  // latency compares (all NaN) the first candidate wins. Candidates for which
  // `excluded(c)` holds are skipped; with none left the id is invalid.
  template <typename Excluded = NoneExcluded>
  [[nodiscard]] ClusterId nearest(ClusterId from,
                                  const std::vector<ClusterId>& candidates,
                                  Excluded excluded = {}) const {
    return pick(from, candidates, excluded, /*local=*/false);
  }

  // Where the data plane sends a call or an arrival with no rule to follow,
  // and where every planner models it going: `from` itself if it is a
  // candidate and not excluded, else nearest(). Allocates nothing.
  template <typename Excluded = NoneExcluded>
  [[nodiscard]] ClusterId local_or_nearest(
      ClusterId from, const std::vector<ClusterId>& candidates,
      Excluded excluded = {}) const {
    return pick(from, candidates, excluded, /*local=*/true);
  }

  [[nodiscard]] std::vector<ClusterId> all_clusters() const;

 private:
  void check(ClusterId c) const;

  // Out of line: inlined into Simulation::on_arrival it cost the
  // synth-waterfall data plane about 7% of host throughput (perfbench).
  template <typename Excluded>
  [[gnu::noinline]] ClusterId pick(ClusterId from,
                                   const std::vector<ClusterId>& candidates,
                                   Excluded& excluded, bool local) const {
    check(from);
    if (local && std::find(candidates.begin(), candidates.end(), from) !=
                     candidates.end() &&
        !excluded(from)) {
      return from;
    }
    ClusterId best, first;
    double best_latency = std::numeric_limits<double>::infinity();
    for (ClusterId c : candidates) {
      check(c);
      if (excluded(c)) continue;
      if (!first.valid()) first = c;
      if (c == from) continue;
      const double l = latency_(from.index(), c.index());
      if (l < best_latency ||
          (l == best_latency && (!best.valid() || c < best))) {
        best_latency = l;
        best = c;
      }
    }
    return best.valid() ? best : first;
  }

  std::vector<std::string> names_;
  FlatMatrix<double> latency_;  // one-way seconds
  FlatMatrix<double> price_;    // $/GB
  std::vector<double> server_price_;  // $/server-hour, per cluster
  double jitter_ = 0.0;
};

}  // namespace slate

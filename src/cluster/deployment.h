// Placement of services onto clusters.
//
// A deployment records, for each (service, cluster): whether the service is
// present (paper Fig. 1: partial replication due to security, data locality,
// failures), how many parallel servers it runs, and its operator-configured
// nominal capacity in requests/second. The nominal capacity is what Waterfall
// (Traffic Director / ServiceRouter) thresholds on, and what the optimizer
// uses as its hard capacity bound.
#pragma once

#include <optional>
#include <vector>

#include "app/application.h"
#include "util/ids.h"
#include "util/matrix.h"

namespace slate {

class Deployment {
 public:
  Deployment(const Application& app, std::size_t cluster_count);
  // Copies `other`'s placements onto `app`, a copy of other's application.
  Deployment(const Deployment& other, const Application& app);

  // Deploys `service` in `cluster` with `servers` parallel workers and the
  // given nominal capacity (requests/second). Re-deploying overwrites.
  void deploy(ServiceId service, ClusterId cluster, unsigned servers,
              double capacity_rps);

  // Convenience: deploys every service in every cluster uniformly.
  void deploy_everywhere(unsigned servers, double capacity_rps);

  // Removes `service` from `cluster` (partial replication / failure).
  void undeploy(ServiceId service, ClusterId cluster);

  [[nodiscard]] bool is_deployed(ServiceId service, ClusterId cluster) const;
  [[nodiscard]] unsigned servers(ServiceId service, ClusterId cluster) const;
  [[nodiscard]] double capacity_rps(ServiceId service, ClusterId cluster) const;

  // Clusters where `service` is present, in id order.
  [[nodiscard]] std::vector<ClusterId> clusters_for(ServiceId service) const;

  [[nodiscard]] std::size_t cluster_count() const noexcept { return cluster_count_; }
  [[nodiscard]] const Application& application() const noexcept { return *app_; }

  // Throws std::logic_error if any service is deployed nowhere (a request
  // could never be served).
  void validate() const;

 private:
  struct Placement {
    bool present = false;
    unsigned servers = 0;
    double capacity_rps = 0.0;
  };
  [[nodiscard]] const Placement& at(ServiceId service, ClusterId cluster) const;
  [[nodiscard]] Placement& at(ServiceId service, ClusterId cluster);

  const Application* app_;
  std::size_t cluster_count_;
  FlatMatrix<Placement> placements_;  // rows: services, cols: clusters
};

}  // namespace slate

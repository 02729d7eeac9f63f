#include "cluster/deployment.h"

#include <stdexcept>

namespace slate {

Deployment::Deployment(const Application& app, std::size_t cluster_count)
    : app_(&app),
      cluster_count_(cluster_count),
      placements_(app.service_count(), cluster_count) {
  if (cluster_count == 0) {
    throw std::invalid_argument("Deployment: zero clusters");
  }
}

Deployment::Deployment(const Deployment& other, const Application& app)
    : Deployment(other) {
  app_ = &app;
}

const Deployment::Placement& Deployment::at(ServiceId service,
                                            ClusterId cluster) const {
  if (!service.valid() || service.index() >= placements_.rows() ||
      !cluster.valid() || cluster.index() >= cluster_count_) {
    throw std::out_of_range("Deployment: bad service/cluster id");
  }
  return placements_(service.index(), cluster.index());
}

Deployment::Placement& Deployment::at(ServiceId service, ClusterId cluster) {
  return const_cast<Placement&>(
      static_cast<const Deployment*>(this)->at(service, cluster));
}

void Deployment::deploy(ServiceId service, ClusterId cluster, unsigned servers,
                        double capacity_rps) {
  if (servers == 0) throw std::invalid_argument("Deployment: servers == 0");
  if (!(capacity_rps > 0.0)) {
    throw std::invalid_argument("Deployment: capacity must be positive");
  }
  at(service, cluster) = Placement{true, servers, capacity_rps};
}

void Deployment::deploy_everywhere(unsigned servers, double capacity_rps) {
  for (ServiceId s : app_->all_services()) {
    for (std::size_t c = 0; c < cluster_count_; ++c) {
      deploy(s, ClusterId{c}, servers, capacity_rps);
    }
  }
}

void Deployment::undeploy(ServiceId service, ClusterId cluster) {
  at(service, cluster) = Placement{};
}

bool Deployment::is_deployed(ServiceId service, ClusterId cluster) const {
  return at(service, cluster).present;
}

unsigned Deployment::servers(ServiceId service, ClusterId cluster) const {
  return at(service, cluster).servers;
}

double Deployment::capacity_rps(ServiceId service, ClusterId cluster) const {
  return at(service, cluster).capacity_rps;
}

std::vector<ClusterId> Deployment::clusters_for(ServiceId service) const {
  std::vector<ClusterId> out;
  for (std::size_t c = 0; c < cluster_count_; ++c) {
    if (placements_(service.index(), c).present) out.emplace_back(c);
  }
  return out;
}

void Deployment::validate() const {
  for (ServiceId s : app_->all_services()) {
    if (clusters_for(s).empty()) {
      throw std::logic_error("Deployment: service '" + app_->service_name(s) +
                             "' deployed nowhere");
    }
  }
}

}  // namespace slate

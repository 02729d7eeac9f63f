#include "core/plan_eval.h"

#include <algorithm>
#include <stdexcept>

#include "lp/piecewise.h"

namespace slate {

double servers_at(const Deployment& deployment,
                  const std::vector<unsigned>* live_servers,
                  std::size_t service, std::size_t cluster) {
  const std::size_t i = service * deployment.cluster_count() + cluster;
  if (live_servers != nullptr && i < live_servers->size() &&
      (*live_servers)[i] > 0) {
    return static_cast<double>((*live_servers)[i]);
  }
  return deployment.servers(ServiceId{service}, ClusterId{cluster});
}

double call_edge_cost(const Topology& topology, const CallNode& node,
                      ClusterId from, ClusterId to, double cost_weight) {
  const double dollars =
      (static_cast<double>(node.request_bytes) *
           topology.egress_price_per_gb(from, to) +
       static_cast<double>(node.response_bytes) *
           topology.egress_price_per_gb(to, from)) /
      kBytesPerGb;
  return topology.one_way_latency(from, to) +
         topology.one_way_latency(to, from) + cost_weight * dollars;
}

FlatMatrix<double> front_door_demand(const Application& app,
                                     const Deployment& deployment,
                                     const Topology& topology,
                                     const FlatMatrix<double>& demand,
                                     ClusterId failed) {
  const std::size_t K = app.class_count();
  const std::size_t C = deployment.cluster_count();
  if (demand.rows() != K || demand.cols() != C) {
    throw std::invalid_argument("demand is not classes x clusters");
  }
  const auto down = [failed](ClusterId c) { return c == failed; };
  FlatMatrix<double> entry_demand(K, C, 0.0);
  for (std::size_t k = 0; k < K; ++k) {
    const auto entry_clusters =
        deployment.clusters_for(app.entry_service(ClassId{k}));
    for (std::size_t c = 0; c < C; ++c) {
      const double d = demand(k, c);
      if (d <= 0.0) continue;
      const ClusterId at =
          topology.local_or_nearest(ClusterId{c}, entry_clusters, down);
      if (at.valid()) entry_demand(k, at.index()) += d;
    }
  }
  return entry_demand;
}

PlanFlow forward_plan(const Application& app, const Deployment& deployment,
                      const Topology& topology, const LatencyModel& model,
                      const FlatMatrix<double>& demand,
                      const RoutingRuleSet& rules,
                      const std::vector<unsigned>* live_servers,
                      double cost_weight, ClusterId failed) {
  const std::size_t C = deployment.cluster_count();
  const auto down = [failed](ClusterId c) { return c == failed; };
  const FlatMatrix<double> entry_demand =
      front_door_demand(app, deployment, topology, demand, failed);

  PlanFlow flow;
  flow.utilization.assign(app.service_count() * C, 0.0);
  std::vector<double> arrivals;  // [n * C + c], one class at a time
  for (std::size_t k = 0; k < app.class_count(); ++k) {
    const CallGraph& graph = app.traffic_class(ClassId{k}).graph;
    arrivals.assign(graph.node_count() * C, 0.0);
    for (std::size_t c = 0; c < C; ++c) arrivals[c] = entry_demand(k, c);

    for (std::size_t n = 0; n < graph.node_count(); ++n) {
      const CallNode& node = graph.node(n);
      double* at = &arrivals[n * C];
      if (n > 0) {
        const auto candidates = deployment.clusters_for(node.service);
        for (std::size_t i = 0; i < C; ++i) {
          const double out = arrivals[node.parent * C + i] * node.multiplicity;
          if (out <= 0.0) continue;
          const ClusterId from{i};
          const auto send = [&](ClusterId to, double w) {
            if (!to.valid()) return;  // every candidate failed: lost
            at[to.index()] += out * w;
            if (to != from) {
              flow.network_cost +=
                  out * w * call_edge_cost(topology, node, from, to, cost_weight);
            }
          };
          const RouteWeights* rule = rules.find(ClassId{k}, n, from);
          if (rule == nullptr || rule->empty()) {
            send(topology.local_or_nearest(from, candidates, down), 1.0);
            continue;
          }
          for (std::size_t wi = 0; wi < rule->clusters.size(); ++wi) {
            const double w = rule->weights[wi];
            if (w <= 0.0) continue;
            const ClusterId to = rule->clusters[wi];
            send(to == failed ? topology.nearest(from, candidates, down) : to,
                 w);
          }
        }
      }
      for (std::size_t c = 0; c < C; ++c) {
        if (at[c] <= 0.0) continue;
        flow.utilization[node.service.index() * C + c] +=
            at[c] * model.service_time(node.service, ClassId{k}, ClusterId{c}) /
            servers_at(deployment, live_servers, node.service.index(), c);
      }
    }
  }
  return flow;
}

double evaluate_plan_cost(const Application& app, const Deployment& deployment,
                          const Topology& topology, const LatencyModel& model,
                          const FlatMatrix<double>& demand,
                          const RoutingRuleSet& rules,
                          const std::vector<unsigned>* live_servers,
                          double cost_weight) {
  const PlanFlow flow = forward_plan(app, deployment, topology, model, demand,
                                     rules, live_servers, cost_weight);
  const std::size_t C = deployment.cluster_count();
  double station_cost = 0.0;
  for (std::size_t s = 0; s < app.service_count(); ++s) {
    for (std::size_t c = 0; c < C; ++c) {
      const double u = flow.utilization[s * C + c];
      if (u <= 0.0) continue;
      station_cost += servers_at(deployment, live_servers, s, c) *
                      (u + queue_cost(std::min(u, 0.999)));
    }
  }
  return station_cost + flow.network_cost;
}

double failure_max_utilization(const Application& app,
                               const Deployment& deployment,
                               const Topology& topology,
                               const LatencyModel& model,
                               const FlatMatrix<double>& demand,
                               const RoutingRuleSet& rules,
                               const std::vector<unsigned>* live_servers,
                               ClusterId failed) {
  const PlanFlow flow = forward_plan(app, deployment, topology, model, demand,
                                     rules, live_servers, 1.0, failed);
  double max_util = 0.0;
  for (const double u : flow.utilization) max_util = std::max(max_util, u);
  return max_util;
}

double worst_case_margin(const Application& app, const Deployment& deployment,
                         const Topology& topology, const LatencyModel& model,
                         const FlatMatrix<double>& demand,
                         const RoutingRuleSet& rules,
                         const std::vector<unsigned>* live_servers,
                         ClusterId* worst) {
  double margin = 0.0;
  for (std::size_t f = 0; f < deployment.cluster_count(); ++f) {
    const double u = failure_max_utilization(app, deployment, topology, model,
                                             demand, rules, live_servers,
                                             ClusterId{f});
    if (u > margin) {
      margin = u;
      if (worst != nullptr) *worst = ClusterId{f};
    }
  }
  return margin;
}

}  // namespace slate

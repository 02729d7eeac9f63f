#include "routing/weighted_rules.h"

#include <stdexcept>

namespace slate {

ClusterId RouteWeights::primary() const {
  ClusterId best;
  double best_weight = -1.0;
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    if (weights[i] > best_weight) {
      best_weight = weights[i];
      best = clusters[i];
    }
  }
  return best;
}

double RouteWeights::weight_for(ClusterId cluster) const noexcept {
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    if (clusters[i] == cluster) return weights[i];
  }
  return 0.0;
}

void RouteWeights::normalize() {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) {
    throw std::logic_error("RouteWeights: cannot normalize zero weights");
  }
  for (double& w : weights) w /= total;
}

std::uint64_t RoutingRuleSet::make_key(ClassId cls, std::size_t call_node,
                                       ClusterId from) noexcept {
  return (static_cast<std::uint64_t>(cls.value()) << 40) |
         (static_cast<std::uint64_t>(call_node & 0xFFFFF) << 20) |
         (from.value() & 0xFFFFF);
}

void RoutingRuleSet::set_rule(ClassId cls, std::size_t call_node,
                              ClusterId from, RouteWeights weights) {
  rules_[make_key(cls, call_node, from)] = std::move(weights);
}

const RouteWeights* RoutingRuleSet::find(ClassId cls, std::size_t call_node,
                                         ClusterId from) const noexcept {
  const auto it = rules_.find(make_key(cls, call_node, from));
  return it == rules_.end() ? nullptr : &it->second;
}

void RoutingRuleSet::validate() const {
  for (const auto& [key, rule] : rules_) {
    (void)key;
    if (rule.clusters.size() != rule.weights.size()) {
      throw std::logic_error("RoutingRuleSet: size mismatch");
    }
    double total = 0.0;
    for (double w : rule.weights) {
      if (w < 0.0) throw std::logic_error("RoutingRuleSet: negative weight");
      total += w;
    }
    if (total <= 0.0) throw std::logic_error("RoutingRuleSet: zero total weight");
  }
}

WeightedRulesPolicy::WeightedRulesPolicy(const Topology& topology)
    : topology_(&topology) {}

ClusterId WeightedRulesPolicy::route(const RouteQuery& query, Rng& rng) {
  const std::shared_ptr<const RoutingRuleSet> rules = rules_;
  if (rules != nullptr) {
    const RouteWeights* rule = rules->find(query.cls, query.call_node, query.from);
    if (rule != nullptr && !rule->empty()) {
      const std::size_t pick = rng.weighted_pick(rule->weights);
      return rule->clusters[pick];
    }
  }
  // No rule yet: locality failover.
  return topology_->local_or_nearest(query.from, *query.candidates);
}

}  // namespace slate

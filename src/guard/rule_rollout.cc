#include "guard/rule_rollout.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/routing_rules.h"
#include "util/logging.h"

namespace slate {

namespace {

// Largest per-rule L-inf weight change between matching keys. Keys present
// only in one set are ignored (a new rule has nothing to step from;
// blend_rule_sets copies it verbatim).
double max_linf_delta(const RoutingRuleSet& current,
                      const RoutingRuleSet& target) {
  double max_delta = 0.0;
  target.for_each([&](ClassId cls, std::size_t node, ClusterId from,
                      const RouteWeights& tw) {
    const RouteWeights* cw = current.find(cls, node, from);
    if (cw == nullptr) return;
    for (std::size_t i = 0; i < tw.clusters.size(); ++i) {
      max_delta = std::max(
          max_delta, std::abs(tw.weights[i] - cw->weight_for(tw.clusters[i])));
    }
    for (std::size_t i = 0; i < cw->clusters.size(); ++i) {
      max_delta = std::max(
          max_delta, std::abs(cw->weights[i] - tw.weight_for(cw->clusters[i])));
    }
  });
  return max_delta;
}

}  // namespace

RuleRollout::RuleRollout(RolloutOptions options)
    : options_(options),
      flap_ring_(std::max<std::size_t>(options.flap_window, 1), 0.0) {}

RolloutDecision RuleRollout::observe(double goodput_rps, double p99,
                                     std::uint64_t samples) {
  RolloutDecision decision;
  if (canary_remaining_ > 0) {
    const bool verdict_possible =
        baseline_valid_ && samples >= options_.min_samples;
    bool regressed = false;
    if (verdict_possible) {
      if (baseline_goodput_ > 0.0 &&
          goodput_rps <
              (1.0 - options_.goodput_drop) * baseline_goodput_) {
        regressed = true;
      }
      // A p99 rise alone is not actionable: per-period tail latency is
      // noisy under load (a transient queue burst blows p99 out 5-10x with
      // goodput untouched). It corroborates a regression only when goodput
      // is also sagging toward the drop threshold.
      if (baseline_p99_ > 0.0 && baseline_goodput_ > 0.0 &&
          p99 > (1.0 + options_.p99_rise) * baseline_p99_ &&
          goodput_rps <
              (1.0 - 0.5 * options_.goodput_drop) * baseline_goodput_) {
        regressed = true;
      }
    }
    if (regressed) {
      ++rollbacks_;
      SLATE_LOG(kWarn) << "rollout canary failed (goodput " << goodput_rps
                       << " vs baseline " << baseline_goodput_ << ", p99 "
                       << p99 << " vs " << baseline_p99_
                       << "): rolling back to last-known-good";
      current_ = last_good_ != nullptr
                     ? last_good_
                     : std::make_shared<const RoutingRuleSet>();
      canary_remaining_ = 0;
      freeze_remaining_ = options_.freeze_periods;
      damping_ = std::max(options_.damping_floor, damping_ * 0.5);
      decision.rules = current_;
      decision.rolled_back = true;
      return decision;
    }
    --canary_remaining_;
    if (canary_remaining_ > 0) {
      decision.hold = true;  // keep evaluating before the next actuation
      return decision;
    }
    last_good_ = current_;  // survived the canary window
  }

  if (freeze_remaining_ > 0) {
    --freeze_remaining_;
    decision.hold = true;
    return decision;
  }

  // Record the healthy pre-push baseline the next canary will be judged
  // against.
  if (samples >= options_.min_samples) {
    baseline_goodput_ = goodput_rps;
    baseline_p99_ = p99;
    baseline_valid_ = true;
  }
  return decision;
}

RolloutDecision RuleRollout::apply(
    std::shared_ptr<const RoutingRuleSet> target) {
  RolloutDecision decision;
  if (target == nullptr) return decision;

  if (current_ == nullptr || current_->size() == 0) {
    // First actuation: nothing to damp or flap against.
    current_ = std::move(target);
    ++pushes_;
    canary_remaining_ = options_.canary_periods;
    decision.rules = current_;
    return decision;
  }

  const double max_delta = max_linf_delta(*current_, *target);
  const double allowed = options_.max_weight_delta * damping_;
  std::shared_ptr<const RoutingRuleSet> blended;
  if (max_delta > allowed && max_delta > 0.0) {
    blended = blend_rule_sets(current_.get(), *target, allowed / max_delta);
    ++damped_pushes_;
  } else {
    blended = std::move(target);
  }

  const double dist = rule_set_distance(*current_, *blended);
  flap_ring_[flap_next_] = dist;
  flap_next_ = (flap_next_ + 1) % flap_ring_.size();
  flap_count_ = std::min(flap_count_ + 1, flap_ring_.size());
  if (flap_count_ == flap_ring_.size()) {
    double mean = 0.0;
    for (const double d : flap_ring_) mean += d;
    mean /= static_cast<double>(flap_ring_.size());
    if (mean > options_.flap_threshold) {
      ++flap_freezes_;
      freeze_remaining_ = options_.freeze_periods;
      damping_ = std::max(options_.damping_floor, damping_ * 0.5);
      flap_count_ = 0;  // restart detection after the freeze
      SLATE_LOG(kWarn) << "rollout flap detected (mean successive L1 "
                       << mean << "): freezing updates for "
                       << options_.freeze_periods << " periods";
      decision.hold = true;
      return decision;
    }
  }

  // Calm pushes slowly relax the damping tightened by freezes/rollbacks.
  damping_ = std::min(1.0, damping_ + 0.05);
  current_ = std::move(blended);
  ++pushes_;
  canary_remaining_ = options_.canary_periods;
  decision.rules = current_;
  return decision;
}

}  // namespace slate

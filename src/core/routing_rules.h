// Rule-set arithmetic for guarded, incremental rule application.
//
// Paper §5 (resilience to prediction error): instead of jumping straight to
// the optimizer's output, move a fraction of the way there each control
// period and verify with live telemetry that the objective actually
// improved. These helpers implement the "move a fraction" part; the
// verify/rollback logic lives in RuleRollout (guard/rule_rollout.h).
#pragma once

#include <memory>

#include "routing/weighted_rules.h"

namespace slate {

// Per-key convex combination: result = (1-step) * current + step * target,
// renormalized over the target rule's cluster list. Keys missing from
// `current` are copied verbatim (there is nothing to blend against).
// `current` may be null (returns a copy of target). step is clamped to
// [0, 1].
std::shared_ptr<RoutingRuleSet> blend_rule_sets(const RoutingRuleSet* current,
                                                const RoutingRuleSet& target,
                                                double step);

// Mean L1 distance between matching rules' weight vectors (0 = identical,
// up to 2 = disjoint). Keys present in only one set compare against a
// point-mass on that rule's primary cluster.
double rule_set_distance(const RoutingRuleSet& a, const RoutingRuleSet& b);

}  // namespace slate

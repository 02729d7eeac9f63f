#include "routing/locality_failover.h"

namespace slate {

ClusterId LocalityFailoverPolicy::route(const RouteQuery& query, Rng& /*rng*/) {
  return topology_->local_or_nearest(query.from, *query.candidates);
}

}  // namespace slate

// Whole-result checks shared by the determinism and conservation tests.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <variant>
#include <vector>

#include "runtime/experiment.h"

namespace slate {

// `a` and `b` agree exactly on every deterministic counter row (see
// SLATE_RESULT_COUNTERS), the latency samples, the call flows, station
// utilization, the final fleet and the timeseries bucket width. Each counter
// mismatch names its row. Latency streams must match in insertion order;
// quantile() sorts a SampleSet in place, so compare before any p50()/p99()
// query on either side.
inline void expect_same_result(const ExperimentResult& a,
                               const ExperimentResult& b) {
  for (const CounterRow& row : kResultCounters) {
    if (row.clock != CounterClock::kDeterministic) continue;
    std::visit(
        [&](auto member) {
          EXPECT_EQ(a.*member, b.*member) << "row `" << row.name << "`";
        },
        row.member);
  }
  EXPECT_EQ(a.e2e.samples(), b.e2e.samples()) << "e2e";
  ASSERT_EQ(a.e2e_by_class.size(), b.e2e_by_class.size());
  for (std::size_t k = 0; k < a.e2e_by_class.size(); ++k) {
    EXPECT_EQ(a.e2e_by_class[k].samples(), b.e2e_by_class[k].samples())
        << "e2e_by_class[" << k << "]";
  }
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t k = 0; k < a.flows.size(); ++k) {
    ASSERT_EQ(a.flows[k].size(), b.flows[k].size());
    for (std::size_t n = 0; n < a.flows[k].size(); ++n) {
      EXPECT_EQ(a.flows[k][n].data(), b.flows[k][n].data())
          << "flows[" << k << "][" << n << "]";
    }
  }
  EXPECT_EQ(a.station_utilization, b.station_utilization);
  EXPECT_EQ(a.final_servers, b.final_servers);
  EXPECT_EQ(a.series_bucket, b.series_bucket);
}

// The station law (every admitted job is served, cancelled, evicted or still
// in flight at run end), the solver law (every solve attempt lands on
// exactly one rung, and every hold is a hold-rung settle) and, when
// front-door admission is armed, the door law (every arrival is admitted or
// rejected exactly once).
inline void expect_conserved(const ExperimentResult& r, bool admission_armed) {
  EXPECT_EQ(r.jobs_submitted, r.jobs_served + r.jobs_cancelled +
                                  r.jobs_evicted + r.jobs_in_flight_at_end)
      << "station conservation";
  EXPECT_EQ(r.solver_solves, r.solver_exact_cold + r.solver_exact_warm +
                                 r.solver_arm_fast + r.solver_arm_split +
                                 r.solver_arm_hold)
      << "solver conservation";
  EXPECT_EQ(r.solver_arm_hold, r.solver_holds) << "solver holds";
  if (admission_armed) {
    EXPECT_EQ(r.generated, r.admission_admitted + r.admission_rejected)
        << "door conservation";
  }
}

}  // namespace slate

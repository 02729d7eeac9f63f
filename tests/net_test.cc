// Unit tests for the network substrate: topology, presets, egress meter.
#include <gtest/gtest.h>

#include "net/egress_meter.h"
#include "net/gcp_topology.h"
#include "net/topology.h"
#include "util/rng.h"

namespace slate {
namespace {

TEST(Topology, AddAndName) {
  Topology topo;
  const ClusterId a = topo.add_cluster("alpha");
  const ClusterId b = topo.add_cluster("beta");
  EXPECT_EQ(topo.cluster_count(), 2u);
  EXPECT_EQ(topo.cluster_name(a), "alpha");
  EXPECT_EQ(topo.find_cluster("beta"), b);
  EXPECT_FALSE(topo.find_cluster("gamma").valid());
}

TEST(Topology, RttSetsBothDirections) {
  Topology topo(2);
  topo.set_rtt(ClusterId{0}, ClusterId{1}, 0.030);
  EXPECT_DOUBLE_EQ(topo.one_way_latency(ClusterId{0}, ClusterId{1}), 0.015);
  EXPECT_DOUBLE_EQ(topo.one_way_latency(ClusterId{1}, ClusterId{0}), 0.015);
  EXPECT_DOUBLE_EQ(topo.rtt(ClusterId{0}, ClusterId{1}), 0.030);
}

TEST(Topology, IntraClusterIsFree) {
  Topology topo(2);
  topo.set_rtt(ClusterId{0}, ClusterId{1}, 0.030);
  EXPECT_EQ(topo.one_way_latency(ClusterId{0}, ClusterId{0}), 0.0);
  EXPECT_EQ(topo.egress_price_per_gb(ClusterId{0}, ClusterId{0}), 0.0);
}

TEST(Topology, AsymmetricOneWay) {
  Topology topo(2);
  topo.set_one_way_latency(ClusterId{0}, ClusterId{1}, 0.010);
  topo.set_one_way_latency(ClusterId{1}, ClusterId{0}, 0.020);
  EXPECT_DOUBLE_EQ(topo.rtt(ClusterId{0}, ClusterId{1}), 0.030);
}

TEST(Topology, UniformEgressPriceSkipsDiagonal) {
  Topology topo(3);
  topo.set_uniform_egress_price(0.08);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      const double expected = i == j ? 0.0 : 0.08;
      EXPECT_DOUBLE_EQ(
          topo.egress_price_per_gb(ClusterId{i}, ClusterId{j}), expected);
    }
  }
}

TEST(Topology, NegativeInputsThrow) {
  Topology topo(2);
  EXPECT_THROW(topo.set_rtt(ClusterId{0}, ClusterId{1}, -1.0),
               std::invalid_argument);
  EXPECT_THROW(topo.set_egress_price(ClusterId{0}, ClusterId{1}, -0.1),
               std::invalid_argument);
  EXPECT_THROW(topo.set_jitter_fraction(1.5), std::invalid_argument);
  EXPECT_THROW(topo.one_way_latency(ClusterId{0}, ClusterId{5}),
               std::out_of_range);
}

TEST(Topology, JitterBounds) {
  Topology topo(2);
  topo.set_rtt(ClusterId{0}, ClusterId{1}, 0.020);
  topo.set_jitter_fraction(0.2);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double l = topo.sample_latency(ClusterId{0}, ClusterId{1}, rng);
    EXPECT_GE(l, 0.010 * 0.8);
    EXPECT_LE(l, 0.010 * 1.2);
  }
  // Intra-cluster stays exactly zero even with jitter.
  EXPECT_EQ(topo.sample_latency(ClusterId{0}, ClusterId{0}, rng), 0.0);
}

TEST(Topology, NearestPrefersLowestLatency) {
  Topology topo(3);
  topo.set_rtt(ClusterId{0}, ClusterId{1}, 0.030);
  topo.set_rtt(ClusterId{0}, ClusterId{2}, 0.010);
  topo.set_rtt(ClusterId{1}, ClusterId{2}, 0.020);
  const std::vector<ClusterId> all{ClusterId{0}, ClusterId{1}, ClusterId{2}};
  // From 0, nearest non-self candidate is 2.
  EXPECT_EQ(topo.nearest(ClusterId{0}, all), ClusterId{2});
  // Restricting candidates changes the answer.
  EXPECT_EQ(topo.nearest(ClusterId{0}, {ClusterId{1}}), ClusterId{1});
  // Single self candidate returns self.
  EXPECT_EQ(topo.nearest(ClusterId{0}, {ClusterId{0}}), ClusterId{0});
}

TEST(Topology, LocalOrNearestHonorsExclusionAndTies) {
  Topology topo(4);
  topo.set_rtt(ClusterId{0}, ClusterId{1}, 0.020);
  topo.set_rtt(ClusterId{0}, ClusterId{2}, 0.020);
  topo.set_rtt(ClusterId{0}, ClusterId{3}, 0.010);
  const std::vector<ClusterId> all{ClusterId{3}, ClusterId{2}, ClusterId{1},
                                   ClusterId{0}};
  const auto is = [](std::size_t x) {
    return [x](ClusterId c) { return c == ClusterId{x}; };
  };
  // A candidate serves its own traffic; a non-candidate goes nearest.
  EXPECT_EQ(topo.local_or_nearest(ClusterId{0}, all), ClusterId{0});
  EXPECT_EQ(topo.local_or_nearest(ClusterId{0}, {ClusterId{1}, ClusterId{3}}),
            ClusterId{3});
  // Excluding the local replica falls through to the nearest other one;
  // equal latencies break to the lowest id whatever the list order.
  EXPECT_EQ(topo.local_or_nearest(ClusterId{0}, all, is(0)), ClusterId{3});
  EXPECT_EQ(topo.local_or_nearest(ClusterId{0}, all,
                                  [](ClusterId c) {
                                    return c == ClusterId{0} ||
                                           c == ClusterId{3};
                                  }),
            ClusterId{1});
  // nearest() skips `from` unless it is the only candidate left.
  EXPECT_EQ(topo.nearest(ClusterId{0}, all, is(3)), ClusterId{1});
  EXPECT_EQ(topo.nearest(ClusterId{0}, {ClusterId{0}, ClusterId{2}}, is(2)),
            ClusterId{0});
  // Everything excluded: no cluster.
  EXPECT_FALSE(
      topo.local_or_nearest(ClusterId{1}, {ClusterId{0}}, is(0)).valid());
  EXPECT_FALSE(topo.nearest(ClusterId{0}, {}).valid());
}

TEST(GcpTopology, MatchesPaperMatrix) {
  const Topology topo = make_gcp_topology();
  ASSERT_EQ(topo.cluster_count(), 4u);
  const ClusterId orc = topo.find_cluster(kGcpRegionOR);
  const ClusterId ut = topo.find_cluster(kGcpRegionUT);
  const ClusterId iow = topo.find_cluster(kGcpRegionIOW);
  const ClusterId sc = topo.find_cluster(kGcpRegionSC);
  ASSERT_TRUE(orc.valid() && ut.valid() && iow.valid() && sc.valid());
  EXPECT_DOUBLE_EQ(topo.rtt(orc, ut), 0.030);
  EXPECT_DOUBLE_EQ(topo.rtt(ut, iow), 0.020);
  EXPECT_DOUBLE_EQ(topo.rtt(iow, sc), 0.035);
  EXPECT_DOUBLE_EQ(topo.rtt(orc, sc), 0.066);
  EXPECT_DOUBLE_EQ(topo.rtt(orc, iow), 0.037);
  EXPECT_DOUBLE_EQ(topo.egress_price_per_gb(orc, sc), 0.08);
}

TEST(GcpTopology, UtIsNearestToBothOverloaded) {
  // The premise of Fig. 5b: UT is the closest remote cluster to both OR and
  // IOW, which is why greedy offloading floods it.
  const Topology topo = make_gcp_topology();
  const ClusterId orc{0}, ut{1}, iow{2}, sc{3};
  const std::vector<ClusterId> remotes_or{ut, iow, sc};
  EXPECT_EQ(topo.nearest(orc, remotes_or), ut);
  const std::vector<ClusterId> remotes_iow{orc, ut, sc};
  EXPECT_EQ(topo.nearest(iow, remotes_iow), ut);
}

TEST(LineTopology, AccumulatesPerHop) {
  const Topology topo = make_line_topology(4, 0.010);
  EXPECT_DOUBLE_EQ(topo.rtt(ClusterId{0}, ClusterId{1}), 0.010);
  EXPECT_DOUBLE_EQ(topo.rtt(ClusterId{0}, ClusterId{3}), 0.030);
}

TEST(TwoClusterTopology, Preset) {
  const Topology topo = make_two_cluster_topology(0.050, 0.12);
  ASSERT_EQ(topo.cluster_count(), 2u);
  EXPECT_DOUBLE_EQ(topo.rtt(ClusterId{0}, ClusterId{1}), 0.050);
  EXPECT_DOUBLE_EQ(topo.egress_price_per_gb(ClusterId{0}, ClusterId{1}), 0.12);
  EXPECT_EQ(topo.cluster_name(ClusterId{0}), "west");
}

// --- EgressMeter -----------------------------------------------------------

TEST(EgressMeter, ChargesCrossClusterOnly) {
  Topology topo = make_two_cluster_topology(0.010, 0.08);
  EgressMeter meter(topo);
  meter.record(ClusterId{0}, ClusterId{0}, 1000);
  EXPECT_EQ(meter.total_egress_bytes(), 0u);
  EXPECT_EQ(meter.total_local_bytes(), 1000u);
  EXPECT_EQ(meter.total_cost_dollars(), 0.0);

  const std::uint64_t gb = 1024ull * 1024 * 1024;
  meter.record(ClusterId{0}, ClusterId{1}, gb);
  EXPECT_EQ(meter.total_egress_bytes(), gb);
  EXPECT_NEAR(meter.total_cost_dollars(), 0.08, 1e-12);
  EXPECT_EQ(meter.egress_bytes(ClusterId{0}, ClusterId{1}), gb);
}

TEST(EgressMeter, Reset) {
  Topology topo = make_two_cluster_topology(0.010, 0.08);
  EgressMeter meter(topo);
  meter.record(ClusterId{0}, ClusterId{1}, 12345);
  meter.reset();
  EXPECT_EQ(meter.total_egress_bytes(), 0u);
  EXPECT_EQ(meter.total_cost_dollars(), 0.0);
  EXPECT_EQ(meter.egress_bytes(ClusterId{0}, ClusterId{1}), 0u);
}

TEST(EgressMeter, AsymmetricPricing) {
  Topology topo(2);
  topo.set_egress_price(ClusterId{0}, ClusterId{1}, 0.10);
  topo.set_egress_price(ClusterId{1}, ClusterId{0}, 0.02);
  EgressMeter meter(topo);
  const std::uint64_t gb = 1024ull * 1024 * 1024;
  meter.record(ClusterId{0}, ClusterId{1}, gb);
  meter.record(ClusterId{1}, ClusterId{0}, gb);
  EXPECT_NEAR(meter.total_cost_dollars(), 0.12, 1e-12);
}

}  // namespace
}  // namespace slate

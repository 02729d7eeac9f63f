// Unit tests for src/util: ids, rng, stats, histogram, matrix, strfmt,
// ring buffer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <unordered_set>

#include "util/histogram.h"
#include "util/ids.h"
#include "util/matrix.h"
#include "util/ring_buffer.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strfmt.h"

namespace slate {
namespace {

// --- StrongId -------------------------------------------------------------

TEST(StrongId, DefaultIsInvalid) {
  ClusterId id;
  EXPECT_FALSE(id.valid());
}

TEST(StrongId, ValueRoundTrip) {
  ServiceId id{7};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 7u);
  EXPECT_EQ(id.index(), 7u);
}

TEST(StrongId, Ordering) {
  EXPECT_LT(ClassId{1}, ClassId{2});
  EXPECT_EQ(ClassId{3}, ClassId{3});
  EXPECT_NE(ClassId{3}, ClassId{4});
}

TEST(StrongId, Hashable) {
  std::unordered_set<ClusterId> set;
  set.insert(ClusterId{1});
  set.insert(ClusterId{1});
  set.insert(ClusterId{2});
  EXPECT_EQ(set.size(), 2u);
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<ClusterId, ServiceId>);
  static_assert(!std::is_same_v<ClassId, EdgeId>);
}

// --- Rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformU64Unbiased) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_u64(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, 500);  // ~5 sigma
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  StreamingStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential(2.5));
  EXPECT_NEAR(stats.mean(), 2.5, 0.05);
  // Exponential: stddev == mean.
  EXPECT_NEAR(stats.stddev(), 2.5, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  StreamingStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(1.0, 3.0));
  EXPECT_NEAR(stats.mean(), 1.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Rng, WeightedPickProportions) {
  Rng rng(19);
  const std::vector<double> weights{1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_pick(weights)];
  EXPECT_NEAR(counts[0], n * 0.1, n * 0.01);
  EXPECT_NEAR(counts[1], n * 0.3, n * 0.015);
  EXPECT_NEAR(counts[2], n * 0.6, n * 0.015);
}

TEST(Rng, WeightedPickSkipsNonPositive) {
  Rng rng(23);
  const std::vector<double> weights{0.0, 5.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.weighted_pick(weights), 1u);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ForkedStreamsIndependent) {
  Rng parent(31);
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkDeterministic) {
  Rng p1(31), p2(31);
  Rng a = p1.fork(5);
  Rng b = p2.fork(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

// --- StreamingStats ---------------------------------------------------------

TEST(StreamingStats, Empty) {
  StreamingStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(StreamingStats, KnownValues) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingStats, MergeMatchesCombined) {
  StreamingStats a, b, all;
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(2.0, 1.5);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(StreamingStats, MergeWithEmpty) {
  StreamingStats a, empty;
  a.add(1.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.mean(), 1.0);
}

// --- SampleSet ---------------------------------------------------------------

TEST(SampleSet, QuantileInterpolation) {
  SampleSet s;
  for (double x : {4.0, 1.0, 3.0, 2.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(SampleSet, QuantileAfterInterleavedAdds) {
  SampleSet s;
  s.add(10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 20.0);
  s.add(30.0);  // must invalidate the sorted cache
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 30.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 20.0);
}

TEST(SampleSet, MeanAndClear) {
  SampleSet s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(SampleSet, StreamingExtremesNeedNoSort) {
  // min/max/mean stream alongside add() and must not depend on quantile()
  // having sorted the samples first.
  SampleSet s;
  for (double x : {5.0, -2.0, 9.0, 0.5}) s.add(x);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.125);
  // samples() still reflects insertion order: nothing sorted yet.
  EXPECT_EQ(s.samples().front(), 5.0);
  s.add(-7.0);  // extremes update after a quantile-free history too
  EXPECT_DOUBLE_EQ(s.min(), -7.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SampleSet, EmptyExtremesAreZero) {
  SampleSet s;
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
  s.add(4.0);
  s.clear();
  EXPECT_EQ(s.min(), 0.0);  // clear() must reset the streamed extremes
  EXPECT_EQ(s.max(), 0.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 2.0);
}

// --- fit_line ----------------------------------------------------------------

TEST(FitLine, ExactLine) {
  std::vector<double> xs{1, 2, 3, 4}, ys{3, 5, 7, 9};  // y = 1 + 2x
  const LinearFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitLine, ConstantX) {
  std::vector<double> xs{2, 2, 2}, ys{1, 2, 3};
  const LinearFit fit = fit_line(xs, ys);
  EXPECT_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

TEST(FitLine, Empty) {
  const LinearFit fit = fit_line({}, {});
  EXPECT_EQ(fit.slope, 0.0);
  EXPECT_EQ(fit.intercept, 0.0);
}

// --- LatencyHistogram ---------------------------------------------------------

TEST(LatencyHistogram, CountAndMean) {
  LatencyHistogram h;
  h.add(0.001);
  h.add(0.003);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.002);
}

TEST(LatencyHistogram, QuantileAccuracy) {
  LatencyHistogram h(1e-5, 10.0, 512);
  Rng rng(41);
  SampleSet exact;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.exponential(0.05);
    h.add(x);
    exact.add(x);
  }
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double approx = h.quantile(q);
    const double truth = exact.quantile(q);
    EXPECT_NEAR(approx, truth, truth * 0.05) << "q=" << q;
  }
}

TEST(LatencyHistogram, ClampsOutOfRange) {
  LatencyHistogram h(1e-3, 1.0, 16);
  h.add(1e-9);   // below range -> first bucket
  h.add(100.0);  // above range -> last bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(15), 1u);
}

TEST(LatencyHistogram, MergeAndReset) {
  LatencyHistogram a, b;
  a.add(0.01);
  b.add(0.02);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
}

TEST(LatencyHistogram, MergeShapeMismatchThrows) {
  LatencyHistogram a(1e-5, 1.0, 16), b(1e-5, 1.0, 32);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(LatencyHistogram, BadConstructionThrows) {
  EXPECT_THROW(LatencyHistogram(0.0, 1.0, 16), std::invalid_argument);
  EXPECT_THROW(LatencyHistogram(1.0, 0.5, 16), std::invalid_argument);
  EXPECT_THROW(LatencyHistogram(1e-3, 1.0, 1), std::invalid_argument);
}

// --- FlatMatrix -----------------------------------------------------------------

TEST(FlatMatrix, Indexing) {
  FlatMatrix<int> m(2, 3, 7);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), 7);
  m(1, 2) = 42;
  EXPECT_EQ(m(1, 2), 42);
  EXPECT_EQ(m(0, 0), 7);
  m.fill(0);
  EXPECT_EQ(m(1, 2), 0);
}

TEST(StrongId, StreamOutput) {
  std::ostringstream os;
  os << ClusterId{5} << " " << ClusterId{};
  EXPECT_EQ(os.str(), "5 <invalid>");
}

TEST(SampleSet, EmptyQuantileIsZero) {
  SampleSet s;
  EXPECT_EQ(s.quantile(0.5), 0.0);
}

TEST(LatencyHistogram, EmptyQuantileIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.9), 0.0);
}

// --- strfmt -----------------------------------------------------------------------

TEST(Strfmt, Formats) {
  EXPECT_EQ(strfmt("x=%d y=%.1f", 3, 2.5), "x=3 y=2.5");
  EXPECT_EQ(strfmt("%s", ""), "");
  // Long output beyond any small-string buffer.
  const std::string long_out = strfmt("%0200d", 7);
  EXPECT_EQ(long_out.size(), 200u);
}

// --- RingBuffer -------------------------------------------------------------

TEST(RingBuffer, FifoAcrossWrapAroundAndGrowth) {
  RingBuffer<double> ring;
  double next_in = 0.0, next_out = 0.0;
  // Keep the head moving so the live range wraps the backing array before
  // each growth step (capacity 8 -> 16 -> 32).
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 3; ++i) ring.push_back(next_in++);
    ASSERT_EQ(ring.pop_front(), next_out++);
  }
  ASSERT_EQ(ring.size(), 40u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], next_out + static_cast<double>(i));
  }
  EXPECT_EQ(ring.erase(5), next_out + 5);
  while (!ring.empty()) {
    if (next_out == 25.0) ++next_out;  // the erased element
    EXPECT_EQ(ring.pop_front(), next_out++);
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(RingBuffer, DestroysEveryElementExactlyOnce) {
  auto token = std::make_shared<int>(0);
  {
    RingBuffer<std::shared_ptr<int>> ring;
    for (int i = 0; i < 20; ++i) ring.push_back(token);  // grows twice
    EXPECT_EQ(token.use_count(), 21);
    ring.pop_front();
    ring.erase(3);
    EXPECT_EQ(token.use_count(), 19);
    RingBuffer<std::shared_ptr<int>> moved(std::move(ring));
    EXPECT_EQ(token.use_count(), 19);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(RingBuffer, OverAlignedElements) {
  struct alignas(64) Line {
    double value;
  };
  RingBuffer<Line> ring;
  for (int i = 0; i < 20; ++i) {
    ring.push_back(Line{static_cast<double>(i)});
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&ring[ring.size() - 1]) % 64,
              0u);
  }
  for (int i = 0; i < 20; ++i) EXPECT_EQ(ring.pop_front().value, i);
}

}  // namespace
}  // namespace slate

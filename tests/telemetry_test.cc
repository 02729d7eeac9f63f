// Unit tests for telemetry: rate meters, metrics registry, sample store,
// trace collector.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/sample_store.h"
#include "telemetry/span.h"
#include "util/rng.h"

namespace slate {
namespace {

TEST(RateMeter, StartsAtZero) {
  RateMeter meter(1.0);
  EXPECT_EQ(meter.rate(0.0), 0.0);
}

TEST(RateMeter, ConvergesToSteadyRate) {
  RateMeter meter(1.0);
  Rng rng(3);
  const double rate = 200.0;
  double t = 0.0;
  for (int i = 0; i < 5000; ++i) {
    t += rng.exponential(1.0 / rate);
    meter.observe(t);
  }
  EXPECT_NEAR(meter.rate(t), rate, rate * 0.3);
}

TEST(RateMeter, DecaysWhenIdle) {
  RateMeter meter(1.0);
  double t = 0.0;
  for (int i = 0; i < 100; ++i) {
    t += 0.01;  // 100/s
    meter.observe(t);
  }
  const double busy = meter.rate(t);
  const double later = meter.rate(t + 5.0);  // five time constants idle
  EXPECT_LT(later, busy * 0.05);
}

TEST(MetricsRegistry, StartEndAccounting) {
  MetricsRegistry reg(2, 2);
  reg.record_start(ServiceId{0}, ClassId{1}, 0.0);
  EXPECT_EQ(reg.inflight(ServiceId{0}), 1u);
  reg.record_end(ServiceId{0}, ClassId{1}, 0.05);
  EXPECT_EQ(reg.inflight(ServiceId{0}), 0u);
  const RequestStats& st = reg.stats(ServiceId{0}, ClassId{1});
  EXPECT_EQ(st.started, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_DOUBLE_EQ(st.latency.mean(), 0.05);
  // Other cells untouched.
  EXPECT_EQ(reg.stats(ServiceId{0}, ClassId{0}).started, 0u);
  EXPECT_EQ(reg.stats(ServiceId{1}, ClassId{1}).started, 0u);
}

TEST(MetricsRegistry, IngressAndE2e) {
  MetricsRegistry reg(1, 2);
  reg.record_ingress(ClassId{0}, 0.0);
  reg.record_ingress(ClassId{0}, 0.1);
  reg.record_ingress(ClassId{1}, 0.1);
  EXPECT_EQ(reg.ingress_count(ClassId{0}), 2u);
  EXPECT_EQ(reg.ingress_count(ClassId{1}), 1u);
  reg.record_e2e(ClassId{0}, 0.2);
  reg.record_e2e(ClassId{0}, 0.4);
  EXPECT_DOUBLE_EQ(reg.e2e(ClassId{0}).mean(), 0.3);
}

TEST(MetricsRegistry, ResetPeriodKeepsRateMeters) {
  MetricsRegistry reg(1, 1);
  for (int i = 0; i < 100; ++i) {
    reg.record_start(ServiceId{0}, ClassId{0}, i * 0.01);
  }
  reg.record_ingress(ClassId{0}, 0.5);
  reg.reset_period();
  EXPECT_EQ(reg.stats(ServiceId{0}, ClassId{0}).started, 0u);
  EXPECT_EQ(reg.ingress_count(ClassId{0}), 0u);
  EXPECT_EQ(reg.e2e(ClassId{0}).count(), 0u);
  // The service rate meter survives the period reset.
  EXPECT_GT(reg.service_rate(ServiceId{0}, 1.0), 0.0);
}

TEST(MetricsRegistry, BadIdsThrow) {
  MetricsRegistry reg(1, 1);
  EXPECT_THROW(reg.record_start(ServiceId{5}, ClassId{0}, 0.0),
               std::out_of_range);
  EXPECT_THROW(reg.record_ingress(ClassId{3}, 0.0), std::out_of_range);
  EXPECT_THROW(reg.e2e(ClassId{}), std::out_of_range);
}

TEST(MetricsRegistry, OnlyHostedServicesHaveCells) {
  // Services 0 and 2 of 3 are hosted here; service 1 runs elsewhere.
  MetricsRegistry reg(3, 2, std::vector<ServiceId>{ServiceId{2}, ServiceId{0}});
  reg.record_start(ServiceId{2}, ClassId{1}, 0.0);
  reg.record_end(ServiceId{2}, ClassId{1}, 0.05, 0.01);
  reg.record_start(ServiceId{0}, ClassId{0}, 0.0);
  EXPECT_EQ(reg.stats(ServiceId{2}, ClassId{1}).completed, 1u);
  EXPECT_DOUBLE_EQ(reg.stats(ServiceId{2}, ClassId{1}).service.mean(), 0.01);
  EXPECT_EQ(reg.stats(ServiceId{2}, ClassId{0}).started, 0u);
  EXPECT_EQ(reg.stats(ServiceId{0}, ClassId{0}).started, 1u);
  EXPECT_EQ(reg.inflight(ServiceId{0}), 1u);
  EXPECT_GT(reg.service_rate(ServiceId{2}, 0.5), 0.0);

  // The non-hosted service reads as empty and refuses recording.
  const RequestStats empty = reg.stats(ServiceId{1}, ClassId{1});
  EXPECT_EQ(empty.started, 0u);
  EXPECT_EQ(empty.completed, 0u);
  EXPECT_EQ(empty.latency.count(), 0u);
  EXPECT_EQ(reg.inflight(ServiceId{1}), 0u);
  EXPECT_EQ(reg.service_rate(ServiceId{1}, 0.5), 0.0);
  EXPECT_THROW(reg.record_start(ServiceId{1}, ClassId{0}, 0.0),
               std::out_of_range);
  EXPECT_THROW(reg.record_end(ServiceId{1}, ClassId{0}, 0.05),
               std::out_of_range);
  // Ids outside the application still throw on reads too.
  EXPECT_THROW(static_cast<void>(reg.stats(ServiceId{3}, ClassId{0})),
               std::out_of_range);
  EXPECT_THROW(static_cast<void>(reg.stats(ServiceId{1}, ClassId{2})),
               std::out_of_range);

  // A period reset clears hosted cells only; the class-level signals are
  // unaffected by hosting.
  reg.record_ingress(ClassId{1}, 0.0);
  EXPECT_EQ(reg.ingress_count(ClassId{1}), 1u);
  reg.reset_period();
  EXPECT_EQ(reg.stats(ServiceId{2}, ClassId{1}).completed, 0u);
  EXPECT_EQ(reg.ingress_count(ClassId{1}), 0u);
}

TEST(MetricsRegistry, BadHostedListThrows) {
  EXPECT_THROW(MetricsRegistry(2, 1, std::vector<ServiceId>{ServiceId{2}}),
               std::invalid_argument);
  EXPECT_THROW(
      MetricsRegistry(2, 1, std::vector<ServiceId>{ServiceId{1}, ServiceId{1}}),
      std::invalid_argument);
}

TEST(SampleStore, AddAndRead) {
  SampleStore store(2, 2, 2, 4);
  LoadSample s;
  s.rps = 100.0;
  s.mean_latency = 0.01;
  store.add(ServiceId{1}, ClassId{0}, ClusterId{1}, s);
  EXPECT_EQ(store.sample_count(ServiceId{1}, ClassId{0}, ClusterId{1}), 1u);
  EXPECT_EQ(store.sample_count(ServiceId{0}, ClassId{0}, ClusterId{0}), 0u);
  const auto samples = store.samples(ServiceId{1}, ClassId{0}, ClusterId{1});
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].rps, 100.0);
}

TEST(SampleStore, RingEvictsOldest) {
  SampleStore store(1, 1, 1, 3);
  for (int i = 0; i < 5; ++i) {
    LoadSample s;
    s.time = i;
    store.add(ServiceId{0}, ClassId{0}, ClusterId{0}, s);
  }
  const auto samples = store.samples(ServiceId{0}, ClassId{0}, ClusterId{0});
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_DOUBLE_EQ(samples[0].time, 2.0);  // oldest retained
  EXPECT_DOUBLE_EQ(samples[2].time, 4.0);
}

TEST(SampleStore, Clear) {
  SampleStore store(1, 1, 1, 3);
  store.add(ServiceId{0}, ClassId{0}, ClusterId{0}, LoadSample{});
  store.clear();
  EXPECT_EQ(store.sample_count(ServiceId{0}, ClassId{0}, ClusterId{0}), 0u);
}

TEST(TraceCollector, DisabledByDefaultCapacity) {
  TraceCollector collector(0);
  EXPECT_FALSE(collector.enabled());
  collector.record(Span{});
  EXPECT_EQ(collector.size(), 0u);
}

TEST(TraceCollector, RecordsAndEvicts) {
  TraceCollector collector(3);
  for (int i = 0; i < 5; ++i) {
    Span span;
    span.request = RequestId{static_cast<std::uint32_t>(i)};
    span.start_time = i;
    collector.record(span);
  }
  EXPECT_EQ(collector.size(), 3u);
  EXPECT_EQ(collector.total_recorded(), 5u);
  std::vector<double> starts;
  collector.for_each([&](const Span& s) { starts.push_back(s.start_time); });
  EXPECT_EQ(starts, (std::vector<double>{2.0, 3.0, 4.0}));
}

TEST(TraceCollector, SpansForRequest) {
  TraceCollector collector(10);
  for (int i = 0; i < 6; ++i) {
    Span span;
    span.request = RequestId{static_cast<std::uint32_t>(i % 2)};
    span.call_node = static_cast<std::size_t>(i);
    collector.record(span);
  }
  const auto spans = collector.spans_for(RequestId{0});
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].call_node, 0u);
  EXPECT_EQ(spans[2].call_node, 4u);
}

TEST(TraceCollector, Clear) {
  TraceCollector collector(4);
  collector.record(Span{});
  collector.clear();
  EXPECT_EQ(collector.size(), 0u);
}

TEST(Span, DurationAndExclusive) {
  Span span;
  span.start_time = 1.0;
  span.end_time = 1.5;
  span.exclusive_time = 0.2;
  EXPECT_DOUBLE_EQ(span.duration(), 0.5);
  EXPECT_LT(span.exclusive_time, span.duration());
}

}  // namespace
}  // namespace slate

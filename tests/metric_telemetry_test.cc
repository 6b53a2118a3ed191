#include "metric/telemetry.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace harmony::metric {
namespace {

// The registry is process-global; each test uses distinct instrument
// names (or resets) so the suite stays order-independent.

TEST(Counter, SumsAcrossThreads) {
  Counter& c = telemetry_counter("test.counter_threads");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), uint64_t{kThreads} * kAddsPerThread);
}

TEST(Counter, AddAndReset) {
  Counter& c = telemetry_counter("test.counter_add");
  c.reset();
  c.add(5);
  c.add(7);
  EXPECT_EQ(c.value(), 12u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddRecordMax) {
  Gauge& g = telemetry_gauge("test.gauge");
  g.reset();
  g.set(10);
  EXPECT_EQ(g.value(), 10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.record_max(5);  // below current: no change
  EXPECT_EQ(g.value(), 7);
  g.record_max(42);
  EXPECT_EQ(g.value(), 42);
}

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);   // [1,2)
  EXPECT_EQ(Histogram::bucket_index(2), 2u);   // [2,4)
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);   // [4,8)
  EXPECT_EQ(Histogram::bucket_index(1023), 10u);
  EXPECT_EQ(Histogram::bucket_index(1024), 11u);
  // Overflow collapses into the final bucket.
  EXPECT_EQ(Histogram::bucket_index(~uint64_t{0}), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_bound(3), 7u);
}

TEST(Histogram, CountSumPercentile) {
  Histogram& h = telemetry_histogram("test.histogram");
  h.reset();
  EXPECT_EQ(h.percentile(0.5), 0u);  // empty
  for (uint64_t v : {1u, 2u, 3u, 100u, 1000u}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1106u);
  // Nearest-rank resolves to the containing bucket's upper bound:
  // p50 -> third value (3, bucket [2,4), upper bound 3).
  EXPECT_EQ(h.percentile(0.5), 3u);
  // p100 -> 1000, bucket [512,1024), upper bound 1023.
  EXPECT_EQ(h.percentile(1.0), 1023u);
  // p0 -> smallest, bucket [1,2).
  EXPECT_EQ(h.percentile(0.0), 1u);
}

TEST(Telemetry, DisableMakesRecordingNoOp) {
  Counter& c = telemetry_counter("test.disabled_counter");
  Gauge& g = telemetry_gauge("test.disabled_gauge");
  Histogram& h = telemetry_histogram("test.disabled_histogram");
  c.reset();
  g.reset();
  h.reset();
  set_telemetry_enabled(false);
  c.increment();
  g.set(99);
  h.record(7);
  set_telemetry_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  c.increment();
  EXPECT_EQ(c.value(), 1u);
}

TEST(Telemetry, InstrumentAddressesAreStable) {
  Counter& first = telemetry_counter("test.stable");
  // Force map churn with more instruments.
  for (int i = 0; i < 100; ++i) {
    telemetry_counter("test.stable_churn_" + std::to_string(i));
  }
  EXPECT_EQ(&first, &telemetry_counter("test.stable"));
}

TEST(Telemetry, ReleaseDestroysOnTheLastReference) {
  Telemetry& registry = Telemetry::instance();
  // Two owners of the same series (say, two routers' domain 1).
  telemetry_counter("release.epochs_total").add(2);
  telemetry_counter("release.epochs_total");
  telemetry_histogram("release.epoch_us").record(5);
  registry.release_counter("release.epochs_total");
  registry.release_histogram("release.epoch_us");
  std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("harmony_release_epochs_total 2"), std::string::npos);
  EXPECT_EQ(text.find("harmony_release_epoch_us"), std::string::npos);
  registry.release_counter("release.epochs_total");
  text = registry.render_prometheus();
  EXPECT_EQ(text.find("harmony_release_epochs_total"), std::string::npos);
  // A fresh lookup starts from zero; releasing an unknown name is a no-op.
  EXPECT_EQ(telemetry_counter("release.epochs_total").value(), 0u);
  registry.release_counter("release.epochs_total");
  registry.release_counter("release.never_registered");
}

TEST(Telemetry, PrometheusRendering) {
  telemetry_counter("render.requests_total").reset();
  telemetry_counter("render.requests_total").add(3);
  telemetry_gauge("render.depth").set(5);
  telemetry_histogram("render.latency_us").reset();
  telemetry_histogram("render.latency_us").record(6);
  const std::string text = Telemetry::instance().render_prometheus();
  // Dotted names map to underscores under the harmony_ prefix.
  EXPECT_NE(text.find("# TYPE harmony_render_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("harmony_render_requests_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE harmony_render_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("harmony_render_depth 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE harmony_render_latency_us histogram"),
            std::string::npos);
  // 6 lands in bucket [4,8), cumulative count visible at le="7".
  EXPECT_NE(text.find("harmony_render_latency_us_bucket{le=\"7\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("harmony_render_latency_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("harmony_render_latency_us_sum 6"), std::string::npos);
  EXPECT_NE(text.find("harmony_render_latency_us_count 1"), std::string::npos);
}

TEST(Telemetry, JsonRendering) {
  telemetry_counter("json.hits_total").reset();
  telemetry_counter("json.hits_total").add(2);
  const std::string text = Telemetry::instance().render_json();
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("\"json.hits_total\":2"), std::string::npos);
  EXPECT_NE(text.find("\"gauges\""), std::string::npos);
  EXPECT_NE(text.find("\"histograms\""), std::string::npos);
}

TEST(TraceBuffer, DisabledByDefaultAndScopedSpanRespects) {
  TraceBuffer& tb = TraceBuffer::instance();
  tb.clear();
  tb.set_enabled(false);
  { ScopedSpan span("test.noop"); }
  EXPECT_EQ(tb.total_recorded(), 0u);
  tb.set_enabled(true);
  { ScopedSpan span("test.recorded"); }
  tb.set_enabled(false);
  EXPECT_EQ(tb.total_recorded(), 1u);
  auto spans = tb.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "test.recorded");
}

TEST(TraceBuffer, RingKeepsNewestAndRendersChromeJson) {
  TraceBuffer& tb = TraceBuffer::instance();
  tb.clear();
  tb.set_enabled(true);
  for (uint64_t i = 0; i < 20000; ++i) {
    tb.record("test.ring", i, 1);
  }
  tb.set_enabled(false);
  EXPECT_EQ(tb.total_recorded(), 20000u);
  auto spans = tb.snapshot();
  ASSERT_EQ(spans.size(), 16384u);  // ring capacity
  // Oldest-first, ending at the newest record.
  EXPECT_EQ(spans.front().ts_us, 20000u - 16384u);
  EXPECT_EQ(spans.back().ts_us, 19999u);
  tb.clear();
  tb.set_enabled(true);
  tb.record("test.json", 10, 5);
  tb.set_enabled(false);
  const std::string json = tb.render_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.json\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":10"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5"), std::string::npos);
  tb.clear();
}

}  // namespace
}  // namespace harmony::metric

// Observability layer tests: counter/histogram exactness under concurrent
// updates, registry handle stability, disabled-path inertness, span
// nesting, Chrome-trace JSON well-formedness (round-tripped through the
// strict io::Json parser), and the StageStats reduction helpers.
#include "obs/registry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/stage_stats.h"
#include "obs/trace.h"

namespace decaylib::obs {
namespace {

// Every test here toggles the process-global enable flag; restore the
// default (off) on exit so test order never matters.
class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetEnabled(false);
    TraceSink::Global().Stop();
    TraceSink::Global().Clear();
  }
};

TEST_F(ObsTest, CounterExactUnderConcurrency) {
  SetEnabled(true);
  Counter& counter = Registry::Global().GetCounter("test.concurrent_counter");
  counter.Reset();
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&counter] {
      for (int i = 0; i < kAdds; ++i) counter.Add();
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(counter.value(), static_cast<long long>(kThreads) * kAdds);
}

TEST_F(ObsTest, HistogramExactCountAndBucketsUnderConcurrency) {
  SetEnabled(true);
  Histogram& histogram = Registry::Global().GetHistogram(
      "test.concurrent_histogram", std::vector<double>{1.0, 10.0, 100.0});
  histogram.Reset();
  constexpr int kThreads = 8;
  constexpr int kObs = 4000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&histogram, t] {
      for (int i = 0; i < kObs; ++i) {
        // Deterministic spread over all four buckets.
        histogram.Observe(0.5 + 40.0 * ((t + i) % 4));
      }
    });
  }
  for (std::thread& t : pool) t.join();

  const long long total = static_cast<long long>(kThreads) * kObs;
  EXPECT_EQ(histogram.count(), total);
  const std::vector<long long> buckets = histogram.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  long long bucket_sum = 0;
  for (const long long b : buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, total);
  EXPECT_EQ(buckets[0], total / 4);       // 0.5        <= 1
  EXPECT_EQ(buckets[1], 0);               // nothing in (1, 10]
  EXPECT_EQ(buckets[2], total / 2);       // 40.5, 80.5 <= 100
  EXPECT_EQ(buckets[3], total / 4);       // 120.5 overflows
  EXPECT_DOUBLE_EQ(histogram.min(), 0.5);
  EXPECT_DOUBLE_EQ(histogram.max(), 120.5);
}

TEST_F(ObsTest, RegistryReturnsStableHandles) {
  Counter& a = Registry::Global().GetCounter("test.handle");
  Counter& b = Registry::Global().GetCounter("test.handle");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = Registry::Global().GetHistogram("test.handle_histogram");
  Histogram& h2 = Registry::Global().GetHistogram("test.handle_histogram");
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h1.bounds().size(), DefaultLatencyBoundsMs().size());
}

TEST_F(ObsTest, DisabledInstrumentsStayInert) {
  SetEnabled(false);
  Counter& counter = Registry::Global().GetCounter("test.disabled_counter");
  Gauge& gauge = Registry::Global().GetGauge("test.disabled_gauge");
  Histogram& histogram =
      Registry::Global().GetHistogram("test.disabled_histogram");
  counter.Reset();
  gauge.Reset();
  histogram.Reset();
  counter.Add(7);
  gauge.Set(3.5);
  histogram.Observe(1.0);
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.count(), 0);

  // A span constructed disabled records nothing even into an active sink,
  // yet still times its region: Finish() is the stage timer either way.
  TraceSink::Global().Start();
  { Span span("disabled_span"); }
  EXPECT_EQ(TraceSink::Global().EventCount(), 0u);
  {
    Span span("disabled_timed", &histogram);
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
    EXPECT_GT(span.Finish(), 0.0);
    EXPECT_EQ(span.Finish(), 0.0);
  }
  EXPECT_EQ(TraceSink::Global().EventCount(), 0u);
  EXPECT_EQ(histogram.count(), 0);
}

TEST_F(ObsTest, DefaultLatencyBoundsAreAscending) {
  const std::span<const double> bounds = DefaultLatencyBoundsMs();
  ASSERT_GT(bounds.size(), 1u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST_F(ObsTest, MetricsJsonRoundTripsThroughStrictParser) {
  SetEnabled(true);
  Registry::Global().GetCounter("test.json_counter").Reset();
  Registry::Global().GetCounter("test.json_counter").Add(5);
  Histogram& histogram = Registry::Global().GetHistogram("test.json_histogram");
  histogram.Reset();
  histogram.Observe(0.25);
  histogram.Observe(2500.0);

  const std::string dump = Registry::Global().ToJson().Dump();
  const core::StatusOr<io::Json> parsed = io::Json::Parse(dump);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const io::Json* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  const io::Json* counter = counters->Find("test.json_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->AsNumber(), 5.0);
  const io::Json* histograms = parsed->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const io::Json* entry = histograms->Find("test.json_histogram");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->Find("count")->AsNumber(), 2.0);
  EXPECT_EQ(entry->Find("min")->AsNumber(), 0.25);
  EXPECT_EQ(entry->Find("max")->AsNumber(), 2500.0);
  const io::Json* buckets = entry->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->is_array());
  // bounds + overflow entries; bucket counts must sum to the total count.
  EXPECT_EQ(buckets->Items().size(), histogram.bounds().size() + 1);
  double bucket_sum = 0.0;
  for (const io::Json& b : buckets->Items()) {
    bucket_sum += b.Find("count")->AsNumber();
  }
  EXPECT_EQ(bucket_sum, 2.0);
  // The overflow bucket's bound serialises as the string "+inf" (io::Json
  // refuses non-finite numbers).
  EXPECT_EQ(buckets->Items().back().Find("le")->AsString(), "+inf");
}

TEST_F(ObsTest, QuantileFromSortedInterpolatesOrderStatistics) {
  const std::vector<double> sorted = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(QuantileFromSorted(sorted, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(QuantileFromSorted(sorted, 0.5), 30.0);
  // rank 0.9 * 4 = 3.6: interpolate between the 4th and 5th statistics.
  EXPECT_DOUBLE_EQ(QuantileFromSorted(sorted, 0.9), 46.0);
  EXPECT_DOUBLE_EQ(QuantileFromSorted(sorted, 1.0), 50.0);

  const std::vector<double> one = {4.0};
  EXPECT_DOUBLE_EQ(QuantileFromSorted(one, 0.5), 4.0);
  EXPECT_DOUBLE_EQ(QuantileFromSorted({}, 0.5), 0.0);

  EXPECT_DOUBLE_EQ(QuantileRank(0.5, 1), 0.0);
  EXPECT_DOUBLE_EQ(QuantileRank(0.5, 11), 5.0);
}

TEST_F(ObsTest, HistogramQuantileEstimateInterpolatesWithinBucket) {
  SetEnabled(true);
  const std::vector<double> single_bound = {10.0};
  Histogram& clamped =
      Registry::Global().GetHistogram("test.quantile_clamped", single_bound);
  clamped.Reset();
  clamped.Observe(4.0);
  // One sample: the in-bucket midpoint (5.0) clamps to the observed value.
  EXPECT_DOUBLE_EQ(clamped.QuantileEstimate(0.5), 4.0);

  const std::vector<double> bounds = {10.0, 20.0};
  Histogram& uniform =
      Registry::Global().GetHistogram("test.quantile_uniform", bounds);
  uniform.Reset();
  EXPECT_DOUBLE_EQ(uniform.QuantileEstimate(0.5), 0.0);  // empty
  // 0.5, 1.5, ..., 9.5: ten samples, all strictly inside the [0, 10)
  // bucket, so rank r maps to (r + 0.5) / 10 of the bucket width.
  for (int v = 0; v < 10; ++v) uniform.Observe(v + 0.5);
  EXPECT_DOUBLE_EQ(uniform.QuantileEstimate(0.5), 5.0);
  EXPECT_DOUBLE_EQ(uniform.QuantileEstimate(0.9), 8.6);
  EXPECT_DOUBLE_EQ(uniform.QuantileEstimate(0.99), 9.41);
}

TEST_F(ObsTest, MetricsJsonEmitsPercentilesForNonEmptyHistograms) {
  SetEnabled(true);
  Histogram& histogram =
      Registry::Global().GetHistogram("test.json_percentiles");
  histogram.Reset();
  histogram.Observe(1.0);
  histogram.Observe(2.0);
  const io::Json doc = Registry::Global().ToJson();
  const io::Json* entry =
      doc.Find("histograms")->Find("test.json_percentiles");
  ASSERT_NE(entry, nullptr);
  for (const char* key : {"p50", "p90", "p99"}) {
    const io::Json* p = entry->Find(key);
    ASSERT_NE(p, nullptr) << key;
    EXPECT_GE(p->AsNumber(), 1.0);
    EXPECT_LE(p->AsNumber(), 2.0);
  }
  histogram.Reset();
  const io::Json empty_doc = Registry::Global().ToJson();
  const io::Json* empty_entry =
      empty_doc.Find("histograms")->Find("test.json_percentiles");
  ASSERT_NE(empty_entry, nullptr);
  EXPECT_EQ(empty_entry->Find("p50"), nullptr);  // inf sentinels stay out
}

TEST_F(ObsTest, CounterValuesSnapshotsInNameOrder) {
  SetEnabled(true);
  Registry::Global().GetCounter("test.values_a").Reset();
  Registry::Global().GetCounter("test.values_b").Reset();
  Registry::Global().GetCounter("test.values_a").Add(2);
  Registry::Global().GetCounter("test.values_b").Add(9);
  const std::map<std::string, long long> values =
      Registry::Global().CounterValues();
  EXPECT_EQ(values.at("test.values_a"), 2);
  EXPECT_EQ(values.at("test.values_b"), 9);
}

TEST_F(ObsTest, SpanNestingProducesContainedWellFormedEvents) {
  SetEnabled(true);
  TraceSink& sink = TraceSink::Global();
  sink.Start();
  {
    Span outer("outer", nullptr, "test");
    {
      Span inner("inner", nullptr, "test");
    }
  }
  sink.Stop();
  const std::vector<TraceEvent> events = sink.Events();
  ASSERT_EQ(events.size(), 2u);
  // Spans end in nesting order: inner finishes (and records) first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.tid, outer.tid);
  // Containment: the inner slice lies inside the outer one.
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);

  // The exported document is well-formed Chrome trace JSON: every event
  // carries name/cat/ph/ts/dur/pid/tid and ph is the complete-event "X".
  const core::StatusOr<io::Json> parsed = io::Json::Parse(sink.ToJson().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const io::Json* trace_events = parsed->Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());
  ASSERT_EQ(trace_events->Items().size(), 2u);
  for (const io::Json& event : trace_events->Items()) {
    for (const char* key : {"name", "cat", "ph", "ts", "dur", "pid", "tid"}) {
      EXPECT_NE(event.Find(key), nullptr) << key;
    }
    EXPECT_EQ(event.Find("ph")->AsString(), "X");
    EXPECT_GE(event.Find("dur")->AsNumber(), 0.0);
  }
  EXPECT_EQ(parsed->Find("displayTimeUnit")->AsString(), "ms");
}

TEST_F(ObsTest, SpanObservesHistogramAndFinishIsIdempotent) {
  SetEnabled(true);
  Histogram& histogram = Registry::Global().GetHistogram("test.span_histogram");
  histogram.Reset();
  Span span("timed", &histogram);
  const double ms = span.Finish();
  EXPECT_GE(ms, 0.0);
  EXPECT_EQ(span.Finish(), 0.0);  // second Finish is a no-op
  EXPECT_EQ(histogram.count(), 1);
}

TEST_F(ObsTest, TraceSinkWriteFileParsesBack) {
  SetEnabled(true);
  TraceSink& sink = TraceSink::Global();
  sink.Start();
  { Span span("file_span", nullptr, "test"); }
  sink.Stop();
  const std::string path = "obs_test_trace.json";
  ASSERT_TRUE(sink.WriteFile(path).ok());
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(static_cast<bool>(in));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  const core::StatusOr<io::Json> parsed = io::Json::Parse(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("traceEvents")->Items().size(), 1u);
}

TEST(StageStatsTest, RecordMergeAndTotals) {
  StageStats stats;
  EXPECT_TRUE(stats.empty());
  stats.Record("build", 2.0);
  stats.Record("build", 4.0);
  stats.Record("task", 1.0);
  ASSERT_EQ(stats.stages.size(), 2u);
  const StageStats::Stage* build = stats.Find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->count, 2);
  EXPECT_DOUBLE_EQ(build->total_ms, 6.0);
  EXPECT_DOUBLE_EQ(build->min_ms, 2.0);
  EXPECT_DOUBLE_EQ(build->max_ms, 4.0);
  EXPECT_DOUBLE_EQ(build->MeanMs(), 3.0);
  EXPECT_DOUBLE_EQ(stats.TotalMs(), 7.0);

  StageStats other;
  other.Record("task", 3.0);
  other.Record("checkpoint", 0.5);
  stats.Merge(other);
  const StageStats::Stage* task = stats.Find("task");
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->count, 2);
  EXPECT_DOUBLE_EQ(task->total_ms, 4.0);
  EXPECT_DOUBLE_EQ(task->min_ms, 1.0);
  EXPECT_DOUBLE_EQ(task->max_ms, 3.0);
  EXPECT_NE(stats.Find("checkpoint"), nullptr);
  EXPECT_EQ(stats.Find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(stats.TotalMs(), 10.5);
}

}  // namespace
}  // namespace decaylib::obs

// Copyright 2026 The claks Authors.
//
// Unit tests for the metrics registry: counter/gauge/histogram exactness
// serially and under thread contention, the log-bucket percentile bound
// (for a true value v the estimate e satisfies v <= e < 2v), the
// recording kill switch, labeled families, snapshot lookups and the
// RenderText/RenderJson expositions (golden outputs on a small
// registry). Tests use their own MetricsRegistry instance so the
// process-wide Default() registry never leaks state between tests.

#include "observability/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace claks {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  // Every test must leave the process-wide recording switch on: it gates
  // all registries, including Default()'s production metrics.
  void TearDown() override { MetricsRegistry::SetRecording(true); }

  MetricsRegistry registry_;
};

TEST_F(MetricsTest, CounterCountsExactlySerial) {
  Counter& counter = registry_.GetCounter("claks_test_a_total", "A");
  EXPECT_EQ(counter.Value(), 0u);
  counter.Inc();
  counter.Inc(41);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST_F(MetricsTest, CounterSumsAcrossContendingThreads) {
  Counter& counter = registry_.GetCounter("claks_test_a_total", "A");
  constexpr size_t kThreads = 8;
  constexpr size_t kIncsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (size_t i = 0; i < kIncsPerThread; ++i) counter.Inc();
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Exactness, not approximation: every Inc is a relaxed add to exactly
  // one slot and Value() sums the slots.
  EXPECT_EQ(counter.Value(), kThreads * kIncsPerThread);
}

TEST_F(MetricsTest, GaugeSetAddSub) {
  Gauge& gauge = registry_.GetGauge("claks_test_b_depth", "B");
  EXPECT_EQ(gauge.Value(), 0);
  gauge.Set(7);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Add(5);
  gauge.Sub(13);
  EXPECT_EQ(gauge.Value(), -1);
}

TEST_F(MetricsTest, RecordingOffDropsEveryWrite) {
  Counter& counter = registry_.GetCounter("claks_test_a_total", "A");
  Gauge& gauge = registry_.GetGauge("claks_test_b_depth", "B");
  Histogram& histogram = registry_.GetHistogram("claks_test_c_us", "C");

  MetricsRegistry::SetRecording(false);
  EXPECT_FALSE(MetricsRegistry::recording());
  counter.Inc(100);
  gauge.Set(100);
  histogram.Observe(100);

  MetricsRegistry::SetRecording(true);
  EXPECT_TRUE(MetricsRegistry::recording());
  counter.Inc();
  gauge.Add(2);
  histogram.Observe(3);

  EXPECT_EQ(counter.Value(), 1u);
  EXPECT_EQ(gauge.Value(), 2);
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 3u);
  EXPECT_EQ(snap.max, 3u);
}

TEST_F(MetricsTest, GetReturnsSameObjectForSameName) {
  Counter& first = registry_.GetCounter("claks_test_a_total", "A");
  Counter& again = registry_.GetCounter("claks_test_a_total", "A");
  EXPECT_EQ(&first, &again);
  // Distinct names are distinct objects (and registries are isolated).
  Counter& other = registry_.GetCounter("claks_test_d_total", "D");
  EXPECT_NE(&first, &other);
  MetricsRegistry second;
  EXPECT_NE(&second.GetCounter("claks_test_a_total", "A"), &first);
}

TEST_F(MetricsTest, HistogramCountSumMaxExact) {
  Histogram& histogram = registry_.GetHistogram("claks_test_c_us", "C");
  for (uint64_t value : {0u, 1u, 5u, 5u, 1000u}) histogram.Observe(value);
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 1011u);
  EXPECT_EQ(snap.max, 1000u);
}

TEST_F(MetricsTest, HistogramBucketPlacementIsBitWidth) {
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);
  EXPECT_EQ(Histogram::BucketOf(~uint64_t{0}), 64u);

  Histogram& histogram = registry_.GetHistogram("claks_test_c_us", "C");
  histogram.Observe(0);
  histogram.Observe(3);
  histogram.Observe(1024);
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[11], 1u);
}

TEST_F(MetricsTest, PercentileWithinLogBucketBoundOfSortedReference) {
  Histogram& histogram = registry_.GetHistogram("claks_test_c_us", "C");
  // Deterministic pseudo-random latencies (Knuth multiplicative hash).
  std::vector<uint64_t> values;
  values.reserve(1000);
  for (uint64_t i = 0; i < 1000; ++i) {
    values.push_back((i * 2654435761u) % 100000);
  }
  for (uint64_t value : values) histogram.Observe(value);
  std::sort(values.begin(), values.end());

  HistogramSnapshot snap = histogram.Snapshot();
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    // Same rank convention as the implementation: 1-based ceil(q * n).
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(values.size())));
    if (rank == 0) rank = 1;
    uint64_t reference = values[rank - 1];
    uint64_t estimate = snap.Percentile(q);
    // The log-2 bucket bound: v <= e < 2v, never above the observed max.
    EXPECT_GE(estimate, reference) << "q=" << q;
    if (reference > 0) {
      EXPECT_LT(estimate, 2 * reference) << "q=" << q;
    }
    EXPECT_LE(estimate, snap.max) << "q=" << q;
  }
  EXPECT_EQ(snap.p50, snap.Percentile(0.5));
  EXPECT_EQ(snap.p90, snap.Percentile(0.9));
  EXPECT_EQ(snap.p99, snap.Percentile(0.99));
}

TEST_F(MetricsTest, HistogramConcurrentObservesKeepCountAndSum) {
  Histogram& histogram = registry_.GetHistogram("claks_test_c_us", "C");
  constexpr size_t kThreads = 8;
  constexpr size_t kObservationsPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (size_t i = 0; i < kObservationsPerThread; ++i) {
        histogram.Observe(7);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kObservationsPerThread);
  EXPECT_EQ(snap.sum, 7 * kThreads * kObservationsPerThread);
  EXPECT_EQ(snap.max, 7u);
  EXPECT_EQ(snap.p99, 7u);
}

TEST_F(MetricsTest, FamilySeriesAreStableAndSnapshotSumsThem) {
  CounterFamily& family = registry_.GetCounterFamily(
      "claks_test_q_total", "Q", {"method"});
  Counter& stream = family.With({"stream"});
  Counter& enumerate = family.With({"enumerate"});
  EXPECT_NE(&stream, &enumerate);
  EXPECT_EQ(&family.With({"stream"}), &stream);
  stream.Inc(2);
  enumerate.Inc();

  MetricsSnapshot snap = registry_.Snapshot();
  // CounterValue over a family sums every series.
  EXPECT_EQ(snap.CounterValue("claks_test_q_total"), 3u);
  size_t series_seen = 0;
  for (const MetricSeries& series : snap.series) {
    if (series.name != "claks_test_q_total") continue;
    ++series_seen;
    ASSERT_EQ(series.labels.size(), 1u);
    EXPECT_EQ(series.labels[0].first, "method");
  }
  EXPECT_EQ(series_seen, 2u);
}

TEST_F(MetricsTest, SnapshotLookupsByNameWithAbsentDefaults) {
  registry_.GetCounter("claks_test_a_total", "A").Inc(5);
  registry_.GetGauge("claks_test_b_depth", "B").Set(-3);
  registry_.GetHistogram("claks_test_c_us", "C").Observe(9);

  MetricsSnapshot snap = registry_.Snapshot();
  EXPECT_EQ(snap.CounterValue("claks_test_a_total"), 5u);
  EXPECT_EQ(snap.GaugeValue("claks_test_b_depth"), -3);
  EXPECT_EQ(snap.HistogramValue("claks_test_c_us").count, 1u);
  EXPECT_EQ(snap.HistogramValue("claks_test_c_us").sum, 9u);
  // Absent names resolve to zero values, not errors.
  EXPECT_EQ(snap.CounterValue("claks_test_missing_total"), 0u);
  EXPECT_EQ(snap.GaugeValue("claks_test_missing_depth"), 0);
  EXPECT_EQ(snap.HistogramValue("claks_test_missing_us").count, 0u);
}

TEST_F(MetricsTest, RenderTextGolden) {
  registry_.GetCounter("claks_test_a_total", "A counter").Inc(3);
  registry_.GetGauge("claks_test_b_depth", "B gauge").Set(-2);
  registry_.GetHistogram("claks_test_c_us", "C histogram").Observe(3);
  CounterFamily& family = registry_.GetCounterFamily(
      "claks_test_q_total", "Q family", {"method"});
  family.With({"stream"}).Inc(2);
  family.With({"enumerate"}).Inc(1);

  EXPECT_EQ(registry_.RenderText(),
            "# HELP claks_test_a_total A counter\n"
            "# TYPE claks_test_a_total counter\n"
            "claks_test_a_total 3\n"
            "# HELP claks_test_b_depth B gauge\n"
            "# TYPE claks_test_b_depth gauge\n"
            "claks_test_b_depth -2\n"
            "# HELP claks_test_c_us C histogram\n"
            "# TYPE claks_test_c_us summary\n"
            "claks_test_c_us{quantile=\"0.5\"} 3\n"
            "claks_test_c_us{quantile=\"0.9\"} 3\n"
            "claks_test_c_us{quantile=\"0.99\"} 3\n"
            "claks_test_c_us{quantile=\"1\"} 3\n"
            "claks_test_c_us_sum 3\n"
            "claks_test_c_us_count 1\n"
            "# HELP claks_test_q_total Q family\n"
            "# TYPE claks_test_q_total counter\n"
            "claks_test_q_total{method=\"enumerate\"} 1\n"
            "claks_test_q_total{method=\"stream\"} 2\n");
}

TEST_F(MetricsTest, RenderJsonGolden) {
  registry_.GetCounter("claks_test_a_total", "A").Inc(3);
  registry_.GetGauge("claks_test_b_depth", "B").Set(-2);

  EXPECT_EQ(registry_.RenderJson(),
            "{\"metrics\":["
            "{\"name\":\"claks_test_a_total\",\"labels\":{},"
            "\"kind\":\"counter\",\"value\":3},"
            "{\"name\":\"claks_test_b_depth\",\"labels\":{},"
            "\"kind\":\"gauge\",\"value\":-2}"
            "]}");
}

}  // namespace
}  // namespace claks

#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/json_parse.h"
#include "tests/obs/json_test_util.h"

namespace skymr::obs {
namespace {

// ---------------------------------------------------------------------
// QuantileSketch: rank-error property.
// ---------------------------------------------------------------------

/// True q-quantile of `sorted` under the nearest-rank convention the
/// sketch uses: its ceil(q * n)-th value, at least the first.
double TrueQuantile(const std::vector<double>& sorted, double q) {
  const double n = static_cast<double>(sorted.size());
  const auto rank = std::max<size_t>(1, static_cast<size_t>(std::ceil(q * n)));
  return sorted[rank - 1];
}

/// Asserts the sketch estimate is within the advertised relative error
/// of the true quantile, with one extra bucket width of slack for the
/// rank convention (neighbouring order statistics may sit in adjacent
/// buckets).
void ExpectQuantileClose(const QuantileSketch& sketch,
                         std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double truth = TrueQuantile(values, q);
  const double estimate = sketch.Quantile(q);
  // 3a covers midpoint rounding plus the rank-convention slack.
  const double tolerance = 3.0 * QuantileSketch::kRelativeError * truth;
  EXPECT_NEAR(estimate, truth, tolerance)
      << "q=" << q << " truth=" << truth << " estimate=" << estimate;
}

TEST(QuantileSketchTest, UniformRankError) {
  QuantileSketch sketch;
  std::vector<double> values;
  for (int i = 1; i <= 20000; ++i) {
    values.push_back(static_cast<double>(i));
    sketch.Add(static_cast<double>(i));
  }
  EXPECT_EQ(sketch.count(), 20000u);
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    ExpectQuantileClose(sketch, values, q);
  }
  // Extremes clamp to the observed range.
  EXPECT_NEAR(sketch.Quantile(0.0), 1.0,
              3.0 * QuantileSketch::kRelativeError);
  EXPECT_NEAR(sketch.Quantile(1.0), 20000.0,
              3.0 * QuantileSketch::kRelativeError * 20000.0);
  EXPECT_GE(sketch.Quantile(0.0), sketch.min());
  EXPECT_LE(sketch.Quantile(1.0), sketch.max());
}

TEST(QuantileSketchTest, GeometricRankError) {
  // Five decades of spread: the log-bucket layout must hold its relative
  // error everywhere, not just near one scale.
  QuantileSketch sketch;
  std::vector<double> values;
  double v = 0.1;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(v);
    sketch.Add(v);
    v *= 1.012;
  }
  for (const double q : {0.5, 0.95, 0.99}) {
    ExpectQuantileClose(sketch, values, q);
  }
}

TEST(QuantileSketchTest, TwoValuesTailIsTheLarger) {
  // Nearest rank: p50 of two values is the first (rank ceil(1.0) = 1);
  // p95 and p99 are the second (rank ceil(1.9) = ceil(1.98) = 2). A job
  // wall-time sketch of two jobs must not report the faster job as its
  // tail.
  QuantileSketch sketch;
  sketch.Add(3813.0);
  sketch.Add(327.0);
  std::vector<double> values = {3813.0, 327.0};
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    ExpectQuantileClose(sketch, values, q);
  }
  const double tolerance = QuantileSketch::kRelativeError * 3813.0;
  EXPECT_NEAR(sketch.Quantile(0.5), 327.0,
              QuantileSketch::kRelativeError * 327.0);
  EXPECT_NEAR(sketch.Quantile(0.95), 3813.0, tolerance);
  EXPECT_NEAR(sketch.Quantile(0.99), 3813.0, tolerance);
  EXPECT_GT(sketch.Quantile(0.95), sketch.Quantile(0.5));
}

TEST(QuantileSketchTest, EmptyAndNonPositiveValues) {
  QuantileSketch sketch;
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(sketch.min(), 0.0);
  EXPECT_DOUBLE_EQ(sketch.max(), 0.0);

  sketch.Add(0.0);
  sketch.Add(-3.5);
  sketch.Add(std::nan(""));
  EXPECT_EQ(sketch.count(), 3u);
  EXPECT_EQ(sketch.zero_count(), 3u);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(sketch.min(), 0.0);
  EXPECT_DOUBLE_EQ(sketch.max(), 0.0);
}

TEST(QuantileSketchTest, ZerosPullMinimumToZero) {
  // Most mapper windows end empty after ComparePartitions: a sketch of
  // window sizes holds zeros first, then positives. Its minimum is 0,
  // and never above its median.
  QuantileSketch sketch;
  for (int i = 0; i < 6; ++i) {
    sketch.Add(0.0);
  }
  for (const double v : {1.0, 4.0, 9.0}) {
    sketch.Add(v);
  }
  EXPECT_DOUBLE_EQ(sketch.min(), 0.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 0.0);
  EXPECT_LE(sketch.min(), sketch.Quantile(0.5));
  EXPECT_DOUBLE_EQ(sketch.max(), 9.0);
  EXPECT_NEAR(sketch.Quantile(0.75), 1.0,
              3.0 * QuantileSketch::kRelativeError);
}

// ---------------------------------------------------------------------
// QuantileSketch: merge algebra.
// ---------------------------------------------------------------------

QuantileSketch SketchOf(const std::vector<double>& values) {
  QuantileSketch sketch;
  for (const double v : values) {
    sketch.Add(v);
  }
  return sketch;
}

TEST(QuantileSketchTest, MergeIsAssociativeBitForBit) {
  const QuantileSketch a = SketchOf({1.0, 5.0, 9.0, 0.0});
  const QuantileSketch b = SketchOf({2.0, 2.0, 700.0});
  const QuantileSketch c = SketchOf({0.004, 31.0});

  QuantileSketch left = a;   // (a + b) + c
  left.Merge(b);
  left.Merge(c);
  QuantileSketch right = b;  // a + (b + c)
  right.Merge(c);
  QuantileSketch a_first = a;
  a_first.Merge(right);

  EXPECT_EQ(left, a_first);
  for (const double q : {0.0, 0.25, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(left.Quantile(q), a_first.Quantile(q)) << "q=" << q;
  }
}

TEST(QuantileSketchTest, MergeIsCommutative) {
  const QuantileSketch a = SketchOf({1.0, 2.0, 3.0});
  const QuantileSketch b = SketchOf({100.0, 0.5});
  QuantileSketch ab = a;
  ab.Merge(b);
  QuantileSketch ba = b;
  ba.Merge(a);
  EXPECT_EQ(ab, ba);
}

TEST(QuantileSketchTest, MergeEqualsCombinedStream) {
  // Splitting one stream across tasks and merging must agree exactly
  // with having sketched the whole stream in one place — the property
  // the per-task metric sketches rely on.
  std::vector<double> all;
  std::vector<double> half1;
  std::vector<double> half2;
  for (int i = 0; i < 500; ++i) {
    const double v = 0.5 * i * i + 1.0;
    all.push_back(v);
    (i % 2 == 0 ? half1 : half2).push_back(v);
  }
  QuantileSketch merged = SketchOf(half1);
  merged.Merge(SketchOf(half2));
  EXPECT_EQ(merged, SketchOf(all));
}

// ---------------------------------------------------------------------
// MetricsRegistry.
// ---------------------------------------------------------------------

TEST(MetricsRegistryTest, CountersAndSketchesAccumulateByName) {
  MetricsRegistry registry;
  registry.Add("mr.jobs_completed", 3);
  registry.Add("mr.jobs_completed", 1);
  const double first[] = {125.0};
  const double second[] = {250.0, 500.0};
  registry.Record("mr.job_wall_us", first);
  registry.Record("mr.job_wall_us", second);
  registry.Record("mr.reduce_task_busy_us", {});

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("mr.jobs_completed"), 4);
  EXPECT_EQ(snap.sketches.at("mr.job_wall_us").count(), 3u);
  // Recording no values still creates the name, so a job without
  // reducers leaves an empty reduce sketch rather than none.
  EXPECT_EQ(snap.sketches.at("mr.reduce_task_busy_us").count(), 0u);
  EXPECT_GE(snap.uptime_seconds, 0.0);
}

TEST(MetricsRegistryTest, RecordedSketchMatchesPlainSketch) {
  MetricsRegistry registry;
  const std::vector<double> values = {0.0, 1.0, 42.0, 42.0, 9999.5};
  registry.Record("x", values);
  EXPECT_EQ(registry.Snapshot().sketches.at("x"), SketchOf(values));
}

TEST(MetricsRegistryTest, ConcurrentRecordingLosesNothing) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.Add("events", 1);
        const double value[] = {static_cast<double>(t * kPerThread + i + 1)};
        registry.Record("latency", value);
        if (i % 1000 == 0) {
          registry.Snapshot();  // Readers race the writers too.
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("events"), kThreads * kPerThread);
  EXPECT_EQ(snap.sketches.at("latency").count(),
            static_cast<uint64_t>(kThreads * kPerThread));
}

// ---------------------------------------------------------------------
// JSON export (skymr-metrics-v2).
// ---------------------------------------------------------------------

TEST(MetricsJsonTest, ExportsValidSchemaDocument) {
  MetricsRegistry registry;
  registry.Add("mr.jobs_completed", 4);
  std::vector<double> wall;
  for (int i = 1; i <= 100; ++i) {
    wall.push_back(static_cast<double>(i));
  }
  registry.Record("mr.job_wall_us", wall);

  std::ostringstream os;
  registry.WriteJson(os);
  const std::string text = os.str();
  EXPECT_EQ(testing::JsonParseError(text), "") << text;

  auto doc = ParseJson(text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->GetString("schema", ""), "skymr-metrics-v2");
  EXPECT_GE(doc->GetDouble("uptime_seconds", -1.0), 0.0);
  // The four keys and nothing else: no gauges, no sampler time series.
  EXPECT_EQ(doc->AsObject().size(), 4u);
  EXPECT_EQ(doc->Find("gauges"), nullptr);
  EXPECT_EQ(doc->Find("samples"), nullptr);

  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->GetInt("mr.jobs_completed", 0), 4);

  const JsonValue* sketches = doc->Find("sketches");
  ASSERT_NE(sketches, nullptr);
  const JsonValue* sk = sketches->Find("mr.job_wall_us");
  ASSERT_NE(sk, nullptr);
  EXPECT_EQ(sk->GetInt("count", 0), 100);
  const double p50 = sk->GetDouble("p50", 0.0);
  const double p95 = sk->GetDouble("p95", 0.0);
  const double p99 = sk->GetDouble("p99", 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_NEAR(p50, 50.0, 3.0);
  EXPECT_DOUBLE_EQ(sk->GetDouble("relative_error", 0.0),
                   QuantileSketch::kRelativeError);
}

TEST(MetricsJsonTest, WriteJsonFileRoundTrips) {
  MetricsRegistry registry;
  registry.Add("n", 1);
  const std::string path =
      ::testing::TempDir() + "/skymr_metrics_test.json";
  ASSERT_TRUE(registry.WriteJsonFile(path).ok());
  auto doc = ParseJsonFile(path);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->GetString("schema", ""), kMetricsSchemaVersion);
}

}  // namespace
}  // namespace skymr::obs

#include "src/obs/metrics.h"

#include <algorithm>
#include <chrono>
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
/// sketch uses (rank q*(n-1), rounded down — either neighbour order
/// statistic is accepted by the callers below).
double TrueQuantile(const std::vector<double>& sorted, double q) {
  const size_t rank = static_cast<size_t>(q * (sorted.size() - 1));
  return sorted[rank];
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

TEST(QuantileSketchTest, FromPartsRoundTrips) {
  const QuantileSketch original = SketchOf({0.0, 3.0, 3.0, 1e6});
  const QuantileSketch rebuilt = QuantileSketch::FromParts(
      original.buckets(), original.count(), original.sum(), original.min(),
      original.max());
  EXPECT_EQ(rebuilt, original);
  EXPECT_DOUBLE_EQ(rebuilt.Quantile(0.5), original.Quantile(0.5));
}

// ---------------------------------------------------------------------
// MetricsRegistry.
// ---------------------------------------------------------------------

TEST(MetricsRegistryTest, HandlesAreStableAndNamed) {
  MetricsRegistry registry;
  MetricsRegistry::Gauge* g = registry.gauge("mr.inflight_jobs");
  MetricsRegistry::Counter* c = registry.counter("mr.jobs_completed");
  MetricsRegistry::Sketch* s = registry.sketch("mr.job_wall_us");
  EXPECT_EQ(registry.gauge("mr.inflight_jobs"), g);
  EXPECT_EQ(registry.counter("mr.jobs_completed"), c);
  EXPECT_EQ(registry.sketch("mr.job_wall_us"), s);

  g->Set(7);
  g->Add(-2);
  c->Add(3);
  s->Record(125.0);
  s->Record(250.0);

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.gauges.at("mr.inflight_jobs"), 5);
  EXPECT_EQ(snap.counters.at("mr.jobs_completed"), 3);
  EXPECT_EQ(snap.sketches.at("mr.job_wall_us").count(), 2u);
  EXPECT_GE(snap.uptime_seconds, 0.0);
}

TEST(MetricsRegistryTest, SketchSnapshotMatchesPlainSketch) {
  MetricsRegistry registry;
  MetricsRegistry::Sketch* live = registry.sketch("x");
  QuantileSketch plain;
  for (const double v : {0.0, 1.0, 42.0, 42.0, 9999.5}) {
    live->Record(v);
    plain.Add(v);
  }
  EXPECT_EQ(live->Snapshot(), plain);
}

TEST(MetricsRegistryTest, ConcurrentRecordingLosesNothing) {
  MetricsRegistry registry;
  MetricsRegistry::Counter* counter = registry.counter("events");
  MetricsRegistry::Sketch* sketch = registry.sketch("latency");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Add(1);
        sketch->Record(static_cast<double>(t * kPerThread + i + 1));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  EXPECT_EQ(sketch->Snapshot().count(),
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(MetricsRegistryTest, ScopedGaugeDeltaRestoresAndToleratesNull) {
  MetricsRegistry registry;
  MetricsRegistry::Gauge* gauge = registry.gauge("depth");
  {
    ScopedGaugeDelta outer(gauge, 1);
    EXPECT_EQ(gauge->Value(), 1);
    {
      ScopedGaugeDelta inner(gauge, 1);
      EXPECT_EQ(gauge->Value(), 2);
    }
    EXPECT_EQ(gauge->Value(), 1);
  }
  EXPECT_EQ(gauge->Value(), 0);
  { ScopedGaugeDelta none(nullptr, 1); }  // Must not crash.
}

// ---------------------------------------------------------------------
// MetricsSampler.
// ---------------------------------------------------------------------

TEST(MetricsSamplerTest, CollectsSamplesAndStopsIdempotently) {
  MetricsRegistry registry;
  registry.gauge("mr.inflight_jobs")->Set(2);
  registry.counter("mr.jobs_completed")->Add(5);
  MetricsSampler sampler(&registry, /*period_ms=*/1);
  while (sampler.samples_taken() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.Stop();
  sampler.Stop();  // Idempotent.

  const std::vector<MetricsSample> samples = sampler.Samples();
  ASSERT_GE(samples.size(), 3u);
  EXPECT_GE(sampler.samples_taken(), samples.size());
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].uptime_seconds, samples[i - 1].uptime_seconds);
  }
  const MetricsSample& last = samples.back();
  EXPECT_EQ(last.gauges.at("mr.inflight_jobs"), 2);
  EXPECT_EQ(last.counters.at("mr.jobs_completed"), 5);
  // The sampler's own cost feeds the doctor's overhead check.
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GE(snap.sketches.at("mr.sampler_sample_us").count(),
            samples.size());
}

TEST(MetricsSamplerTest, RingDropsOldestPastMaxSamples) {
  MetricsRegistry registry;
  MetricsSampler sampler(&registry, /*period_ms=*/1, /*max_samples=*/2);
  while (sampler.samples_taken() < 6) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.Stop();
  EXPECT_LE(sampler.Samples().size(), 2u);
  EXPECT_GE(sampler.samples_taken(), 6u);
}

// ---------------------------------------------------------------------
// JSON export (skymr-metrics-v1).
// ---------------------------------------------------------------------

TEST(MetricsJsonTest, ExportsValidSchemaDocument) {
  MetricsRegistry registry;
  registry.gauge("mr.inflight_jobs")->Set(1);
  registry.counter("mr.jobs_completed")->Add(4);
  MetricsRegistry::Sketch* wall = registry.sketch("mr.job_wall_us");
  for (int i = 1; i <= 100; ++i) {
    wall->Record(static_cast<double>(i));
  }

  std::vector<MetricsSample> samples(1);
  samples[0].uptime_seconds = 0.25;
  samples[0].sample_cost_us = 12.0;
  samples[0].gauges["mr.inflight_jobs"] = 1;
  samples[0].counters["mr.jobs_completed"] = 2;

  std::ostringstream os;
  registry.WriteJson(os, samples);
  const std::string text = os.str();
  EXPECT_EQ(testing::JsonParseError(text), "") << text;

  auto doc = ParseJson(text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->GetString("schema", ""), kMetricsSchemaVersion);
  EXPECT_GE(doc->GetDouble("uptime_seconds", -1.0), 0.0);

  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* jobs = counters->Find("mr.jobs_completed");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->GetInt("value", 0), 4);
  EXPECT_GT(jobs->GetDouble("rate_per_s", 0.0), 0.0);

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

  const JsonValue* sample_rows = doc->Find("samples");
  ASSERT_NE(sample_rows, nullptr);
  ASSERT_TRUE(sample_rows->is_array());
  ASSERT_EQ(sample_rows->AsArray().size(), 1u);
  EXPECT_DOUBLE_EQ(
      sample_rows->AsArray()[0].GetDouble("uptime_seconds", 0.0), 0.25);
}

TEST(MetricsJsonTest, WriteJsonFileRoundTrips) {
  MetricsRegistry registry;
  registry.counter("n")->Add(1);
  const std::string path =
      ::testing::TempDir() + "/skymr_metrics_test.json";
  ASSERT_TRUE(registry.WriteJsonFile(path, {}).ok());
  auto doc = ParseJsonFile(path);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->GetString("schema", ""), kMetricsSchemaVersion);
}

}  // namespace
}  // namespace skymr::obs

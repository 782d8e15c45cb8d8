#include "src/obs/bench_artifact.h"

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/runner.h"
#include "src/data/generator.h"
#include "src/mapreduce/chaos.h"
#include "src/obs/json_parse.h"
#include "tests/serve/session_test_util.h"

namespace skymr::obs {
namespace {

using session_testing::SubmitOnce;

TEST(WallStatsTest, KnownSamples) {
  // Odd count: median is the middle element; MAD over {2, 0, 3} -> 2.
  const WallStats odd = WallStats::FromSamples({5.0, 2.0, 7.0});
  EXPECT_EQ(odd.reps, 3);
  EXPECT_DOUBLE_EQ(odd.median_seconds, 5.0);
  EXPECT_DOUBLE_EQ(odd.mad_seconds, 2.0);
  EXPECT_DOUBLE_EQ(odd.min_seconds, 2.0);
  EXPECT_DOUBLE_EQ(odd.max_seconds, 7.0);
  EXPECT_NEAR(odd.mean_seconds, 14.0 / 3.0, 1e-12);

  // Even count: median is the midpoint of the middle pair.
  const WallStats even = WallStats::FromSamples({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(even.median_seconds, 2.5);
  EXPECT_DOUBLE_EQ(even.mad_seconds, 1.0);
  EXPECT_DOUBLE_EQ(even.mean_seconds, 2.5);
  // Population stddev of {1,2,3,4} is sqrt(1.25).
  EXPECT_NEAR(even.cv, std::sqrt(1.25) / 2.5, 1e-12);
}

TEST(WallStatsTest, SingleAndEmptySamples) {
  const WallStats one = WallStats::FromSamples({0.25});
  EXPECT_EQ(one.reps, 1);
  EXPECT_DOUBLE_EQ(one.median_seconds, 0.25);
  EXPECT_DOUBLE_EQ(one.mad_seconds, 0.0);
  EXPECT_DOUBLE_EQ(one.cv, 0.0);

  const WallStats none = WallStats::FromSamples({});
  EXPECT_EQ(none.reps, 0);
  EXPECT_DOUBLE_EQ(none.median_seconds, 0.0);
}

SkylineResult SmallRun(const mr::ChaosSchedule& chaos = {}) {
  data::GeneratorConfig gen;
  gen.distribution = data::Distribution::kAntiCorrelated;
  gen.cardinality = 600;
  gen.dim = 3;
  gen.seed = 17;
  const Dataset data = std::move(data::Generate(gen)).value();
  SessionOptions options;
  QuerySpec query;
  query.algorithm = Algorithm::kMrGpmrs;
  options.engine.num_map_tasks = 3;
  options.engine.num_reducers = 2;
  options.ppd.max_candidate = 8;
  options.engine.chaos = chaos;
  options.engine.max_task_attempts = chaos.enabled() ? 4 : 1;
  auto result = SubmitOnce(data, options, query);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

TEST(DeterministicCountersTest, HarvestsStructuralCountersAndExcludesNoise) {
  const SkylineResult result = SmallRun();
  const auto det = DeterministicCounters(result, 600);
  EXPECT_EQ(det.at("input_tuples"), 600);
  EXPECT_EQ(det.at("skyline_size"),
            static_cast<int64_t>(result.skyline.size()));
  EXPECT_EQ(det.at("ppd"), static_cast<int64_t>(result.ppd));
  EXPECT_GT(det.at("nonempty_partitions"), 0);
  EXPECT_EQ(det.at("jobs"), static_cast<int64_t>(result.jobs.size()));
  EXPECT_GT(det.at("shuffle_bytes"), 0);
  // Engine structure counters from the PR's job hooks are present.
  EXPECT_GT(det.at("mr.map_input_records"), 0);
  EXPECT_GT(det.at("mr.map_tasks"), 0);
  // Scheduling-dependent counters never enter the deterministic gate.
  EXPECT_EQ(det.count("mr.task_retries"), 0u);
  EXPECT_EQ(det.count("mr.cache_hits"), 0u);
  EXPECT_EQ(det.count("mr.cache_misses"), 0u);
}

TEST(DeterministicCountersTest, BitIdenticalAcrossRuns) {
  const auto a = DeterministicCounters(SmallRun(), 600);
  const auto b = DeterministicCounters(SmallRun(), 600);
  EXPECT_EQ(a, b);
}

TEST(DeterministicCountersTest, PlannedBackoffIsPartOfTheChaosSignal) {
  // The scheduler counts each retry's planned, seed-hashed wait, so two
  // same-seed runs agree on the backoff milliseconds too.
  mr::ChaosSchedule chaos;
  chaos.seed = 20260805;
  chaos.crash_rate = 0.2;
  const SkylineResult first = SmallRun(chaos);
  const auto det = DeterministicCounters(first, 600,
                                         /*include_fault_injection=*/true);
  ASSERT_GT(det.at("mr.backoff_waits"), 0);
  EXPECT_GT(det.at("mr.backoff_total_ms"), 0);
  EXPECT_EQ(det, DeterministicCounters(SmallRun(chaos), 600, true));
  // Without the opt-in neither backoff counter enters the gate.
  const auto chaos_free = DeterministicCounters(first, 600);
  EXPECT_EQ(chaos_free.count("mr.backoff_waits"), 0u);
  EXPECT_EQ(chaos_free.count("mr.backoff_total_ms"), 0u);
}

TEST(BenchArtifactTest, WritesParsableSchemaDocument) {
  BenchArtifact artifact("bench_unit_test");
  artifact.environment().reps = 3;

  BenchRow row;
  row.name = "row/one";
  row.wall = WallStats::FromSamples({0.1, 0.2, 0.3});
  row.metrics["modeled_s"] = 1.5;
  row.deterministic["skyline_size"] = 42;
  artifact.AddRow(std::move(row));
  EXPECT_EQ(artifact.row_count(), 1u);

  std::ostringstream os;
  artifact.Write(os);
  auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status() << "\n" << os.str();

  EXPECT_EQ(doc->GetString("schema", ""), kBenchSchemaVersion);
  EXPECT_EQ(doc->GetString("bench", ""), "bench_unit_test");
  const JsonValue* env = doc->Find("environment");
  ASSERT_NE(env, nullptr);
  EXPECT_FALSE(env->GetString("compiler", "").empty());
  EXPECT_FALSE(env->GetString("kernel_backend", "").empty());
  EXPECT_EQ(env->GetInt("reps", 0), 3);
  EXPECT_GT(env->GetInt("threads", 0), 0);

  const JsonValue* rows = doc->Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->AsArray().size(), 1u);
  const JsonValue& parsed = rows->AsArray()[0];
  EXPECT_EQ(parsed.GetString("name", ""), "row/one");
  EXPECT_DOUBLE_EQ(parsed.Find("wall")->GetDouble("median_seconds", 0.0),
                   0.2);
  EXPECT_DOUBLE_EQ(parsed.Find("metrics")->GetDouble("modeled_s", 0.0), 1.5);
  EXPECT_EQ(parsed.Find("deterministic")->GetInt("skyline_size", 0), 42);
}

TEST(BenchArtifactTest, WriteFileRejectsBadPath) {
  const BenchArtifact artifact("bench_unit_test");
  EXPECT_FALSE(artifact.WriteFile("/nonexistent-dir/artifact.json").ok());
}

TEST(BenchRepsTest, ClampsEnvironmentValue) {
  // No env -> 1 (the test runner does not set SKYMR_BENCH_REPS).
  EXPECT_EQ(BenchRepsFromEnv(), 1);
}

}  // namespace
}  // namespace skymr::obs

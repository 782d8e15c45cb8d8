// Pipeline-level fault tolerance: exact skylines under seeded chaos,
// GPMRS -> GPSRS degradation, bitstring-phase checkpoint/resume, and the
// hardened Session entry points (Status errors, never exceptions). Each
// run opens a fresh session, so a resume can only come from the
// external checkpoint store, never from the in-session cache.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/checkpoint.h"
#include "src/core/runner.h"
#include "src/data/generator.h"
#include "src/relation/skyline_verify.h"
#include "src/serve/session.h"
#include "tests/serve/session_test_util.h"

namespace skymr {
namespace {

using session_testing::SubmitOnce;

Dataset TestData() {
  data::GeneratorConfig gen;
  gen.distribution = data::Distribution::kAntiCorrelated;
  gen.cardinality = 2000;
  gen.dim = 3;
  gen.seed = 77;
  return std::move(data::Generate(gen)).value();
}

SessionOptions BaseOptions() {
  SessionOptions options;
  options.engine.num_map_tasks = 4;
  options.engine.num_reducers = 4;
  options.engine.retry_backoff_base_ms = 0.0;  // Keep tests fast.
  options.ppd.max_candidate = 8;
  return options;
}

SessionOptions ChaosOptions(uint64_t seed) {
  SessionOptions options = BaseOptions();
  options.engine.max_task_attempts = 8;
  options.engine.chaos.seed = seed;
  options.engine.chaos.crash_rate = 0.2;
  return options;
}

QuerySpec Query(Algorithm algorithm) {
  QuerySpec query;
  query.algorithm = algorithm;
  return query;
}

// ---------------------------------------------------------------------
// Exactness and determinism under injected crashes.
// ---------------------------------------------------------------------

class ChaosAlgorithmProperty : public ::testing::TestWithParam<Algorithm> {};

TEST_P(ChaosAlgorithmProperty, ExactAndBitIdenticalUnderCrashChaos) {
  const Algorithm algorithm = GetParam();
  const Dataset data = TestData();
  const SessionOptions options = ChaosOptions(1234);

  auto first = SubmitOnce(data, options, Query(algorithm));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(ExplainSkylineMismatch(data, first->SkylineIds()), "")
      << AlgorithmName(algorithm);

  auto second = SubmitOnce(data, options, Query(algorithm));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first->SkylineIds(), second->SkylineIds());

  // The injected-fault totals are part of the deterministic contract.
  int64_t crashes_first = 0;
  int64_t crashes_second = 0;
  for (const auto& job : first->jobs) {
    crashes_first += job.counters.Get("mr.chaos_crashes_injected");
  }
  for (const auto& job : second->jobs) {
    crashes_second += job.counters.Get("mr.chaos_crashes_injected");
  }
  EXPECT_EQ(crashes_first, crashes_second);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaosAlgorithmProperty,
                         ::testing::Values(Algorithm::kMrGpsrs,
                                           Algorithm::kMrGpmrs,
                                           Algorithm::kMrBnl,
                                           Algorithm::kMrAngle),
                         [](const auto& info) {
                           std::string name = AlgorithmName(info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// The BBS kernel in the mappers must be just as exact and bit-identical
// under crash-retry chaos: a retried map attempt rebuilds the R-tree
// from the same partition ids, and the STR packing is deterministic.
class ChaosBbsProperty : public ::testing::TestWithParam<Algorithm> {};

TEST_P(ChaosBbsProperty, ExactAndBitIdenticalUnderCrashChaos) {
  const Algorithm algorithm = GetParam();
  const Dataset data = TestData();
  const SessionOptions options = ChaosOptions(4321);
  QuerySpec query = Query(algorithm);
  query.local_algorithm = core::LocalAlgorithm::kBbs;

  auto first = SubmitOnce(data, options, query);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(ExplainSkylineMismatch(data, first->SkylineIds()), "")
      << AlgorithmName(algorithm);

  auto second = SubmitOnce(data, options, query);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first->SkylineIds(), second->SkylineIds());

  int64_t crashes_first = 0;
  int64_t crashes_second = 0;
  int64_t bbs_nodes_first = 0;
  int64_t bbs_nodes_second = 0;
  for (const auto& job : first->jobs) {
    crashes_first += job.counters.Get("mr.chaos_crashes_injected");
    bbs_nodes_first += job.counters.Get(core::kCounterBbsNodesVisited);
  }
  for (const auto& job : second->jobs) {
    crashes_second += job.counters.Get("mr.chaos_crashes_injected");
    bbs_nodes_second += job.counters.Get(core::kCounterBbsNodesVisited);
  }
  EXPECT_EQ(crashes_first, crashes_second);
  // The BBS instrumentation is deterministic too, retries included.
  EXPECT_EQ(bbs_nodes_first, bbs_nodes_second);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaosBbsProperty,
                         ::testing::Values(Algorithm::kMrGpsrs,
                                           Algorithm::kMrGpmrs),
                         [](const auto& info) {
                           std::string name = AlgorithmName(info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------
// Graceful degradation: a poisoned GPMRS job falls back to GPSRS.
// ---------------------------------------------------------------------

TEST(FaultToleranceTest, PoisonedGpmrsDegradesToEquivalentGpsrs) {
  const Dataset data = TestData();
  SessionOptions options = BaseOptions();
  options.engine.max_task_attempts = 2;
  options.engine.chaos.fail_job = "mr-gpmrs";  // Every GPMRS attempt dies.

  auto degraded = SubmitOnce(data, options, Query(Algorithm::kMrGpmrs));
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_TRUE(degraded->degraded);
  EXPECT_EQ(degraded->algorithm_used, Algorithm::kMrGpsrs);
  EXPECT_EQ(ExplainSkylineMismatch(data, degraded->SkylineIds()), "");

  // The degradation is recorded on the skyline job's counters so reports
  // and the doctor can see it.
  ASSERT_FALSE(degraded->jobs.empty());
  EXPECT_EQ(degraded->jobs.back().counters.Get("mr.degraded_to_gpsrs"), 1);

  // Same answer as an undisturbed GPSRS run.
  auto reference =
      SubmitOnce(data, BaseOptions(), Query(Algorithm::kMrGpsrs));
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(degraded->SkylineIds(), reference->SkylineIds());
}

TEST(FaultToleranceTest, FailingDegradedMergeSurfacesInternal) {
  // "mr-gp" poisons both the GPMRS job and its GPSRS fallback: the ladder
  // has one rung, so the fallback's failure is the query's error.
  const Dataset data = TestData();
  SessionOptions options = BaseOptions();
  options.engine.max_task_attempts = 2;
  options.engine.chaos.fail_job = "mr-gp";

  auto result = SubmitOnce(data, options, Query(Algorithm::kMrGpmrs));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------
// Phase checkpoint / resume.
// ---------------------------------------------------------------------

TEST(FaultToleranceTest, CheckpointSkipsBitstringPhaseOnResume) {
  const Dataset data = TestData();
  core::PipelineCheckpoint checkpoint;
  SessionOptions options = BaseOptions();
  options.checkpoint = &checkpoint;
  const QuerySpec query = Query(Algorithm::kMrGpmrs);

  auto first = SubmitOnce(data, options, query);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->resumed_from_checkpoint);
  EXPECT_EQ(checkpoint.size(), 1u);
  EXPECT_EQ(first->jobs.size(), 2u);  // Bitstring job + skyline job.

  auto second = SubmitOnce(data, options, query);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->resumed_from_checkpoint);
  EXPECT_EQ(second->jobs.size(), 1u);  // Bitstring job skipped.
  EXPECT_EQ(first->SkylineIds(), second->SkylineIds());
  EXPECT_EQ(ExplainSkylineMismatch(data, second->SkylineIds()), "");
}

TEST(FaultToleranceTest, CheckpointMissesOnDifferentConfiguration) {
  const Dataset data = TestData();
  core::PipelineCheckpoint checkpoint;
  SessionOptions options = BaseOptions();
  options.checkpoint = &checkpoint;
  const QuerySpec query = Query(Algorithm::kMrGpmrs);
  ASSERT_TRUE(SubmitOnce(data, options, query).ok());

  // A different grid policy must not resume from the stored phase.
  options.ppd.explicit_ppd = 3;
  auto other = SubmitOnce(data, options, query);
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_FALSE(other->resumed_from_checkpoint);
  EXPECT_EQ(checkpoint.size(), 2u);
  EXPECT_EQ(ExplainSkylineMismatch(data, other->SkylineIds()), "");
}

TEST(FaultToleranceTest, CheckpointFileRoundTrip) {
  const Dataset data = TestData();
  const std::string path =
      ::testing::TempDir() + "/skymr_checkpoint_roundtrip.bin";
  std::remove(path.c_str());

  core::PipelineCheckpoint writer;
  SessionOptions options = BaseOptions();
  options.checkpoint = &writer;
  const QuerySpec query = Query(Algorithm::kMrGpmrs);
  auto first = SubmitOnce(data, options, query);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(writer.SaveFile(path).ok());

  core::PipelineCheckpoint reader;
  ASSERT_TRUE(reader.LoadFile(path).ok());
  EXPECT_EQ(reader.size(), writer.size());
  options.checkpoint = &reader;
  auto resumed = SubmitOnce(data, options, query);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->resumed_from_checkpoint);
  EXPECT_EQ(first->SkylineIds(), resumed->SkylineIds());
  std::remove(path.c_str());
}

TEST(FaultToleranceTest, CheckpointCorruptionRejectedAndStoreUnchanged) {
  // Populate a checkpoint through a real pipeline run, then attack its
  // serialized form: any bit flip or truncation must come back as a clean
  // IoError and leave the loading store untouched.
  const Dataset data = TestData();
  core::PipelineCheckpoint writer;
  SessionOptions options = BaseOptions();
  options.checkpoint = &writer;
  ASSERT_TRUE(SubmitOnce(data, options, Query(Algorithm::kMrGpmrs)).ok());
  ASSERT_GT(writer.size(), 0u);
  const std::vector<uint8_t> saved = writer.SaveBytes();

  for (const size_t flip : {size_t{0}, saved.size() / 2, saved.size() - 1}) {
    std::vector<uint8_t> corrupt = saved;
    corrupt[flip] ^= 0x10;
    core::PipelineCheckpoint store;
    const Status status =
        store.LoadBytes(corrupt.data(), corrupt.size(), "bit flip");
    if (status.ok()) {
      // A flip inside a stored double can survive decoding; the store
      // must still be fully formed, not half-merged.
      EXPECT_EQ(store.size(), writer.size()) << "flip=" << flip;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kIoError) << "flip=" << flip;
      EXPECT_EQ(store.size(), 0u) << "flip=" << flip;
    }
  }
  for (const size_t keep : {size_t{0}, size_t{3}, saved.size() / 2,
                            saved.size() - 1}) {
    core::PipelineCheckpoint store;
    const Status status = store.LoadBytes(saved.data(), keep, "truncation");
    EXPECT_FALSE(status.ok()) << "keep=" << keep;
    EXPECT_EQ(store.size(), 0u) << "keep=" << keep;
  }

  // The intact bytes round-trip: load, re-save, byte-identical.
  core::PipelineCheckpoint reloaded;
  ASSERT_TRUE(reloaded.LoadBytes(saved.data(), saved.size(), "intact").ok());
  EXPECT_EQ(reloaded.size(), writer.size());
  EXPECT_EQ(reloaded.SaveBytes(), saved);
}

TEST(FaultToleranceTest, CorruptCheckpointFileFallsBackToFreshRun) {
  // Operator story: the checkpoint file on disk got mangled. The load
  // reports the corruption; after clearing, the same pipeline still
  // produces the exact skyline from scratch.
  const Dataset data = TestData();
  const std::string path =
      ::testing::TempDir() + "/skymr_checkpoint_corrupt.bin";
  std::remove(path.c_str());

  core::PipelineCheckpoint writer;
  SessionOptions options = BaseOptions();
  options.checkpoint = &writer;
  const QuerySpec query = Query(Algorithm::kMrGpmrs);
  auto first = SubmitOnce(data, options, query);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(writer.SaveFile(path).ok());

  // Truncate the file to two thirds of its length.
  std::vector<uint8_t> bytes = writer.SaveBytes();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size() * 2 / 3));
  }
  core::PipelineCheckpoint reader;
  auto status = reader.LoadFile(path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(reader.size(), 0u);

  // Fresh-run fallback: the (empty) store is still a valid checkpoint
  // sink, and the result matches the first run exactly.
  options.checkpoint = &reader;
  auto fresh = SubmitOnce(data, options, query);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_FALSE(fresh->resumed_from_checkpoint);
  EXPECT_EQ(fresh->SkylineIds(), first->SkylineIds());
  std::remove(path.c_str());
}

TEST(FaultToleranceTest, CheckpointLoadToleratesMissingRejectsMalformed) {
  core::PipelineCheckpoint checkpoint;
  EXPECT_TRUE(
      checkpoint.LoadFile("/nonexistent/skymr_no_such_checkpoint").ok());

  const std::string path = ::testing::TempDir() + "/skymr_checkpoint_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint file";
  }
  auto status = checkpoint.LoadFile(path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Hardened entry points: invalid configurations come back as Status.
// ---------------------------------------------------------------------

TEST(FaultToleranceTest, InvalidConfigurationsReturnStatusNotThrow) {
  const Dataset data = TestData();
  const QuerySpec query = Query(Algorithm::kMrGpmrs);

  SessionOptions options = BaseOptions();
  options.engine.num_reducers = 0;
  auto result = SubmitOnce(data, options, query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  options = BaseOptions();
  options.ppd.explicit_ppd = 1;  // A 1-cell-per-dimension grid cannot prune.
  result = SubmitOnce(data, options, query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  options = BaseOptions();
  options.engine.chaos.crash_rate = 1.0;  // Can never terminate.
  result = SubmitOnce(data, options, query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  options = BaseOptions();
  options.engine.max_task_attempts = 2;
  options.engine.chaos.crash_until_attempt = 2;  // Exhausts the budget.
  result = SubmitOnce(data, options, query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  options = BaseOptions();
  options.engine.retry_backoff_base_ms = 64.0;  // > retry_backoff_max_ms.
  result = SubmitOnce(data, options, query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(FaultToleranceTest, ValidateAcceptsTheDefaultConfig) {
  EXPECT_TRUE(SessionOptions{}.Validate().ok());
  EXPECT_TRUE(QuerySpec{}.Validate().ok());
  EXPECT_TRUE(BaseOptions().Validate().ok());
  EXPECT_TRUE(ChaosOptions(1).Validate().ok());
}

}  // namespace
}  // namespace skymr

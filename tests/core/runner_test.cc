// End-to-end pipeline tests: every algorithm answered on a fresh
// Session (Session::Open + Submit), plus the Algorithm name vocabulary
// of core/runner.h.

#include "src/core/runner.h"

#include <algorithm>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "src/data/generator.h"
#include "src/relation/skyline_verify.h"
#include "tests/serve/session_test_util.h"

namespace skymr {
namespace {

using session_testing::SubmitOnce;

SessionOptions BaseOptions() {
  SessionOptions options;
  options.engine.num_map_tasks = 4;
  options.engine.num_reducers = 4;
  options.ppd.max_candidate = 8;  // Keep candidate sweeps cheap in tests.
  return options;
}

QuerySpec Query(Algorithm algorithm) {
  QuerySpec query;
  query.algorithm = algorithm;
  return query;
}

/// One fresh-session run of `algorithm` with the base options.
StatusOr<SkylineResult> RunAlgorithm(const Dataset& data,
                                     Algorithm algorithm) {
  return SubmitOnce(data, BaseOptions(), Query(algorithm));
}

class RunnerAlgorithmProperty
    : public ::testing::TestWithParam<
          std::tuple<Algorithm, data::Distribution>> {};

TEST_P(RunnerAlgorithmProperty, ComputesExactSkyline) {
  const auto& [algorithm, dist] = GetParam();
  data::GeneratorConfig gen;
  gen.distribution = dist;
  gen.cardinality = 1500;
  gen.dim = 3;
  gen.seed = 4242;
  const Dataset data = std::move(data::Generate(gen)).value();
  auto result = RunAlgorithm(data, algorithm);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ExplainSkylineMismatch(data, result->SkylineIds()), "")
      << AlgorithmName(algorithm);
  EXPECT_GT(result->wall_seconds, 0.0);
  EXPECT_GT(result->modeled_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RunnerAlgorithmProperty,
    ::testing::Combine(
        ::testing::Values(Algorithm::kMrGpsrs, Algorithm::kMrGpmrs,
                          Algorithm::kMrBnl, Algorithm::kMrAngle,
                          Algorithm::kHybrid, Algorithm::kSkyMr),
        ::testing::Values(data::Distribution::kIndependent,
                          data::Distribution::kAntiCorrelated,
                          data::Distribution::kCorrelated)),
    ([](const auto& info) {
      const auto& [algorithm, dist] = info.param;
      std::string name = std::string(AlgorithmName(algorithm)) + "_" +
                         data::DistributionName(dist);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    }));

TEST(RunnerTest, GridAlgorithmsReportTwoJobs) {
  const Dataset data = data::GenerateIndependent(800, 2, 5);
  auto result = RunAlgorithm(data, Algorithm::kMrGpmrs);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->jobs.size(), 2u);  // Bitstring job + skyline job.
  EXPECT_GT(result->ppd, 1u);
  EXPECT_GT(result->nonempty_partitions, 0u);
}

TEST(RunnerTest, BaselinesReportOneJob) {
  const Dataset data = data::GenerateIndependent(800, 2, 5);
  for (const Algorithm algorithm :
       {Algorithm::kMrBnl, Algorithm::kMrAngle}) {
    auto result = RunAlgorithm(data, algorithm);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->jobs.size(), 1u);
    EXPECT_EQ(result->ppd, 0u);
  }
}

TEST(RunnerTest, ExplicitPpdHonored) {
  const Dataset data = data::GenerateIndependent(800, 2, 5);
  SessionOptions options = BaseOptions();
  options.ppd.explicit_ppd = 6;
  auto result = SubmitOnce(data, options, Query(Algorithm::kMrGpsrs));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ppd, 6u);
}

TEST(RunnerTest, HybridResolvesAlgorithm) {
  const Dataset indep = data::GenerateIndependent(4000, 3, 9);
  auto indep_result = RunAlgorithm(indep, Algorithm::kHybrid);
  ASSERT_TRUE(indep_result.ok());
  EXPECT_EQ(indep_result->algorithm_used, Algorithm::kMrGpsrs);

  const Dataset anti = data::GenerateAntiCorrelated(4000, 4, 9);
  auto anti_result = RunAlgorithm(anti, Algorithm::kHybrid);
  ASSERT_TRUE(anti_result.ok());
  EXPECT_EQ(anti_result->algorithm_used, Algorithm::kMrGpmrs);
  EXPECT_EQ(ExplainSkylineMismatch(anti, anti_result->SkylineIds()), "");
}

TEST(RunnerTest, EmptyDataset) {
  const Dataset data(3);
  for (const Algorithm algorithm :
       {Algorithm::kMrGpsrs, Algorithm::kMrGpmrs, Algorithm::kMrBnl,
        Algorithm::kMrAngle, Algorithm::kSkyMr}) {
    auto result = RunAlgorithm(data, algorithm);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm) << ": "
                             << result.status();
    EXPECT_TRUE(result->skyline.empty());
  }
}

TEST(RunnerTest, ComputedBoundsModeWorks) {
  // Data outside the unit cube must still be partitioned correctly when
  // unit_bounds is off.
  Dataset data(2);
  data.Append({10.0, 20.0});
  data.Append({12.0, 18.0});
  data.Append({15.0, 25.0});  // Dominated.
  SessionOptions options = BaseOptions();
  options.unit_bounds = false;
  auto result = SubmitOnce(data, options, Query(Algorithm::kMrGpsrs));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(SameIdSet(result->SkylineIds(), {0, 1}));
}

TEST(RunnerTest, ModeledSecondsUsesClusterModel) {
  const Dataset data = data::GenerateIndependent(500, 2, 5);
  SessionOptions slow = BaseOptions();
  slow.cluster.job_startup_seconds = 100.0;
  SessionOptions fast = BaseOptions();
  fast.cluster.job_startup_seconds = 1.0;
  auto slow_result = SubmitOnce(data, slow, Query(Algorithm::kMrGpsrs));
  auto fast_result = SubmitOnce(data, fast, Query(Algorithm::kMrGpsrs));
  ASSERT_TRUE(slow_result.ok());
  ASSERT_TRUE(fast_result.ok());
  EXPECT_GT(slow_result->modeled_seconds,
            fast_result->modeled_seconds + 150.0);
}

TEST(RunnerTest, PoolThreadCountContradictionIsInvalidArgument) {
  // An explicit engine.num_threads that disagrees with the external
  // pool's size used to be silently ignored (the pool won); Validate now
  // rejects the contradiction up front.
  const Dataset data = data::GenerateIndependent(300, 2, 5);
  ThreadPool pool(2);
  SessionOptions options = BaseOptions();
  options.pool = &pool;
  options.engine.num_threads = 3;
  EXPECT_FALSE(options.Validate().ok());
  auto result = SubmitOnce(data, options, Query(Algorithm::kMrGpsrs));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("contradicts"),
            std::string::npos)
      << result.status();

  // Matching the pool's size, or leaving num_threads 0, stays valid.
  options.engine.num_threads = 2;
  EXPECT_TRUE(options.Validate().ok());
  options.engine.num_threads = 0;
  EXPECT_TRUE(options.Validate().ok());
  auto ok_result = SubmitOnce(data, options, Query(Algorithm::kMrGpsrs));
  ASSERT_TRUE(ok_result.ok()) << ok_result.status();
  EXPECT_EQ(ExplainSkylineMismatch(data, ok_result->SkylineIds()), "");

  // A num_threads without an external pool sizes the private pool and
  // was always legal.
  options.pool = nullptr;
  options.engine.num_threads = 3;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(RunnerTest, AlgorithmNamesRoundTrip) {
  for (const Algorithm algorithm :
       {Algorithm::kMrGpsrs, Algorithm::kMrGpmrs, Algorithm::kMrBnl,
        Algorithm::kMrAngle, Algorithm::kHybrid, Algorithm::kSkyMr}) {
    auto parsed = ParseAlgorithm(AlgorithmName(algorithm));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), algorithm);
  }
  EXPECT_FALSE(ParseAlgorithm("mr-quadtree").ok());
}

}  // namespace
}  // namespace skymr

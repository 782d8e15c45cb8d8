// End-to-end pipeline tests: CSV in, full bitstring + skyline MapReduce
// pipeline, results verified against the reference and across algorithms.

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/cost/cost_model.h"
#include "src/skymr.h"
#include "tests/serve/session_test_util.h"

namespace skymr {
namespace {

using session_testing::SubmitOnce;

TEST(EndToEndTest, CsvRoundTripThroughFullPipeline) {
  const Dataset generated = data::GenerateAntiCorrelated(1000, 3, 77);
  const std::string path =
      (std::filesystem::temp_directory_path() / "skymr_e2e.csv").string();
  ASSERT_TRUE(data::SaveCsv(generated, path).ok());
  auto loaded = data::LoadCsv(path, /*has_header=*/false);
  ASSERT_TRUE(loaded.ok());
  std::remove(path.c_str());

  SessionOptions options;
  QuerySpec query;
  query.algorithm = Algorithm::kMrGpmrs;
  options.engine.num_map_tasks = 4;
  options.engine.num_reducers = 5;
  options.ppd.max_candidate = 6;
  auto result = SubmitOnce(*loaded, options, query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ExplainSkylineMismatch(*loaded, result->SkylineIds()), "");
}

TEST(EndToEndTest, AllAlgorithmsAgreeOnTheSameData) {
  const Dataset data = data::GenerateAntiCorrelated(1800, 4, 79);
  const std::vector<TupleId> expected = ReferenceSkyline(data);
  for (const Algorithm algorithm :
       {Algorithm::kMrGpsrs, Algorithm::kMrGpmrs, Algorithm::kMrBnl,
        Algorithm::kMrAngle, Algorithm::kHybrid, Algorithm::kSkyMr}) {
    SessionOptions options;
    QuerySpec query;
    query.algorithm = algorithm;
    options.engine.num_map_tasks = 3;
    options.engine.num_reducers = 4;
    options.ppd.max_candidate = 5;
    auto result = SubmitOnce(data, options, query);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
    EXPECT_TRUE(SameIdSet(result->SkylineIds(), expected))
        << AlgorithmName(algorithm);
  }
}

TEST(EndToEndTest, SkylineTuplesCarryCorrectValues) {
  const Dataset data = data::GenerateIndependent(600, 2, 81);
  SessionOptions options;
  QuerySpec query;
  query.algorithm = Algorithm::kMrGpsrs;
  options.ppd.max_candidate = 5;
  auto result = SubmitOnce(data, options, query);
  ASSERT_TRUE(result.ok());
  // The shipped tuple values must equal the dataset rows for the ids.
  for (size_t i = 0; i < result->skyline.size(); ++i) {
    const TupleId id = result->skyline.IdAt(i);
    const double* expected_row = data.RowPtr(id);
    const double* actual_row = result->skyline.RowAt(i);
    for (size_t k = 0; k < data.dim(); ++k) {
      EXPECT_DOUBLE_EQ(actual_row[k], expected_row[k]);
    }
  }
}

TEST(EndToEndTest, MeasuredMapperComparisonsRespectCostModelBound) {
  // Section 6's estimate is an upper bound under worst-case assumptions;
  // Section 7.5 verifies "the estimated cost is higher than the real cost
  // in every case". We check it end to end on independent data.
  const Dataset data = data::GenerateIndependent(4000, 3, 83);
  SessionOptions options;
  QuerySpec query;
  query.algorithm = Algorithm::kMrGpmrs;
  options.engine.num_map_tasks = 4;
  options.engine.num_reducers = 4;
  options.ppd.explicit_ppd = 4;
  auto result = SubmitOnce(data, options, query);
  ASSERT_TRUE(result.ok());
  const auto& skyline_job = result->jobs[1];
  const double mapper_bound = cost::MapperCost(result->ppd, data.dim());
  const double reducer_bound = cost::ReducerCost(result->ppd, data.dim());
  EXPECT_LE(static_cast<double>(skyline_job.MaxMapCounter(
                mr::kCounterPartitionComparisons)),
            mapper_bound);
  EXPECT_LE(static_cast<double>(skyline_job.MaxReduceCounter(
                mr::kCounterPartitionComparisons)),
            reducer_bound);
}

TEST(EndToEndTest, GpmrsShufflesMoreButReducesInParallel) {
  // The paper's trade-off: MR-GPMRS replicates partitions across groups
  // (more communication) to let reducers finish independently.
  const Dataset data = data::GenerateAntiCorrelated(3000, 3, 87);
  SessionOptions single;
  single.ppd.explicit_ppd = 4;
  single.engine.num_map_tasks = 4;
  SessionOptions multi = single;
  multi.engine.num_reducers = 6;
  QuerySpec gpsrs;
  gpsrs.algorithm = Algorithm::kMrGpsrs;
  QuerySpec gpmrs;
  gpmrs.algorithm = Algorithm::kMrGpmrs;

  auto single_run = SubmitOnce(data, single, gpsrs);
  auto multi_run = SubmitOnce(data, multi, gpmrs);
  ASSERT_TRUE(single_run.ok());
  ASSERT_TRUE(multi_run.ok());
  EXPECT_GE(multi_run->jobs[1].shuffle_bytes,
            single_run->jobs[1].shuffle_bytes);
  EXPECT_EQ(multi_run->jobs[1].reduce_tasks.size(), 6u);
  // Both are exact.
  EXPECT_TRUE(
      SameIdSet(multi_run->SkylineIds(), single_run->SkylineIds()));
}

TEST(EndToEndTest, WorksWithRealisticMixedScales) {
  // Non-unit domains (price in dollars, distance in km) via unit_bounds
  // = false.
  Dataset hotels(3);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    hotels.Append({rng.Uniform(40.0, 400.0), rng.Uniform(0.1, 20.0),
                   rng.Uniform(1.0, 5.0)});
  }
  SessionOptions options;
  QuerySpec query;
  query.algorithm = Algorithm::kMrGpmrs;
  options.unit_bounds = false;
  options.ppd.max_candidate = 4;
  options.engine.num_reducers = 3;
  auto result = SubmitOnce(hotels, options, query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ExplainSkylineMismatch(hotels, result->SkylineIds()), "");
}

}  // namespace
}  // namespace skymr

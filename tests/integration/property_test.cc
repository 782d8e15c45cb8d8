// Cross-configuration property sweep: every MapReduce skyline algorithm
// must return exactly the reference skyline for every combination of
// distribution, dimensionality, cardinality, and parallelism tested.

#include <algorithm>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/skymr.h"
#include "tests/serve/session_test_util.h"

namespace skymr {
namespace {

using session_testing::SubmitOnce;

using data::Distribution;

using SweepParam =
    std::tuple<Algorithm, Distribution, size_t /*dim*/, size_t /*card*/>;

class SkylineAlgorithmSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SkylineAlgorithmSweep, ExactSkyline) {
  const auto& [algorithm, dist, dim, card] = GetParam();
  data::GeneratorConfig gen;
  gen.distribution = dist;
  gen.dim = dim;
  gen.cardinality = card;
  gen.seed = 1000 + dim * 131 + card * 7;
  const Dataset data = std::move(data::Generate(gen)).value();

  SessionOptions options;
  QuerySpec query;
  query.algorithm = algorithm;
  options.engine.num_map_tasks = 3;
  options.engine.num_reducers = 4;
  options.ppd.max_candidate = 5;
  auto result = SubmitOnce(data, options, query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(ExplainSkylineMismatch(data, result->SkylineIds()), "");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkylineAlgorithmSweep,
    ::testing::Combine(
        ::testing::Values(Algorithm::kMrGpsrs, Algorithm::kMrGpmrs,
                          Algorithm::kMrBnl, Algorithm::kMrAngle,
                          Algorithm::kSkyMr),
        ::testing::Values(Distribution::kIndependent,
                          Distribution::kAntiCorrelated),
        ::testing::Values(size_t{2}, size_t{5}, size_t{8}),
        ::testing::Values(size_t{40}, size_t{700})),
    ([](const ::testing::TestParamInfo<SweepParam>& info) {
      const auto& [algorithm, dist, dim, card] = info.param;
      std::string name = std::string(AlgorithmName(algorithm)) + "_" +
                         data::DistributionName(dist) + "_d" +
                         std::to_string(dim) + "_n" + std::to_string(card);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    }));

// Determinism: repeated runs with identical configuration produce
// byte-identical skylines (ids and values, same order).
TEST(DeterminismProperty, RepeatedRunsIdentical) {
  const Dataset data = data::GenerateAntiCorrelated(1200, 3, 55);
  SessionOptions options;
  QuerySpec query;
  query.algorithm = Algorithm::kMrGpmrs;
  options.engine.num_map_tasks = 4;
  options.engine.num_reducers = 3;
  options.engine.num_threads = 4;
  options.ppd.max_candidate = 5;
  auto first = SubmitOnce(data, options, query);
  ASSERT_TRUE(first.ok());
  for (int run = 0; run < 3; ++run) {
    auto again = SubmitOnce(data, options, query);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->skyline.ids(), first->skyline.ids());
    EXPECT_EQ(again->skyline.values(), first->skyline.values());
    EXPECT_EQ(again->ppd, first->ppd);
  }
}

// Pathological layouts.
TEST(EdgeCaseProperty, AllTuplesInOneCell) {
  Dataset data(3);
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    // All tuples inside [0, 0.1)^3: one grid cell at low PPD.
    data.Append({rng.Uniform(0.0, 0.1), rng.Uniform(0.0, 0.1),
                 rng.Uniform(0.0, 0.1)});
  }
  for (const Algorithm algorithm :
       {Algorithm::kMrGpsrs, Algorithm::kMrGpmrs}) {
    SessionOptions options;
    QuerySpec query;
    query.algorithm = algorithm;
    options.ppd.explicit_ppd = 3;
    options.engine.num_reducers = 4;
    auto result = SubmitOnce(data, options, query);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(ExplainSkylineMismatch(data, result->SkylineIds()), "");
  }
}

TEST(EdgeCaseProperty, AllTuplesIdentical) {
  Dataset data(2);
  for (int i = 0; i < 64; ++i) {
    data.Append({0.4, 0.6});
  }
  for (const Algorithm algorithm :
       {Algorithm::kMrGpsrs, Algorithm::kMrGpmrs, Algorithm::kMrBnl,
        Algorithm::kMrAngle, Algorithm::kSkyMr}) {
    SessionOptions options;
    QuerySpec query;
    query.algorithm = algorithm;
    options.engine.num_map_tasks = 5;
    options.engine.num_reducers = 3;
    options.ppd.max_candidate = 4;
    auto result = SubmitOnce(data, options, query);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->skyline.size(), 64u) << AlgorithmName(algorithm);
  }
}

TEST(EdgeCaseProperty, SingleDominatorWipesEverything) {
  Dataset data(3);
  data.Append({0.0, 0.0, 0.0});
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    data.Append({rng.Uniform(0.2, 1.0), rng.Uniform(0.2, 1.0),
                 rng.Uniform(0.2, 1.0)});
  }
  for (const Algorithm algorithm :
       {Algorithm::kMrGpsrs, Algorithm::kMrGpmrs, Algorithm::kMrBnl,
        Algorithm::kMrAngle, Algorithm::kSkyMr}) {
    SessionOptions options;
    QuerySpec query;
    query.algorithm = algorithm;
    options.engine.num_map_tasks = 4;
    options.engine.num_reducers = 4;
    options.ppd.max_candidate = 4;
    auto result = SubmitOnce(data, options, query);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->SkylineIds(), (std::vector<TupleId>{0}))
        << AlgorithmName(algorithm);
  }
}

TEST(EdgeCaseProperty, OneDimensionalDataMinimumWins) {
  Dataset data(1);
  data.Append({0.7});
  data.Append({0.2});
  data.Append({0.2});  // Tie for the minimum: both stay.
  data.Append({0.9});
  for (const Algorithm algorithm :
       {Algorithm::kMrGpsrs, Algorithm::kMrGpmrs, Algorithm::kMrBnl,
        Algorithm::kMrAngle}) {
    SessionOptions options;
    QuerySpec query;
    query.algorithm = algorithm;
    options.engine.num_map_tasks = 2;
    options.ppd.explicit_ppd = 2;
    auto result = SubmitOnce(data, options, query);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
    EXPECT_TRUE(SameIdSet(result->SkylineIds(), {1, 2}))
        << AlgorithmName(algorithm);
  }
}

// Lemma 2 end to end: every reducer-group output of MR-GPMRS is a subset
// of the global skyline, checked implicitly by exactness plus
// no-duplicates across many reducer counts.
TEST(Lemma2Property, GpmrsOutputsPartitionTheSkyline) {
  const Dataset data = data::GenerateAntiCorrelated(900, 3, 66);
  const std::vector<TupleId> expected = ReferenceSkyline(data);
  for (const int reducers : {1, 2, 3, 5, 8, 13}) {
    SessionOptions options;
    QuerySpec query;
    query.algorithm = Algorithm::kMrGpmrs;
    options.engine.num_reducers = reducers;
    options.ppd.explicit_ppd = 3;
    auto result = SubmitOnce(data, options, query);
    ASSERT_TRUE(result.ok());
    std::vector<TupleId> ids = result->SkylineIds();
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
    EXPECT_TRUE(SameIdSet(ids, expected)) << "reducers=" << reducers;
  }
}

}  // namespace
}  // namespace skymr

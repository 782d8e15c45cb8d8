#include "src/baselines/mr_skymr.h"

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "src/core/runner.h"
#include "src/data/generator.h"
#include "src/relation/skyline_verify.h"
#include "tests/serve/session_test_util.h"

namespace skymr::baselines {
namespace {

using session_testing::SubmitOnce;

std::shared_ptr<const Dataset> Share(Dataset data) {
  return std::make_shared<const Dataset>(std::move(data));
}

TEST(MrSkyMrTest, ComputesExactSkyline) {
  const auto data = Share(data::GenerateIndependent(2500, 3, 61));
  mr::EngineOptions engine;
  engine.num_map_tasks = 5;
  auto run = RunSkyMrJob(data, Bounds::UnitCube(3), SkyQuadtree::Options{},
                         engine);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(ExplainSkylineMismatch(*data, run->skyline.ids()), "");
}

TEST(MrSkyMrTest, MapperCountInvariance) {
  const auto data = Share(data::GenerateAntiCorrelated(1000, 4, 67));
  std::vector<TupleId> reference;
  for (const int m : {1, 4, 10}) {
    mr::EngineOptions engine;
    engine.num_map_tasks = m;
    auto run = RunSkyMrJob(data, Bounds::UnitCube(4),
                           SkyQuadtree::Options{}, engine);
    ASSERT_TRUE(run.ok());
    std::vector<TupleId> ids = run->skyline.ids();
    std::sort(ids.begin(), ids.end());
    if (reference.empty()) {
      reference = ids;
      EXPECT_EQ(ExplainSkylineMismatch(*data, ids), "");
    } else {
      EXPECT_EQ(ids, reference) << "m=" << m;
    }
  }
}

TEST(MrSkyMrTest, SkyFilterDropsTuplesAtMappers) {
  const auto data = Share(data::GenerateIndependent(8000, 2, 71));
  mr::EngineOptions engine;
  engine.num_map_tasks = 4;
  auto run = RunSkyMrJob(data, Bounds::UnitCube(2), SkyQuadtree::Options{},
                         engine);
  ASSERT_TRUE(run.ok());
  // Uniform 2-d data: the sample skyline dominates most of the space.
  EXPECT_GT(run->metrics.counters.Get(mr::kCounterTuplesPruned), 4000);
  EXPECT_EQ(ExplainSkylineMismatch(*data, run->skyline.ids()), "");
}

TEST(MrSkyMrTest, TreeParametersDoNotChangeResult) {
  const auto data = Share(data::GenerateAntiCorrelated(1200, 3, 73));
  const std::vector<TupleId> expected = ReferenceSkyline(*data);
  for (const size_t sample : {size_t{0}, size_t{64}, size_t{2048}}) {
    for (const int depth : {0, 3, 8}) {
      SkyQuadtree::Options options;
      options.sample_size = sample;
      options.max_depth = depth;
      mr::EngineOptions engine;
      engine.num_map_tasks = 3;
      auto run =
          RunSkyMrJob(data, Bounds::UnitCube(3), options, engine);
      ASSERT_TRUE(run.ok()) << "sample=" << sample << " depth=" << depth;
      std::vector<TupleId> ids = run->skyline.ids();
      EXPECT_TRUE(SameIdSet(ids, expected))
          << "sample=" << sample << " depth=" << depth;
    }
  }
}

TEST(MrSkyMrTest, EmptyDataset) {
  const auto data = Share(Dataset(2));
  mr::EngineOptions engine;
  auto run = RunSkyMrJob(data, Bounds::UnitCube(2), SkyQuadtree::Options{},
                         engine);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->skyline.empty());
}

TEST(MrSkyMrTest, RunnerIntegration) {
  const Dataset data = data::GenerateAntiCorrelated(1500, 3, 79);
  SessionOptions options;
  QuerySpec query;
  query.algorithm = Algorithm::kSkyMr;
  options.engine.num_map_tasks = 4;
  auto result = SubmitOnce(data, options, query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->jobs.size(), 1u);
  EXPECT_EQ(ExplainSkylineMismatch(data, result->SkylineIds()), "");
  auto parsed = ParseAlgorithm("sky-mr");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), Algorithm::kSkyMr);
}

TEST(MrSkyMrTest, ConstrainedQuery) {
  Dataset data(2);
  data.Append({0.05, 0.05});  // Outside the box, dominates everything.
  data.Append({0.3, 0.4});
  data.Append({0.4, 0.3});
  data.Append({0.5, 0.5});
  Box box;
  box.lo = {0.2, 0.2};
  box.hi = {0.8, 0.8};
  SessionOptions options;
  QuerySpec query;
  query.algorithm = Algorithm::kSkyMr;
  query.constraint = box;
  auto result = SubmitOnce(data, options, query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(SameIdSet(result->SkylineIds(), {1, 2}));
}

}  // namespace
}  // namespace skymr::baselines

// The mapper-side local skyline algorithm option (Section 8 future work:
// "it is still interesting to optimize the local skyline computations").

#include <gtest/gtest.h>

#include "src/skymr.h"
#include "tests/serve/session_test_util.h"

namespace skymr {
namespace {

using session_testing::SubmitOnce;

TEST(LocalAlgorithmTest, AllKernelsProduceIdenticalSkylines) {
  for (const auto dist : {data::Distribution::kIndependent,
                          data::Distribution::kAntiCorrelated,
                          data::Distribution::kCorrelated}) {
    data::GeneratorConfig gen;
    gen.distribution = dist;
    gen.cardinality = 1200;
    gen.dim = 3;
    gen.seed = 31;
    const Dataset data = std::move(data::Generate(gen)).value();
    SessionOptions options;
    options.engine.num_map_tasks = 4;
    options.engine.num_reducers = 3;
    options.ppd.max_candidate = 5;
    for (const Algorithm algorithm :
         {Algorithm::kMrGpsrs, Algorithm::kMrGpmrs}) {
      QuerySpec bnl;
      bnl.algorithm = algorithm;
      bnl.local_algorithm = core::LocalAlgorithm::kBnl;
      auto bnl_result = SubmitOnce(data, options, bnl);
      ASSERT_TRUE(bnl_result.ok());
      EXPECT_EQ(ExplainSkylineMismatch(data, bnl_result->SkylineIds()), "")
          << AlgorithmName(algorithm);
      for (const auto local : {core::LocalAlgorithm::kSfs,
                               core::LocalAlgorithm::kBbs,
                               core::LocalAlgorithm::kAuto}) {
        QuerySpec other = bnl;
        other.local_algorithm = local;
        auto other_result = SubmitOnce(data, options, other);
        ASSERT_TRUE(other_result.ok());
        EXPECT_TRUE(SameIdSet(bnl_result->SkylineIds(),
                              other_result->SkylineIds()))
            << AlgorithmName(algorithm) << " "
            << data::DistributionName(dist) << " "
            << core::LocalAlgorithmName(local);
      }
    }
  }
}

TEST(LocalAlgorithmTest, SfsDoesFewerTupleComparisonsOnCorrelated) {
  // Presorting shines when most tuples are dominated early.
  const Dataset data = data::GenerateCorrelated(5000, 3, 37);
  SessionOptions options;
  options.engine.num_map_tasks = 2;
  options.ppd.explicit_ppd = 2;  // Coarse grid: big per-partition workloads.
  QuerySpec bnl;
  bnl.algorithm = Algorithm::kMrGpsrs;
  bnl.local_algorithm = core::LocalAlgorithm::kBnl;
  QuerySpec sfs = bnl;
  sfs.local_algorithm = core::LocalAlgorithm::kSfs;
  auto bnl_result = SubmitOnce(data, options, bnl);
  auto sfs_result = SubmitOnce(data, options, sfs);
  ASSERT_TRUE(bnl_result.ok());
  ASSERT_TRUE(sfs_result.ok());
  const int64_t bnl_cmps =
      bnl_result->jobs[1].counters.Get(mr::kCounterTupleComparisons);
  const int64_t sfs_cmps =
      sfs_result->jobs[1].counters.Get(mr::kCounterTupleComparisons);
  EXPECT_LT(sfs_cmps, bnl_cmps);
}

TEST(LocalAlgorithmTest, SfsRespectsConstraints) {
  const Dataset data = data::GenerateAntiCorrelated(1500, 3, 41);
  Box box;
  box.lo.assign(3, 0.25);
  box.hi.assign(3, 0.75);
  SessionOptions options;
  options.engine.num_reducers = 3;
  options.ppd.max_candidate = 4;
  QuerySpec bnl;
  bnl.algorithm = Algorithm::kMrGpmrs;
  bnl.constraint = box;
  bnl.local_algorithm = core::LocalAlgorithm::kBnl;
  QuerySpec sfs = bnl;
  sfs.local_algorithm = core::LocalAlgorithm::kSfs;
  auto bnl_result = SubmitOnce(data, options, bnl);
  auto sfs_result = SubmitOnce(data, options, sfs);
  ASSERT_TRUE(bnl_result.ok());
  ASSERT_TRUE(sfs_result.ok());
  EXPECT_TRUE(
      SameIdSet(bnl_result->SkylineIds(), sfs_result->SkylineIds()));
}

TEST(LocalAlgorithmTest, BbsRespectsConstraints) {
  const Dataset data = data::GenerateAntiCorrelated(1500, 3, 41);
  Box box;
  box.lo.assign(3, 0.25);
  box.hi.assign(3, 0.75);
  SessionOptions options;
  options.engine.num_reducers = 3;
  options.ppd.max_candidate = 4;
  QuerySpec bnl;
  bnl.algorithm = Algorithm::kMrGpmrs;
  bnl.constraint = box;
  bnl.local_algorithm = core::LocalAlgorithm::kBnl;
  QuerySpec bbs = bnl;
  bbs.local_algorithm = core::LocalAlgorithm::kBbs;
  auto bnl_result = SubmitOnce(data, options, bnl);
  auto bbs_result = SubmitOnce(data, options, bbs);
  ASSERT_TRUE(bnl_result.ok());
  ASSERT_TRUE(bbs_result.ok());
  EXPECT_TRUE(
      SameIdSet(bnl_result->SkylineIds(), bbs_result->SkylineIds()));
}

TEST(LocalAlgorithmTest, BbsEmitsInstrumentationCounters) {
  const Dataset data = data::GenerateAntiCorrelated(4000, 6, 53);
  SessionOptions options;
  options.engine.num_map_tasks = 2;
  options.ppd.explicit_ppd = 2;  // Coarse grid: big per-partition workloads.
  QuerySpec query;
  query.algorithm = Algorithm::kMrGpsrs;
  query.local_algorithm = core::LocalAlgorithm::kBbs;
  auto result = SubmitOnce(data, options, query);
  ASSERT_TRUE(result.ok());
  const auto& counters = result->jobs[1].counters;
  EXPECT_GT(counters.Get(core::kCounterBbsNodesVisited), 0);
  EXPECT_GT(counters.Get(core::kCounterBbsHeapPeak), 0);
  EXPECT_GT(counters.Get(mr::kCounterTupleComparisons), 0);
}

TEST(LocalAlgorithmTest, AutoRecordsItsPerPartitionChoices) {
  // dim=6 with a coarse grid: large partitions route to BBS, small ones
  // to SFS; both decision counters and the choice itself are visible.
  const Dataset data = data::GenerateAntiCorrelated(4000, 6, 59);
  SessionOptions options;
  options.engine.num_map_tasks = 2;
  options.ppd.explicit_ppd = 2;
  QuerySpec query;
  query.algorithm = Algorithm::kMrGpsrs;
  query.local_algorithm = core::LocalAlgorithm::kAuto;
  auto result = SubmitOnce(data, options, query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ExplainSkylineMismatch(data, result->SkylineIds()), "");
  const auto& counters = result->jobs[1].counters;
  EXPECT_GT(counters.Get(core::kCounterBbsAutoBbs) +
                counters.Get(core::kCounterBbsAutoSfs),
            0);
}

TEST(LocalAlgorithmTest, ResolveAutoKernelCrossover) {
  using core::LocalAlgorithm;
  // Below the crossover dimensionality SFS wins regardless of size.
  EXPECT_EQ(core::ResolveAutoKernel(100000, 4), LocalAlgorithm::kSfs);
  // Tiny partitions never pay for the tree build.
  EXPECT_EQ(core::ResolveAutoKernel(100, 8), LocalAlgorithm::kSfs);
  // Big, high-dimensional partitions are BBS territory.
  EXPECT_EQ(core::ResolveAutoKernel(512, 5), LocalAlgorithm::kBbs);
  EXPECT_EQ(core::ResolveAutoKernel(10000, 8), LocalAlgorithm::kBbs);
}

TEST(LocalAlgorithmTest, Names) {
  EXPECT_STREQ(core::LocalAlgorithmName(core::LocalAlgorithm::kBnl), "bnl");
  EXPECT_STREQ(core::LocalAlgorithmName(core::LocalAlgorithm::kSfs), "sfs");
  EXPECT_STREQ(core::LocalAlgorithmName(core::LocalAlgorithm::kBbs), "bbs");
  EXPECT_STREQ(core::LocalAlgorithmName(core::LocalAlgorithm::kAuto),
               "auto");
}

TEST(LocalAlgorithmTest, ParseLocalAlgorithm) {
  using core::LocalAlgorithm;
  EXPECT_EQ(core::ParseLocalAlgorithm("bnl").value(), LocalAlgorithm::kBnl);
  EXPECT_EQ(core::ParseLocalAlgorithm("sfs").value(), LocalAlgorithm::kSfs);
  EXPECT_EQ(core::ParseLocalAlgorithm("bbs").value(), LocalAlgorithm::kBbs);
  EXPECT_EQ(core::ParseLocalAlgorithm("auto").value(),
            LocalAlgorithm::kAuto);
  EXPECT_FALSE(core::ParseLocalAlgorithm("bogus").ok());
  EXPECT_FALSE(core::ParseLocalAlgorithm("").ok());
}

}  // namespace
}  // namespace skymr

#include "src/core/hybrid.h"

#include <gtest/gtest.h>

#include "src/core/partition_bitstring.h"
#include "src/data/generator.h"
#include "src/relation/skyline_verify.h"

namespace skymr::core {
namespace {

Grid MakeGrid(size_t dim, uint32_t ppd) {
  return std::move(Grid::Create(dim, ppd, Bounds::UnitCube(dim))).value();
}

BitstringBuildResult BuildFor(const Dataset& data, const Grid& grid) {
  BitstringBuildResult result;
  result.ppd = grid.ppd();
  result.bits = BuildLocalBitstring(grid, data, 0,
                                    static_cast<TupleId>(data.size()));
  result.nonempty = result.bits.Count();
  result.pruned = PruneDominated(grid, &result.bits);
  return result;
}

TEST(EstimateSkylineFractionTest, MatchesExactFractionOnSmallData) {
  const Dataset data = data::GenerateIndependent(1000, 3, 3);
  // sample_size >= data size: the estimate is the exact fraction.
  const double estimate = EstimateSkylineFraction(data, 100000);
  const double exact = static_cast<double>(ReferenceSkyline(data).size()) /
                       static_cast<double>(data.size());
  EXPECT_DOUBLE_EQ(estimate, exact);
}

TEST(EstimateSkylineFractionTest, EmptyAndDegenerate) {
  EXPECT_DOUBLE_EQ(EstimateSkylineFraction(Dataset(2), 100), 0.0);
  const Dataset data = data::GenerateIndependent(10, 2, 1);
  EXPECT_DOUBLE_EQ(EstimateSkylineFraction(data, 0), 0.0);
}

TEST(EstimateSkylineFractionTest, DiscriminatesDistributions) {
  const Dataset indep = data::GenerateIndependent(20000, 3, 5);
  const Dataset anti = data::GenerateAntiCorrelated(20000, 3, 5);
  const double f_indep = EstimateSkylineFraction(indep, 2048);
  const double f_anti = EstimateSkylineFraction(anti, 2048);
  EXPECT_LT(f_indep, 0.05);
  EXPECT_GT(f_anti, 0.05);
  EXPECT_GT(f_anti, 3.0 * f_indep);
}

TEST(HybridTest, IndependentLowDimPicksSingleReducer) {
  // Section 7: "MR-GPSRS performs marginally better when the skyline
  // fraction is small."
  const Dataset data = data::GenerateIndependent(8000, 3, 7);
  const Grid grid = MakeGrid(3, 4);
  const BitstringBuildResult bitstring = BuildFor(data, grid);
  const HybridDecision decision =
      DecideHybrid(data, grid, bitstring);
  EXPECT_FALSE(decision.use_multiple_reducers);
  EXPECT_EQ(decision.num_reducers, 1);
}

TEST(HybridTest, AntiCorrelatedPicksMultipleReducers) {
  // Section 7: "MR-GPMRS performs significantly better when a large
  // fraction of the tuples are in the skyline."
  const Dataset data = data::GenerateAntiCorrelated(8000, 4, 7);
  const Grid grid = MakeGrid(4, 3);
  const BitstringBuildResult bitstring = BuildFor(data, grid);
  const HybridDecision decision =
      DecideHybrid(data, grid, bitstring);
  EXPECT_TRUE(decision.use_multiple_reducers);
  EXPECT_GT(decision.num_reducers, 1);
  EXPECT_GT(decision.sampled_skyline_fraction, 0.15);
}

TEST(HybridTest, ReducersCappedByGroupCount) {
  Dataset data(2);
  data.Append({0.1, 0.9});
  data.Append({0.9, 0.1});  // Two incomparable cells -> two groups.
  const Grid grid = MakeGrid(2, 4);
  const BitstringBuildResult bitstring = BuildFor(data, grid);
  // Both tuples are skyline tuples: a fraction of 1 takes the GPMRS
  // branch, and its 13 reducers are capped at the 2 groups.
  const HybridDecision decision = DecideHybrid(data, grid, bitstring);
  EXPECT_DOUBLE_EQ(decision.sampled_skyline_fraction, 1.0);
  EXPECT_TRUE(decision.use_multiple_reducers);
  EXPECT_EQ(decision.num_groups, 2u);
  EXPECT_EQ(decision.num_reducers, 2);
}

TEST(HybridTest, SingleGroupForcesSingleReducer) {
  Dataset data(2);
  data.Append({0.1, 0.1});  // One cell, one group.
  const Grid grid = MakeGrid(2, 4);
  const BitstringBuildResult bitstring = BuildFor(data, grid);
  // A skyline fraction of 1 would take the GPMRS branch, but one group
  // leaves nothing for a second reducer.
  const HybridDecision decision = DecideHybrid(data, grid, bitstring);
  EXPECT_DOUBLE_EQ(decision.sampled_skyline_fraction, 1.0);
  EXPECT_FALSE(decision.use_multiple_reducers);
  EXPECT_EQ(decision.num_reducers, 1);
}

TEST(HybridTest, EmptyDatasetSafe) {
  const Dataset data(2);
  const Grid grid = MakeGrid(2, 3);
  BitstringBuildResult bitstring;
  bitstring.ppd = 3;
  bitstring.bits = DynamicBitset(9);
  bitstring.nonempty = 0;
  const HybridDecision decision =
      DecideHybrid(data, grid, bitstring);
  EXPECT_FALSE(decision.use_multiple_reducers);
  EXPECT_EQ(decision.num_reducers, 1);
  EXPECT_DOUBLE_EQ(decision.sampled_skyline_fraction, 0.0);
}

}  // namespace
}  // namespace skymr::core

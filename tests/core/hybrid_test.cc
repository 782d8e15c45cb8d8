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

TEST(EstimateInScopeRowsTest, UnconstrainedIsExactlyN) {
  const Dataset data = data::GenerateIndependent(20000, 3, 5);
  EXPECT_EQ(EstimateInScopeRows(data, std::nullopt), 20000u);
  EXPECT_EQ(EstimateInScopeRows(Dataset(2), Box{{0.0, 0.0}, {1.0, 1.0}}),
            0u);
}

TEST(EstimateInScopeRowsTest, SmallDataCountsEveryRow) {
  // Up to kHybridSampleSize rows the stride is 1: the count is exact.
  const Dataset data = data::GenerateIndependent(2000, 2, 7);
  const Box box{{0.0, 0.0}, {0.5, 0.7}};
  uint64_t exact = 0;
  for (TupleId id = 0; id < data.size(); ++id) {
    exact += box.Contains(data.RowPtr(id), data.dim()) ? 1 : 0;
  }
  EXPECT_EQ(EstimateInScopeRows(data, box), exact);
  EXPECT_EQ(EstimateInScopeRows(data, Box{{0.0, 0.0}, {1.0, 1.0}}), 2000u);
}

TEST(EstimateInScopeRowsTest, ScalesTheSampledShareToN) {
  const Dataset data = data::GenerateIndependent(100000, 3, 9);
  const Box box{{0.0, 0.0, 0.0}, {0.5, 0.5, 1.0}};  // A quarter of [0,1]^3.
  uint64_t exact = 0;
  for (TupleId id = 0; id < data.size(); ++id) {
    exact += box.Contains(data.RowPtr(id), data.dim()) ? 1 : 0;
  }
  const double estimate =
      static_cast<double>(EstimateInScopeRows(data, box));
  EXPECT_NEAR(estimate, static_cast<double>(exact), 0.05 * 100000);
  // A box no row reaches estimates zero rows.
  EXPECT_EQ(EstimateInScopeRows(data, Box{{2.0, 2.0, 2.0}, {3.0, 3.0, 3.0}}),
            0u);
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

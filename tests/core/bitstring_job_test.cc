#include "src/core/bitstring_job.h"

#include <memory>

#include <gtest/gtest.h>

#include "src/data/generator.h"

namespace skymr::core {
namespace {

std::shared_ptr<const Dataset> Share(Dataset data) {
  return std::make_shared<const Dataset>(std::move(data));
}

BitstringJobConfig ConfigFor(const Dataset& data,
                             std::vector<uint32_t> candidates) {
  BitstringJobConfig config;
  config.bounds = Bounds::UnitCube(data.dim());
  config.candidates = std::move(candidates);
  config.cardinality = data.size();
  return config;
}

TEST(BitstringJobTest, FixedPpdMatchesSequentialComputation) {
  const auto data = Share(data::GenerateIndependent(2000, 2, 17));
  const auto config = ConfigFor(*data, {4});
  mr::EngineOptions engine;
  engine.num_map_tasks = 5;
  auto run = RunBitstringJob(data, config, engine);
  ASSERT_TRUE(run.ok()) << run.status();

  // Sequential reference: Equation 1 then Equation 2 on the whole dataset.
  const Grid grid =
      std::move(Grid::Create(2, 4, Bounds::UnitCube(2))).value();
  DynamicBitset expected = BuildLocalBitstring(
      grid, *data, 0, static_cast<TupleId>(data->size()));
  const uint64_t nonempty = expected.Count();
  const uint64_t pruned = PruneDominated(grid, &expected);

  EXPECT_EQ(run->result.ppd, 4u);
  EXPECT_EQ(run->result.bits, expected);
  EXPECT_EQ(run->result.nonempty, nonempty);
  EXPECT_EQ(run->result.pruned, pruned);
}

TEST(BitstringJobTest, SplitCountDoesNotChangeResult) {
  const auto data = Share(data::GenerateAntiCorrelated(1000, 3, 23));
  const auto config = ConfigFor(*data, {3});
  DynamicBitset reference;
  for (const int m : {1, 2, 7, 16}) {
    mr::EngineOptions engine;
    engine.num_map_tasks = m;
    auto run = RunBitstringJob(data, config, engine);
    ASSERT_TRUE(run.ok());
    if (reference.empty()) {
      reference = run->result.bits;
    } else {
      EXPECT_EQ(run->result.bits, reference) << "m=" << m;
    }
    EXPECT_EQ(run->metrics.map_tasks.size(), static_cast<size_t>(m));
    EXPECT_EQ(run->metrics.reduce_tasks.size(), 1u);  // Single reducer.
  }
}

TEST(BitstringJobTest, CandidateSeriesReportsOccupancies) {
  const auto data = Share(data::GenerateIndependent(5000, 2, 29));
  auto config = ConfigFor(*data, {2, 3, 4, 5});
  config.ppd.strategy = PpdStrategy::kPaperLiteral;
  mr::EngineOptions engine;
  engine.num_map_tasks = 3;
  auto run = RunBitstringJob(data, config, engine);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->result.occupancies.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    const auto& [ppd, rho] = run->result.occupancies[i];
    EXPECT_EQ(ppd, i + 2);
    // 5000 uniform tuples fill small grids completely.
    const uint64_t cells = ppd * ppd;
    EXPECT_EQ(rho, cells) << "ppd=" << ppd;
  }
  // Paper-literal selection with full occupancy everywhere picks the
  // largest candidate.
  EXPECT_EQ(run->result.ppd, 5u);
}

TEST(BitstringJobTest, PruningClearsDominatedPartitions) {
  // Uniform 2-d data at PPD 3 fills all 9 cells; Equation 2 leaves the
  // two boundary surfaces (rho_rem(3,2) = 5 cells).
  const auto data = Share(data::GenerateIndependent(5000, 2, 31));
  const auto config = ConfigFor(*data, {3});
  mr::EngineOptions engine;
  auto run = RunBitstringJob(data, config, engine);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->result.nonempty, 9u);
  EXPECT_EQ(run->result.pruned, 4u);
  EXPECT_EQ(run->result.bits.Count(), 5u);
  EXPECT_EQ(run->metrics.counters.Get(mr::kCounterPartitionsPruned), 4);
}

TEST(BitstringJobTest, EmptyDatasetProducesEmptyBitstring) {
  const auto data = Share(Dataset(2));
  const auto config = ConfigFor(*data, {2, 3});
  mr::EngineOptions engine;
  auto run = RunBitstringJob(data, config, engine);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->result.bits.None());
  EXPECT_EQ(run->result.nonempty, 0u);
}

TEST(BitstringJobTest, ValidatesInputs) {
  const auto data = Share(data::GenerateIndependent(10, 2, 1));
  mr::EngineOptions engine;
  // No candidates.
  EXPECT_FALSE(RunBitstringJob(data, ConfigFor(*data, {}), engine).ok());
  // Dimension mismatch in bounds.
  BitstringJobConfig bad = ConfigFor(*data, {2});
  bad.bounds = Bounds::UnitCube(3);
  EXPECT_FALSE(RunBitstringJob(data, bad, engine).ok());
  // Null dataset.
  EXPECT_FALSE(
      RunBitstringJob(nullptr, ConfigFor(*data, {2}), engine).ok());
}

TEST(BitstringJobTest, ResultSerdeRoundTrip) {
  BitstringBuildResult result;
  result.ppd = 3;
  result.bits = DynamicBitset::FromString("011110100");
  result.nonempty = 5;
  result.pruned = 2;
  result.occupancies = {{2, 4}, {3, 5}};
  const auto round = DeserializeFromBytes<BitstringBuildResult>(
      SerializeToBytes(result));
  EXPECT_EQ(round.ppd, 3u);
  EXPECT_EQ(round.bits, result.bits);
  EXPECT_EQ(round.nonempty, 5u);
  EXPECT_EQ(round.pruned, 2u);
  EXPECT_EQ(round.occupancies, result.occupancies);
  // The reducer's output bytes are counted, not encoded.
  EXPECT_EQ(SerializedByteSize(result), SerializeToBytes(result).size());
  EXPECT_EQ(SerializedByteSize(BitstringBuildResult{}),
            SerializeToBytes(BitstringBuildResult{}).size());
}

TEST(BitstringJobTest, ShuffleBytesScaleWithCandidates) {
  const auto data = Share(data::GenerateIndependent(500, 2, 37));
  mr::EngineOptions engine;
  engine.num_map_tasks = 4;
  auto one = RunBitstringJob(data, ConfigFor(*data, {4}), engine);
  auto three = RunBitstringJob(data, ConfigFor(*data, {2, 3, 4}), engine);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(three.ok());
  EXPECT_GT(three->metrics.shuffle_bytes, one->metrics.shuffle_bytes);
}

}  // namespace
}  // namespace skymr::core

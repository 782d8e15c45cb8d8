#include "src/core/gpsrs.h"

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "src/core/partition_bitstring.h"
#include "src/data/generator.h"
#include "src/relation/skyline_verify.h"

namespace skymr::core {
namespace {

struct Prepared {
  std::shared_ptr<const Dataset> data;
  std::unique_ptr<Grid> grid;
  DynamicBitset bits;
};

Prepared Prepare(Dataset dataset, uint32_t ppd) {
  Prepared p;
  p.data = std::make_shared<const Dataset>(std::move(dataset));
  p.grid = std::make_unique<Grid>(std::move(
      Grid::Create(p.data->dim(), ppd, Bounds::UnitCube(p.data->dim())))
                                      .value());
  p.bits = BuildLocalBitstring(*p.grid, *p.data, 0,
                               static_cast<TupleId>(p.data->size()));
  PruneDominated(*p.grid, &p.bits);
  return p;
}

TEST(GpsrsTest, ComputesExactSkyline) {
  const Prepared p = Prepare(data::GenerateIndependent(3000, 3, 41), 4);
  mr::EngineOptions engine;
  engine.num_map_tasks = 6;
  auto run = RunGpsrsJob(p.data, *p.grid, p.bits, engine);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(ExplainSkylineMismatch(*p.data, run->skyline.ids()), "");
}

TEST(GpsrsTest, MapperCountInvariance) {
  const Prepared p = Prepare(data::GenerateAntiCorrelated(1200, 4, 43), 3);
  std::vector<TupleId> reference;
  for (const int m : {1, 3, 8, 20}) {
    mr::EngineOptions engine;
    engine.num_map_tasks = m;
    auto run = RunGpsrsJob(p.data, *p.grid, p.bits, engine);
    ASSERT_TRUE(run.ok());
    std::vector<TupleId> ids = run->skyline.ids();
    std::sort(ids.begin(), ids.end());
    if (reference.empty()) {
      reference = ids;
      EXPECT_EQ(ExplainSkylineMismatch(*p.data, ids), "");
    } else {
      EXPECT_EQ(ids, reference) << "m=" << m;
    }
  }
}

TEST(GpsrsTest, AlwaysSingleReducer) {
  const Prepared p = Prepare(data::GenerateIndependent(500, 2, 47), 3);
  mr::EngineOptions engine;
  engine.num_reducers = 8;  // Must be overridden to 1.
  auto run = RunGpsrsJob(p.data, *p.grid, p.bits, engine);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->metrics.reduce_tasks.size(), 1u);
}

TEST(GpsrsTest, EmptyDataset) {
  const Prepared p = Prepare(Dataset(3), 2);
  mr::EngineOptions engine;
  auto run = RunGpsrsJob(p.data, *p.grid, p.bits, engine);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->skyline.empty());
}

TEST(GpsrsTest, SingleTuple) {
  Dataset dataset(2);
  dataset.Append({0.5, 0.5});
  const Prepared p = Prepare(std::move(dataset), 3);
  mr::EngineOptions engine;
  engine.num_map_tasks = 4;
  auto run = RunGpsrsJob(p.data, *p.grid, p.bits, engine);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->skyline.size(), 1u);
  EXPECT_EQ(run->skyline.IdAt(0), 0u);
}

TEST(GpsrsTest, DuplicateTuplesAllReported) {
  Dataset dataset(2);
  for (int i = 0; i < 4; ++i) {
    dataset.Append({0.1, 0.2});
  }
  dataset.Append({0.9, 0.9});  // Dominated.
  const Prepared p = Prepare(std::move(dataset), 2);
  mr::EngineOptions engine;
  engine.num_map_tasks = 3;
  auto run = RunGpsrsJob(p.data, *p.grid, p.bits, engine);
  ASSERT_TRUE(run.ok());
  std::vector<TupleId> ids = run->skyline.ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<TupleId>{0, 1, 2, 3}));
}

int64_t MapSideCounter(const SkylineJobRun& run, const char* counter) {
  int64_t total = 0;
  for (const mr::TaskMetrics& task : run.metrics.map_tasks) {
    total += task.counters.Get(counter);
  }
  return total;
}

TEST(GpsrsTest, PruningSavesMapSideWork) {
  // With uniform data, tuples in dominated partitions are dropped at the
  // mappers (Algorithm 3 line 4) instead of being inserted into windows
  // that ComparePartitions then empties, so the mappers test fewer tuples
  // and compare fewer partitions than in a run with an all-ones
  // bitstring. Emptied windows are not shipped, so both runs ship about
  // the same bytes.
  const Dataset dataset = data::GenerateIndependent(4000, 2, 53);
  const Prepared pruned = Prepare(dataset, 5);

  Prepared unpruned;
  unpruned.data = pruned.data;
  unpruned.grid = std::make_unique<Grid>(*pruned.grid);
  unpruned.bits = DynamicBitset(pruned.grid->num_cells());
  unpruned.bits.Fill();

  mr::EngineOptions engine;
  engine.num_map_tasks = 4;
  auto run_pruned =
      RunGpsrsJob(pruned.data, *pruned.grid, pruned.bits, engine);
  auto run_unpruned =
      RunGpsrsJob(unpruned.data, *unpruned.grid, unpruned.bits, engine);
  ASSERT_TRUE(run_pruned.ok());
  ASSERT_TRUE(run_unpruned.ok());
  EXPECT_LT(MapSideCounter(*run_pruned, mr::kCounterTupleComparisons),
            MapSideCounter(*run_unpruned, mr::kCounterTupleComparisons));
  EXPECT_LT(MapSideCounter(*run_pruned, mr::kCounterPartitionComparisons),
            MapSideCounter(*run_unpruned, mr::kCounterPartitionComparisons));
  EXPECT_LE(run_pruned->metrics.shuffle_bytes,
            run_unpruned->metrics.shuffle_bytes);
  EXPECT_GT(run_pruned->metrics.counters.Get(mr::kCounterTuplesPruned), 0);
  // Both still compute the right skyline.
  EXPECT_EQ(ExplainSkylineMismatch(*pruned.data, run_pruned->skyline.ids()),
            "");
  EXPECT_EQ(
      ExplainSkylineMismatch(*unpruned.data, run_unpruned->skyline.ids()),
      "");
}

TEST(GpsrsTest, CountersPopulated) {
  const Prepared p = Prepare(data::GenerateIndependent(2000, 3, 59), 3);
  mr::EngineOptions engine;
  engine.num_map_tasks = 4;
  auto run = RunGpsrsJob(p.data, *p.grid, p.bits, engine);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->metrics.counters.Get(mr::kCounterTupleComparisons), 0);
  EXPECT_GT(run->metrics.counters.Get(mr::kCounterPartitionComparisons), 0);
}

TEST(GpsrsTest, RejectsMismatchedBitstring) {
  const Prepared p = Prepare(data::GenerateIndependent(100, 2, 61), 3);
  DynamicBitset wrong_size(4);
  mr::EngineOptions engine;
  EXPECT_FALSE(RunGpsrsJob(p.data, *p.grid, wrong_size, engine).ok());
  EXPECT_FALSE(RunGpsrsJob(nullptr, *p.grid, p.bits, engine).ok());
}

}  // namespace
}  // namespace skymr::core

#include "src/core/gpmrs.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/serde.h"
#include "src/core/gpsrs.h"
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

/// The grid over the unit cube and its pruned bitstring. Under a
/// constraint only in-box tuples set bits, as in the bitstring job.
Prepared Prepare(Dataset dataset, uint32_t ppd,
                 const std::optional<Box>& constraint = std::nullopt) {
  Prepared p;
  p.data = std::make_shared<const Dataset>(std::move(dataset));
  p.grid = std::make_unique<Grid>(std::move(
      Grid::Create(p.data->dim(), ppd, Bounds::UnitCube(p.data->dim())))
                                      .value());
  if (constraint.has_value()) {
    p.bits = DynamicBitset(p.grid->num_cells());
    for (size_t i = 0; i < p.data->size(); ++i) {
      const double* row = p.data->RowPtr(static_cast<TupleId>(i));
      if (constraint->Contains(row, p.data->dim())) {
        p.bits.Set(p.grid->CellOf(row));
      }
    }
  } else {
    p.bits = BuildLocalBitstring(*p.grid, *p.data, 0,
                                 static_cast<TupleId>(p.data->size()));
  }
  PruneDominated(*p.grid, &p.bits);
  return p;
}

std::vector<TupleId> SortedIds(const SkylineWindow& window) {
  std::vector<TupleId> ids = window.ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(GpmrsTest, ComputesExactSkyline) {
  const Prepared p = Prepare(data::GenerateAntiCorrelated(2500, 3, 71), 4);
  mr::EngineOptions engine;
  engine.num_map_tasks = 5;
  engine.num_reducers = 4;
  auto run = RunGpmrsJob(p.data, *p.grid, p.bits,
                         GroupMergeStrategy::kComputationCost, engine);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(ExplainSkylineMismatch(*p.data, run->skyline.ids()), "");
}

using ConfigParam =
    std::tuple<int /*mappers*/, int /*reducers*/, GroupMergeStrategy,
               data::Distribution, size_t /*dim*/, bool /*constrained*/>;

class GpmrsConfigProperty : public ::testing::TestWithParam<ConfigParam> {};

TEST_P(GpmrsConfigProperty, SkylineInvariantUnderConfiguration) {
  const auto& [mappers, reducers, strategy, distribution, dim, constrained] =
      GetParam();
  data::GeneratorConfig gen;
  gen.distribution = distribution;
  gen.cardinality = 1500;
  gen.dim = dim;
  gen.seed = 73;
  std::optional<Box> box;
  if (constrained) {
    box = Box{std::vector<double>(dim, 0.2), std::vector<double>(dim, 0.8)};
  }
  const Prepared p = Prepare(std::move(data::Generate(gen)).value(), 3, box);
  mr::EngineOptions engine;
  engine.num_map_tasks = mappers;
  engine.num_reducers = reducers;
  auto run = RunGpmrsJob(p.data, *p.grid, p.bits, strategy, engine,
                         /*pool=*/nullptr, box);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(box.has_value()
                ? ExplainSkylineMismatch(*p.data, *box, run->skyline.ids())
                : ExplainSkylineMismatch(*p.data, run->skyline.ids()),
            "");
  EXPECT_EQ(run->metrics.reduce_tasks.size(),
            static_cast<size_t>(reducers));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GpmrsConfigProperty,
    ::testing::Combine(
        ::testing::Values(1, 4, 9), ::testing::Values(1, 2, 5, 17),
        ::testing::Values(GroupMergeStrategy::kRoundRobin,
                          GroupMergeStrategy::kComputationCost,
                          GroupMergeStrategy::kCommunicationCost,
                          GroupMergeStrategy::kBalanced),
        ::testing::Values(data::Distribution::kIndependent,
                          data::Distribution::kAntiCorrelated),
        ::testing::Values(size_t{3}, size_t{6}), ::testing::Bool()),
    ([](const auto& info) {
      const auto& [m, r, s, distribution, dim, constrained] = info.param;
      std::string name = "m";
      name += std::to_string(m);
      name += "_r";
      name += std::to_string(r);
      name += "_";
      name += GroupMergeStrategyName(s);
      name += "_";
      name += data::DistributionName(distribution);
      name += "_d";
      name += std::to_string(dim);
      if (constrained) {
        name += "_box";
      }
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    }));

TEST(GpmrsTest, ReplicaDominatorFromAnotherMapperFiltersResponsibleTuple) {
  // PPD 2 over the unit square; cells 0 = [0,.5)^2, 1 = [.5,1)x[0,.5),
  // 2 = [0,.5)x[.5,1). The groups are seeded by cells 2 and 1, both
  // holding cell 0, which only one of them outputs. In the other group
  // cell 0 is a replica that receives tuple 0 from mapper 0 and tuple 2,
  // which dominates it, from mapper 1. Tuple 2 is the only tuple
  // dominating the responsible tuple 1; tuple 0 does not.
  Dataset dataset(2);
  dataset.Append({0.2, 0.4});   // Mapper 0, cell 0.
  dataset.Append({0.6, 0.3});   // Mapper 0, cell 1.
  dataset.Append({0.1, 0.2});   // Mapper 1, cell 0.
  dataset.Append({0.05, 0.9});  // Mapper 1, cell 2.
  const Prepared p = Prepare(std::move(dataset), 2);
  const std::vector<ReducerGroup> groups = AssignGroupsToReducers(
      *p.grid, GenerateIndependentGroups(*p.grid, p.bits), 2,
      GroupMergeStrategy::kComputationCost);
  ASSERT_EQ(groups.size(), 2u);
  const auto outputs = [](const ReducerGroup& group, CellId cell) {
    return std::count(group.responsible.begin(), group.responsible.end(),
                      cell) > 0;
  };
  const ReducerGroup& group = outputs(groups[0], 1) ? groups[0] : groups[1];
  ASSERT_TRUE(outputs(group, 1));
  ASSERT_FALSE(outputs(group, 0));
  ASSERT_EQ(group.cells, (std::vector<CellId>{0, 1}));

  mr::EngineOptions engine;
  engine.num_map_tasks = 2;
  engine.num_reducers = 2;
  auto run = RunGpmrsJob(p.data, *p.grid, p.bits,
                         GroupMergeStrategy::kComputationCost, engine);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(SortedIds(run->skyline), (std::vector<TupleId>{2, 3}));
}

TEST(GpmrsTest, ReducersTestFewerTuplesThanFullGroupFilters) {
  // Replays Algorithm 8 on the engine's splits to rebuild every reducer's
  // decoded payloads, then counts the tuple tests of merging and
  // filtering every received cell. The job's reducers filter only the
  // cells they output, so they must test fewer. Mappers ship only the
  // windows ComparePartitions left non-empty, so the replay's encoded
  // keys and payloads are exactly the job's shuffle bytes.
  constexpr int kMappers = 4;
  constexpr int kReducers = 4;
  const Prepared p = Prepare(data::GenerateAntiCorrelated(2000, 6, 107), 2);
  const size_t dim = p.data->dim();
  mr::EngineOptions engine;
  engine.num_map_tasks = kMappers;
  engine.num_reducers = kReducers;
  auto run = RunGpmrsJob(p.data, *p.grid, p.bits,
                         GroupMergeStrategy::kComputationCost, engine);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(ExplainSkylineMismatch(*p.data, run->skyline.ids()), "");

  const std::vector<ReducerGroup> groups = AssignGroupsToReducers(
      *p.grid, GenerateIndependentGroups(*p.grid, p.bits), kReducers,
      GroupMergeStrategy::kComputationCost);
  std::vector<std::vector<LocalSkylineSet>> inboxes(groups.size());
  DominanceCounter map_counter;
  uint64_t shuffle_bytes = 0;
  const size_t n = p.data->size();
  size_t begin = 0;
  for (size_t s = 0; s < kMappers; ++s) {
    // The engine's contiguous splits: the first n % m get one extra row.
    const size_t end = begin + n / kMappers + (s < n % kMappers ? 1 : 0);
    CellWindowMap windows;
    for (size_t i = begin; i < end; ++i) {
      const auto id = static_cast<TupleId>(i);
      const CellId cell = p.grid->CellOf(p.data->RowPtr(id));
      if (p.bits.Test(cell)) {
        windows.try_emplace(cell, SkylineWindow(dim))
            .first->second.Insert(p.data->RowPtr(id), id, &map_counter);
      }
    }
    CompareAllPartitions(*p.grid, &windows, &map_counter);
    for (uint32_t g = 0; g < groups.size(); ++g) {
      LocalSkylineSet payload;
      for (const CellId cell : groups[g].cells) {
        if (const auto it = windows.find(cell);
            it != windows.end() && !it->second.empty()) {
          payload.parts.push_back(PartitionSkyline{cell, it->second});
        }
      }
      ByteSink sink;
      Serde<uint32_t>::Write(g, &sink);
      const size_t key_bytes = sink.size();
      Serde<LocalSkylineSet>::Write(payload, &sink);
      shuffle_bytes += sink.size();
      ByteSource source(sink.data() + key_bytes, sink.size() - key_bytes);
      inboxes[g].push_back(Serde<LocalSkylineSet>::Read(&source));
    }
    begin = end;
  }

  int64_t map_side = 0;
  for (const mr::TaskMetrics& task : run->metrics.map_tasks) {
    map_side += task.counters.Get(mr::kCounterTupleComparisons);
  }
  ASSERT_EQ(map_side, static_cast<int64_t>(map_counter.count()))
      << "the replay does not rebuild the job's map side";
  EXPECT_EQ(run->metrics.shuffle_bytes, shuffle_bytes);
  DominanceCounter full_groups;
  for (const std::vector<LocalSkylineSet>& inbox : inboxes) {
    CellWindowMap windows;
    for (const LocalSkylineSet& payload : inbox) {
      MergeParts(payload.parts, dim, &windows, &full_groups);
    }
    CompareAllPartitions(*p.grid, &windows, &full_groups);
  }
  int64_t reduce_side = 0;
  for (const mr::TaskMetrics& task : run->metrics.reduce_tasks) {
    reduce_side += task.counters.Get(mr::kCounterTupleComparisons);
  }
  EXPECT_GT(reduce_side, 0);
  EXPECT_LT(reduce_side, static_cast<int64_t>(full_groups.count()));
}

// Drives NewGpmrsReducer() directly: the job context of three tuples on
// a 2-d, PPD 2 grid, two reducer groups, in a hand-built cache, and
// payloads encoded as the shuffle delivers them.
class GpmrsReducerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Dataset dataset(2);
    dataset.Append({0.2, 0.4});   // Cell 0.
    dataset.Append({0.6, 0.3});   // Cell 1.
    dataset.Append({0.05, 0.9});  // Cell 2.
    const Prepared p = Prepare(std::move(dataset), 2);
    auto context = std::make_shared<SkylineJobContext>(*p.grid, p.bits);
    context->reducer_groups = AssignGroupsToReducers(
        *p.grid, GenerateIndependentGroups(*p.grid, p.bits), 2,
        GroupMergeStrategy::kComputationCost);
    groups_ = context->reducer_groups;
    ASSERT_EQ(groups_.size(), 2u);
    ASSERT_TRUE(cache_
                    .Put(kCacheKeySkylineContext,
                         std::shared_ptr<const SkylineJobContext>(
                             std::move(context)))
                    .ok());
  }

  /// Runs a fresh reducer's Setup, then Reduce(key) over `payloads`.
  void Reduce(uint32_t key, const std::vector<LocalSkylineSet>& payloads) {
    std::vector<ByteSink> sinks(payloads.size());
    std::vector<mr::ValueIterator<LocalSkylineSet>::Slice> slices;
    for (size_t i = 0; i < payloads.size(); ++i) {
      Serde<LocalSkylineSet>::Write(payloads[i], &sinks[i]);
      slices.push_back({sinks[i].data(), sinks[i].size()});
    }
    mr::ValueIterator<LocalSkylineSet> values(slices.data(), slices.size());
    mr::ReduceContext<SkylineWindow> ctx(/*task_id=*/0, &cache_);
    const auto reducer = NewGpmrsReducer();
    reducer->Setup(ctx);
    reducer->Reduce(key, values, ctx);
  }

  mr::DistributedCache cache_;
  std::vector<ReducerGroup> groups_;
};

// The control for the rejection test below: a fixture that threw on
// every input would pass it vacuously. A mapper holding no rows sends
// each group an empty set.
TEST_F(GpmrsReducerTest, AcceptsItsOwnGroupsPayload) {
  EXPECT_NO_THROW(Reduce(0, {LocalSkylineSet{}, LocalSkylineSet{}}));
  EXPECT_NO_THROW(Reduce(1, {LocalSkylineSet{}}));
}

TEST_F(GpmrsReducerTest, KeyPastTheLastGroupIsATaskFailure) {
  const auto key = static_cast<uint32_t>(groups_.size());
  EXPECT_THROW(Reduce(key, {}), mr::TaskFailure);
  EXPECT_THROW(Reduce(key, {LocalSkylineSet{}}), mr::TaskFailure);
}

/// Per-task (input, output) record counts of one phase.
std::vector<std::pair<uint64_t, uint64_t>> Records(
    const std::vector<mr::TaskMetrics>& tasks) {
  std::vector<std::pair<uint64_t, uint64_t>> records;
  for (const mr::TaskMetrics& task : tasks) {
    records.emplace_back(task.input_records, task.output_records);
  }
  return records;
}

TEST(GpmrsTest, MatchesGpsrsResult) {
  // MR-GPSRS is MR-GPMRS with one reducer group, and at one reducer
  // Section 5.4.1 merges every group into one that holds, and outputs,
  // every set cell. So the two jobs must agree on the skyline and its
  // order, every counter, and every shuffled byte and record, under each
  // window kernel, with and without a constraint box.
  const Box box{std::vector<double>(4, 0.1), std::vector<double>(4, 0.7)};
  for (const LocalAlgorithm kernel :
       {LocalAlgorithm::kBnl, LocalAlgorithm::kSfs}) {
    for (const std::optional<Box>& constraint :
         {std::optional<Box>(), std::optional<Box>(box)}) {
      SCOPED_TRACE(std::string(LocalAlgorithmName(kernel)) +
                   (constraint.has_value() ? " boxed" : " unconstrained"));
      const Prepared p =
          Prepare(data::GenerateAntiCorrelated(3000, 4, 79), 4, constraint);
      mr::EngineOptions engine;
      engine.num_map_tasks = 4;
      engine.num_reducers = 1;
      auto gpsrs = RunGpsrsJob(p.data, *p.grid, p.bits, engine,
                               /*pool=*/nullptr, constraint, kernel);
      auto gpmrs = RunGpmrsJob(p.data, *p.grid, p.bits,
                               GroupMergeStrategy::kComputationCost, engine,
                               /*pool=*/nullptr, constraint, kernel);
      ASSERT_TRUE(gpsrs.ok()) << gpsrs.status();
      ASSERT_TRUE(gpmrs.ok()) << gpmrs.status();
      EXPECT_EQ(constraint.has_value()
                    ? ExplainSkylineMismatch(*p.data, *constraint,
                                             gpsrs->skyline.ids())
                    : ExplainSkylineMismatch(*p.data, gpsrs->skyline.ids()),
                "");
      EXPECT_EQ(gpmrs->skyline.ids(), gpsrs->skyline.ids());
      EXPECT_EQ(gpmrs->metrics.counters.values(),
                gpsrs->metrics.counters.values());
      EXPECT_EQ(gpmrs->metrics.shuffle_bytes, gpsrs->metrics.shuffle_bytes);
      EXPECT_EQ(Records(gpmrs->metrics.map_tasks),
                Records(gpsrs->metrics.map_tasks));
      EXPECT_EQ(Records(gpmrs->metrics.reduce_tasks),
                Records(gpsrs->metrics.reduce_tasks));
    }
  }
}

TEST(GpmrsTest, NoDuplicateOutputsWithReplicatedPartitions) {
  // Anti-correlated data creates many overlapping groups; replicated
  // partitions must be output by exactly one reducer (Section 5.4.2).
  const Prepared p = Prepare(data::GenerateAntiCorrelated(2000, 2, 83), 6);
  mr::EngineOptions engine;
  engine.num_map_tasks = 3;
  engine.num_reducers = 3;
  auto run = RunGpmrsJob(p.data, *p.grid, p.bits,
                         GroupMergeStrategy::kComputationCost, engine);
  ASSERT_TRUE(run.ok());
  std::vector<TupleId> ids = run->skyline.ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "duplicate skyline tuples emitted";
  EXPECT_EQ(ExplainSkylineMismatch(*p.data, run->skyline.ids()), "");
}

TEST(GpmrsTest, MoreReducersThanGroupsStillCorrect) {
  // A dataset collapsing into very few groups.
  Dataset dataset(2);
  dataset.Append({0.05, 0.05});
  dataset.Append({0.06, 0.04});
  dataset.Append({0.9, 0.9});
  const Prepared p = Prepare(std::move(dataset), 4);
  mr::EngineOptions engine;
  engine.num_reducers = 10;
  auto run = RunGpmrsJob(p.data, *p.grid, p.bits,
                         GroupMergeStrategy::kComputationCost, engine);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(ExplainSkylineMismatch(*p.data, run->skyline.ids()), "");
}

TEST(GpmrsTest, EmptyDataset) {
  const Prepared p = Prepare(Dataset(2), 3);
  mr::EngineOptions engine;
  engine.num_reducers = 4;
  auto run = RunGpmrsJob(p.data, *p.grid, p.bits,
                         GroupMergeStrategy::kComputationCost, engine);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->skyline.empty());
}

TEST(GpmrsTest, ReducerWorkIsDistributed) {
  // With enough groups and anti-correlated data, more than one reducer
  // must receive real work.
  const Prepared p = Prepare(data::GenerateAntiCorrelated(3000, 3, 89), 4);
  mr::EngineOptions engine;
  engine.num_map_tasks = 4;
  engine.num_reducers = 4;
  auto run = RunGpmrsJob(p.data, *p.grid, p.bits,
                         GroupMergeStrategy::kComputationCost, engine);
  ASSERT_TRUE(run.ok());
  int reducers_with_input = 0;
  for (const auto& task : run->metrics.reduce_tasks) {
    if (task.input_records > 0) {
      ++reducers_with_input;
    }
  }
  EXPECT_GT(reducers_with_input, 1);
}

TEST(GpmrsTest, CountersPopulated) {
  const Prepared p = Prepare(data::GenerateAntiCorrelated(1000, 3, 97), 3);
  mr::EngineOptions engine;
  engine.num_reducers = 3;
  auto run = RunGpmrsJob(p.data, *p.grid, p.bits,
                         GroupMergeStrategy::kComputationCost, engine);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->metrics.counters.Get(mr::kCounterTupleComparisons), 0);
  EXPECT_GT(run->metrics.counters.Get(mr::kCounterPartitionComparisons), 0);
}

TEST(GpmrsTest, RejectsBadInputs) {
  const Prepared p = Prepare(data::GenerateIndependent(100, 2, 101), 3);
  mr::EngineOptions engine;
  DynamicBitset wrong_size(4);
  EXPECT_FALSE(RunGpmrsJob(p.data, *p.grid, wrong_size,
                           GroupMergeStrategy::kComputationCost, engine)
                   .ok());
  EXPECT_FALSE(RunGpmrsJob(nullptr, *p.grid, p.bits,
                           GroupMergeStrategy::kComputationCost, engine)
                   .ok());
}

}  // namespace
}  // namespace skymr::core

#include "src/core/compare_partitions.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/data/generator.h"
#include "src/local/bnl.h"
#include "src/relation/skyline_verify.h"

namespace skymr::core {
namespace {

Grid MakeGrid(size_t dim, uint32_t ppd) {
  return std::move(Grid::Create(dim, ppd, Bounds::UnitCube(dim))).value();
}

// The all-pairs ComparePartitions loop the ADR walk replaced, kept as the
// reference: every ordered pair of occupied cells is tested for ADR
// membership on decoded coordinates.
bool InAdrOfCoords(size_t dim, const uint32_t* p, const uint32_t* q) {
  bool same = true;
  for (size_t k = 0; k < dim; ++k) {
    if (q[k] > p[k]) {
      return false;
    }
    same = same && q[k] == p[k];
  }
  return !same;
}

uint64_t AllPairsCompare(const Grid& grid, CellWindowMap* windows,
                         DominanceCounter* tuple_counter) {
  const size_t d = grid.dim();
  std::vector<CellId> cells;
  cells.reserve(windows->size());
  for (const auto& [cell, window] : *windows) {
    cells.push_back(cell);
  }
  std::vector<uint32_t> coords(cells.size() * d);
  for (size_t i = 0; i < cells.size(); ++i) {
    grid.CoordsOf(cells[i], &coords[i * d]);
  }

  uint64_t partition_comparisons = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    SkylineWindow& target = (*windows)[cells[i]];
    for (size_t j = 0; j < cells.size(); ++j) {
      if (i == j) {
        continue;
      }
      if (!InAdrOfCoords(d, &coords[i * d], &coords[j * d])) {
        continue;
      }
      ++partition_comparisons;
      target.RemoveDominatedBy((*windows)[cells[j]], tuple_counter);
    }
  }
  return partition_comparisons;
}

// The second reference, for the partition count alone: the same all-pairs
// order, but a pair counts only while both windows are non-empty, and a
// target stops once it is empty.
uint64_t NonEmptyPairsCompare(const Grid& grid, CellWindowMap* windows) {
  const size_t d = grid.dim();
  std::vector<CellId> cells;
  for (const auto& [cell, window] : *windows) {
    cells.push_back(cell);
  }
  uint64_t partition_comparisons = 0;
  for (const CellId p : cells) {
    SkylineWindow& target = (*windows)[p];
    const std::vector<uint32_t> p_coords = grid.Coords(p);
    for (const CellId q : cells) {
      if (target.empty()) {
        break;
      }
      const SkylineWindow& source = (*windows)[q];
      if (p == q || source.empty() ||
          !InAdrOfCoords(d, p_coords.data(), grid.Coords(q).data())) {
        continue;
      }
      ++partition_comparisons;
      target.RemoveDominatedBy(source, nullptr);
    }
  }
  return partition_comparisons;
}

SkylineWindow OneTuple(TupleId id, std::vector<double> row) {
  SkylineWindow window(row.size());
  window.AppendUnchecked(row.data(), id);
  return window;
}

TEST(CompareAllPartitionsTest, RemovesCrossPartitionFalsePositives) {
  const Grid grid = MakeGrid(2, 3);
  CellWindowMap windows;
  // Cells 0 = (0,0) and 1 = (1,0) are not related by partition dominance
  // (cell 0's max corner does not dominate cell 1's min corner), yet the
  // tuple in cell 0 dominates the tuple in cell 1: exactly the false
  // positive Algorithm 5 removes via the ADR check.
  windows.emplace(0, OneTuple(0, {0.2, 0.2}));
  windows.emplace(1, OneTuple(1, {0.4, 0.25}));  // Cell (1,0).
  const uint64_t comparisons = CompareAllPartitions(grid, &windows, nullptr);
  // Cell 1's ADR contains cell 0: one comparison; cell 0's ADR is empty.
  EXPECT_EQ(comparisons, 1u);
  EXPECT_EQ(windows[0].size(), 1u);
  EXPECT_EQ(windows[1].size(), 0u);
}

TEST(CompareAllPartitionsTest, IncomparableTuplesSurvive) {
  const Grid grid = MakeGrid(2, 3);
  CellWindowMap windows;
  windows.emplace(0, OneTuple(0, {0.3, 0.1}));
  windows.emplace(3, OneTuple(1, {0.1, 0.5}));  // Cell (0,1).
  CompareAllPartitions(grid, &windows, nullptr);
  EXPECT_EQ(windows[0].size(), 1u);
  EXPECT_EQ(windows[3].size(), 1u);
}

// PPD 2 over the unit cube: cells 0..3 are the bottom layer (z < .5),
// (0,0,0), (1,0,0), (0,1,0) and (1,1,0). ADR pairs among them:
// 1->{0}, 2->{0}, 3->{0,1,2}. The third coordinate keeps every pair of
// these rows incomparable, so no window empties.
CellWindowMap BottomLayerWindows(const Grid& grid) {
  CellWindowMap windows;
  windows.emplace(0, OneTuple(0, {0.4, 0.4, 0.45}));
  windows.emplace(1, OneTuple(1, {0.6, 0.3, 0.35}));
  windows.emplace(2, OneTuple(2, {0.3, 0.6, 0.25}));
  windows.emplace(3, OneTuple(3, {0.6, 0.6, 0.05}));
  for (const auto& [cell, window] : windows) {
    EXPECT_EQ(grid.CellOf(window.RowAt(0)), cell);
  }
  return windows;
}

TEST(CompareAllPartitionsTest, ComparisonCountMatchesAdrPairs) {
  const Grid grid = MakeGrid(3, 2);
  CellWindowMap windows = BottomLayerWindows(grid);
  CellWindowMap reference = windows;
  EXPECT_EQ(CompareAllPartitions(grid, &windows, nullptr), 5u);
  EXPECT_EQ(AllPairsCompare(grid, &reference, nullptr), 5u);
  EXPECT_TRUE(windows == reference);
  for (const auto& [cell, window] : windows) {
    EXPECT_EQ(window.size(), 1u) << "cell " << cell;
  }
}

TEST(CompareAllPartitionsTest, EmptiedTargetStopsItsWalk) {
  const Grid grid = MakeGrid(3, 2);
  CellWindowMap windows = BottomLayerWindows(grid);
  // Cell 3's row is now dominated by cell 0's, and by cell 1's.
  windows[3] = OneTuple(3, {0.6, 0.6, 0.46});
  ASSERT_EQ(grid.CellOf(windows[3].RowAt(0)), 3u);
  const std::vector<CellId> targets = {3};
  DominanceCounter counter;
  // Cells 0, 1 and 2 lie in cell 3's ADR, but its first source empties
  // it: one comparison, one tuple test.
  EXPECT_EQ(CompareAllPartitions(grid, &windows, &counter, &targets), 1u);
  EXPECT_EQ(counter.count(), 1u);
  EXPECT_TRUE(windows[3].empty());
  EXPECT_EQ(windows[0].size() + windows[1].size() + windows[2].size(), 3u);
}

TEST(CompareAllPartitionsTest, EmptySourceIsNotCounted) {
  const Grid grid = MakeGrid(3, 2);
  CellWindowMap windows = BottomLayerWindows(grid);
  windows[1] = SkylineWindow(3);
  CellWindowMap reference = windows;
  DominanceCounter counter;
  DominanceCounter reference_counter;
  // 2->{0} and 3->{0,2}; the empty cell 1 is neither filtered nor a
  // source. The all-pairs loop also counts 1->{0} and 3->{1}.
  EXPECT_EQ(CompareAllPartitions(grid, &windows, &counter), 3u);
  EXPECT_EQ(AllPairsCompare(grid, &reference, &reference_counter), 5u);
  EXPECT_TRUE(windows == reference);
  EXPECT_EQ(counter.count(), reference_counter.count());
  EXPECT_EQ(counter.count(), 3u);
}

TEST(CompareAllPartitionsTest, EmptyMapZeroComparisons) {
  const Grid grid = MakeGrid(2, 3);
  CellWindowMap windows;
  EXPECT_EQ(CompareAllPartitions(grid, &windows, nullptr), 0u);
}

TEST(CompareAllPartitionsTest, SinglePartitionZeroComparisons) {
  const Grid grid = MakeGrid(2, 3);
  CellWindowMap windows;
  windows.emplace(4, OneTuple(0, {0.5, 0.5}));
  EXPECT_EQ(CompareAllPartitions(grid, &windows, nullptr), 0u);
  EXPECT_EQ(windows[4].size(), 1u);
}

TEST(CompareAllPartitionsTest, ProducesGlobalSkylineFromCellWindows) {
  // Build per-cell local skylines for the full dataset; after
  // CompareAllPartitions the union must be exactly the global skyline.
  const Dataset dataset = data::GenerateIndependent(1500, 3, 31);
  const Grid grid = MakeGrid(3, 4);
  CellWindowMap windows;
  DominanceCounter counter;
  for (size_t i = 0; i < dataset.size(); ++i) {
    const auto id = static_cast<TupleId>(i);
    const CellId cell = grid.CellOf(dataset.RowPtr(id));
    auto [it, inserted] = windows.try_emplace(cell, SkylineWindow(3));
    it->second.Insert(dataset.RowPtr(id), id, &counter);
  }
  CompareAllPartitions(grid, &windows, &counter);
  std::vector<TupleId> ids;
  for (const auto& [cell, window] : windows) {
    ids.insert(ids.end(), window.ids().begin(), window.ids().end());
  }
  EXPECT_EQ(ExplainSkylineMismatch(dataset, ids), "");
  EXPECT_GT(counter.count(), 0u);
}

TEST(CompareAllPartitionsTest, CountsTupleChecksIntoCounter) {
  const Grid grid = MakeGrid(2, 2);
  CellWindowMap windows;
  windows.emplace(0, OneTuple(0, {0.2, 0.2}));
  windows.emplace(1, OneTuple(1, {0.6, 0.4}));
  DominanceCounter counter;
  CompareAllPartitions(grid, &windows, &counter);
  EXPECT_EQ(counter.count(), 1u);
}

// ---------------------------------------------------------------------
// The ADR walk against the all-pairs reference.
// ---------------------------------------------------------------------

/// The members the walk yields for `target`, up to the `limit`-th, where
/// the callback returns false.
std::vector<CellId> WalkAdr(AdrIndex* index, const std::vector<CellId>& cells,
                            const Grid& grid, CellId target,
                            size_t limit = SIZE_MAX) {
  std::vector<CellId> out;
  const std::vector<uint32_t> coords = grid.Coords(target);
  index->ForEachAdrMember(coords.data(), [&](size_t i) {
    out.push_back(cells[i]);
    return out.size() < limit;
  });
  return out;
}

TEST(AdrIndexTest, YieldsExactlyTheOccupiedAdrAscending) {
  Rng rng(1307);
  const std::vector<std::pair<size_t, uint32_t>> shapes = {
      {1, 1}, {1, 8}, {2, 3}, {2, 17}, {3, 4}, {4, 1}, {6, 2}, {6, 4},
      {8, 8}, {12, 4}};
  for (const auto& [dim, ppd] : shapes) {
    const Grid grid = MakeGrid(dim, ppd);
    for (int trial = 0; trial < 6; ++trial) {
      // Densities from empty to full on small grids; a few hundred random
      // cells on the sparse ones.
      std::vector<CellId> cells;
      const uint64_t n = grid.num_cells();
      if (n <= 4096) {
        const uint64_t keep = rng.NextBounded(5);  // Out of 4.
        for (CellId c = 0; c < n; ++c) {
          if (rng.NextBounded(4) < keep) {
            cells.push_back(c);
          }
        }
      } else {
        for (int k = 0; k < 300; ++k) {
          cells.push_back(rng.NextBounded(n));
        }
        std::sort(cells.begin(), cells.end());
        cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
      }
      AdrIndex index(grid, cells);
      // Occupied and arbitrary targets, plus the all-maximal corner cell.
      std::vector<CellId> targets;
      for (int k = 0; k < 40 && !cells.empty(); ++k) {
        targets.push_back(cells[rng.NextBounded(cells.size())]);
      }
      for (int k = 0; k < 20; ++k) {
        targets.push_back(rng.NextBounded(n));
      }
      targets.push_back(n - 1);
      for (const CellId p : targets) {
        std::vector<CellId> expected;
        for (const CellId q : cells) {
          if (grid.InAdrOf(p, q)) {
            expected.push_back(q);
          }
        }
        ASSERT_EQ(WalkAdr(&index, cells, grid, p), expected)
            << "d=" << dim << " ppd=" << ppd << " trial=" << trial
            << " p=" << p << " occupied=" << cells.size();
        if (expected.empty()) {
          continue;
        }
        // A callback that returns false at the k-th member sees exactly
        // the first k.
        const size_t k = 1 + rng.NextBounded(expected.size());
        ASSERT_EQ(WalkAdr(&index, cells, grid, p, k),
                  std::vector<CellId>(expected.begin(), expected.begin() + k))
            << "d=" << dim << " ppd=" << ppd << " trial=" << trial
            << " p=" << p << " k=" << k;
      }
    }
  }
}

using SweepParam = std::tuple<data::Distribution, std::pair<size_t, uint32_t>>;

class WalkMatchesAllPairsTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  static constexpr size_t kTuples = 600;
  static constexpr size_t kSplits = 3;

  /// Per-cell BNL windows of rows [begin, end), as a mapper builds them.
  static CellWindowMap SplitWindows(const Grid& grid, const Dataset& data,
                                    size_t begin, size_t end) {
    CellWindowMap windows;
    for (size_t i = begin; i < end; ++i) {
      const auto id = static_cast<TupleId>(i);
      auto [it, inserted] =
          windows.try_emplace(grid.CellOf(data.RowPtr(id)),
                              SkylineWindow(data.dim()));
      it->second.Insert(data.RowPtr(id), id, nullptr);
    }
    return windows;
  }

  /// Runs the walk on `windows` and both references on copies. The
  /// all-pairs loop must leave identical windows and tuple counts; the
  /// non-empty-pairs reference must count the same partition comparisons,
  /// at most the loop's. Returns the partition comparisons.
  static uint64_t ExpectSameAsReference(const Grid& grid,
                                        CellWindowMap* windows,
                                        const std::string& what) {
    CellWindowMap reference = *windows;
    CellWindowMap non_empty = *windows;
    DominanceCounter walked_tuples;
    DominanceCounter reference_tuples;
    const uint64_t walked_partitions =
        CompareAllPartitions(grid, windows, &walked_tuples);
    const uint64_t reference_partitions =
        AllPairsCompare(grid, &reference, &reference_tuples);
    EXPECT_EQ(walked_partitions, NonEmptyPairsCompare(grid, &non_empty))
        << what;
    EXPECT_LE(walked_partitions, reference_partitions) << what;
    EXPECT_EQ(walked_tuples.count(), reference_tuples.count()) << what;
    EXPECT_TRUE(*windows == reference) << what;
    return walked_partitions;
  }
};

TEST_P(WalkMatchesAllPairsTest, MapperAndReducerWindows) {
  const auto& [distribution, shape] = GetParam();
  const auto& [dim, ppd] = shape;
  data::GeneratorConfig config;
  config.distribution = distribution;
  config.cardinality = kTuples;
  config.dim = dim;
  config.seed = 20140324 + dim * 131 + ppd;
  const Dataset data = std::move(data::Generate(config)).value();
  const Grid grid = MakeGrid(dim, ppd);

  // Mapper side: each split's windows; their survivors become the parts
  // a reducer merges.
  std::vector<PartitionSkyline> parts;
  uint64_t partition_comparisons = 0;
  for (size_t s = 0; s < kSplits; ++s) {
    CellWindowMap mapped = SplitWindows(grid, data, s * kTuples / kSplits,
                                        (s + 1) * kTuples / kSplits);
    partition_comparisons += ExpectSameAsReference(
        grid, &mapped, "mapper split " + std::to_string(s));
    for (const auto& [cell, window] : mapped) {
      parts.push_back({cell, window});
    }
  }

  // Reducer side: the splits' parts merged cell by cell. The parts keep
  // the windows the mappers emptied, which the job does not ship, so this
  // walk also meets targets that are empty from the start.
  CellWindowMap merged;
  MergeParts(parts, dim, &merged, nullptr);
  partition_comparisons += ExpectSameAsReference(grid, &merged, "reducer");
  EXPECT_GT(partition_comparisons, 0u);

  std::vector<TupleId> ids;
  for (const auto& [cell, window] : merged) {
    ids.insert(ids.end(), window.ids().begin(), window.ids().end());
  }
  EXPECT_EQ(ExplainSkylineMismatch(data, ids), "");
}

std::vector<TupleId> SortedIds(const SkylineWindow& window) {
  std::vector<TupleId> ids = window.ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST_P(WalkMatchesAllPairsTest, TargetListFiltersOnlyTargets) {
  const auto& [distribution, shape] = GetParam();
  const auto& [dim, ppd] = shape;
  data::GeneratorConfig config;
  config.distribution = distribution;
  config.cardinality = kTuples;
  config.dim = dim;
  config.seed = 20140325 + dim * 131 + ppd;
  const Dataset data = std::move(data::Generate(config)).value();
  const Grid grid = MakeGrid(dim, ppd);

  std::vector<PartitionSkyline> parts;
  for (size_t s = 0; s < kSplits; ++s) {
    CellWindowMap mapped = SplitWindows(grid, data, s * kTuples / kSplits,
                                        (s + 1) * kTuples / kSplits);
    CompareAllPartitions(grid, &mapped, nullptr);
    for (const auto& [cell, window] : mapped) {
      parts.push_back({cell, window});
    }
  }
  CellWindowMap merged;
  MergeParts(parts, dim, &merged, nullptr);

  // Every other occupied cell, plus the first unoccupied one (skipped).
  std::vector<CellId> targets;
  bool odd = false;
  for (const auto& [cell, window] : merged) {
    if (odd) {
      targets.push_back(cell);
    }
    odd = !odd;
  }
  for (CellId cell = 0; cell < grid.num_cells(); ++cell) {
    if (merged.count(cell) == 0) {
      targets.insert(std::lower_bound(targets.begin(), targets.end(), cell),
                     cell);
      break;
    }
  }

  CellWindowMap all_cells = merged;
  AllPairsCompare(grid, &all_cells, nullptr);
  // Targets among merged windows, and among the source-only windows
  // MergeParts builds for the same targets (the MR-GPMRS reducer's case).
  CellWindowMap targeted = merged;
  CompareAllPartitions(grid, &targeted, nullptr, &targets);
  CellWindowMap source_only;
  MergeParts(parts, dim, &source_only, nullptr, &targets);
  const CellWindowMap sources = source_only;
  CompareAllPartitions(grid, &source_only, nullptr, &targets);

  ASSERT_EQ(targeted.size(), merged.size());
  ASSERT_EQ(source_only.size(), merged.size());
  size_t filtered = 0;
  for (const auto& [cell, window] : merged) {
    if (std::binary_search(targets.begin(), targets.end(), cell)) {
      filtered += window.size() - all_cells[cell].size();
      EXPECT_EQ(SortedIds(targeted[cell]), SortedIds(all_cells[cell]))
          << "target " << cell;
      EXPECT_EQ(SortedIds(source_only[cell]), SortedIds(all_cells[cell]))
          << "target " << cell << " over source-only windows";
    } else {
      EXPECT_TRUE(targeted[cell] == window) << "non-target " << cell;
      EXPECT_TRUE(source_only[cell] == sources.at(cell))
          << "source-only " << cell;
    }
  }
  // Correlated data leaves few cells in one another's ADR.
  if (dim > 1 && distribution != data::Distribution::kCorrelated) {
    EXPECT_GT(filtered, 0u) << "no target lost a row: the check is vacuous";
  }
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto& [distribution, shape] = info.param;
  std::string name = data::DistributionName(distribution);
  name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
  return name + "_d" + std::to_string(shape.first) + "_ppd" +
         std::to_string(shape.second);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WalkMatchesAllPairsTest,
    ::testing::Combine(
        ::testing::Values(data::Distribution::kIndependent,
                          data::Distribution::kAntiCorrelated,
                          data::Distribution::kCorrelated),
        // (8, 8) and (12, 4) are sparse: 2^24 cells, a few hundred used.
        ::testing::Values(std::pair<size_t, uint32_t>{1, 8},
                          std::pair<size_t, uint32_t>{2, 17},
                          std::pair<size_t, uint32_t>{3, 4},
                          std::pair<size_t, uint32_t>{6, 2},
                          std::pair<size_t, uint32_t>{6, 4},
                          std::pair<size_t, uint32_t>{8, 8},
                          std::pair<size_t, uint32_t>{12, 4})),
    SweepName);

}  // namespace
}  // namespace skymr::core

#include "src/core/independent_groups.h"

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/partition_bitstring.h"
#include "src/data/generator.h"

namespace skymr::core {
namespace {

Grid MakeGrid(size_t dim, uint32_t ppd) {
  return std::move(Grid::Create(dim, ppd, Bounds::UnitCube(dim))).value();
}

TEST(GenerateIndependentGroupsTest, Figure6Example) {
  // Figure 6: 3x3 grid, non-empty cells {p1, p2, p3, p4, p6}.
  // Seeds found by descending index: p6 -> IG1 = {p3, p6};
  // p4 -> IG2 = {p1, p3, p4}; p2 -> IG3 = {p1, p2}.
  const Grid grid = MakeGrid(2, 3);
  DynamicBitset bits(9);
  for (const CellId c : {1, 2, 3, 4, 6}) {
    bits.Set(c);
  }
  const std::vector<IndependentGroup> groups =
      GenerateIndependentGroups(grid, bits);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].seed, 6u);
  EXPECT_EQ(groups[0].cells, (std::vector<CellId>{3, 6}));
  EXPECT_EQ(groups[1].seed, 4u);
  EXPECT_EQ(groups[1].cells, (std::vector<CellId>{1, 3, 4}));
  EXPECT_EQ(groups[2].seed, 2u);
  EXPECT_EQ(groups[2].cells, (std::vector<CellId>{1, 2}));
}

TEST(GenerateIndependentGroupsTest, EmptyBitstringNoGroups) {
  const Grid grid = MakeGrid(2, 3);
  EXPECT_TRUE(GenerateIndependentGroups(grid, DynamicBitset(9)).empty());
}

TEST(GenerateIndependentGroupsTest, SingleCell) {
  const Grid grid = MakeGrid(2, 3);
  DynamicBitset bits(9);
  bits.Set(4);
  const auto groups = GenerateIndependentGroups(grid, bits);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].seed, 4u);
  EXPECT_EQ(groups[0].cells, (std::vector<CellId>{4}));
  EXPECT_EQ(groups[0].cost, 3u);  // |p4.ADR| over the grid = 2*2-1.
}

TEST(GenerateIndependentGroupsTest, GroupsAreIndependentDefinition5) {
  Rng rng(5);
  for (int trial = 0; trial < 25; ++trial) {
    const size_t dim = 2 + rng.NextBounded(3);
    const uint32_t ppd = static_cast<uint32_t>(2 + rng.NextBounded(3));
    const Grid grid = MakeGrid(dim, ppd);
    DynamicBitset bits(grid.num_cells());
    for (size_t i = 0; i < bits.size(); ++i) {
      if (rng.NextBounded(3) == 0) {
        bits.Set(i);
      }
    }
    const auto groups = GenerateIndependentGroups(grid, bits);
    EXPECT_EQ(ExplainGroupIndependenceViolation(grid, bits, groups), "");
  }
}

TEST(GenerateIndependentGroupsTest, GroupsCoverAllNonEmptyCells) {
  Rng rng(6);
  for (int trial = 0; trial < 25; ++trial) {
    const Grid grid = MakeGrid(2 + rng.NextBounded(2),
                               static_cast<uint32_t>(2 + rng.NextBounded(4)));
    DynamicBitset bits(grid.num_cells());
    for (size_t i = 0; i < bits.size(); ++i) {
      if (rng.NextBounded(2) == 0) {
        bits.Set(i);
      }
    }
    const auto groups = GenerateIndependentGroups(grid, bits);
    std::set<CellId> covered;
    for (const auto& group : groups) {
      covered.insert(group.cells.begin(), group.cells.end());
      // Every member must be non-empty.
      for (const CellId cell : group.cells) {
        EXPECT_TRUE(bits.Test(cell));
      }
      // Seed must be a member, cells sorted unique.
      EXPECT_TRUE(std::binary_search(group.cells.begin(),
                                     group.cells.end(), group.seed));
      EXPECT_TRUE(std::is_sorted(group.cells.begin(), group.cells.end()));
    }
    EXPECT_EQ(covered.size(), bits.Count());
  }
}

TEST(GenerateIndependentGroupsTest, GroupsMatchAdrScanOfSetCells) {
  // Algorithm 7 line 4, spelled out: each group is its seed plus every set
  // cell of the original bitstring in the seed's ADR, on dense and sparse
  // grids alike.
  Rng rng(7);
  const std::vector<std::pair<size_t, uint32_t>> shapes = {
      {1, 9}, {2, 3}, {3, 5}, {6, 4}, {10, 4}};
  for (const auto& [dim, ppd] : shapes) {
    const Grid grid = MakeGrid(dim, ppd);
    DynamicBitset bits(grid.num_cells());
    for (int k = 0; k < 200; ++k) {
      bits.Set(rng.NextBounded(grid.num_cells()));
    }
    std::vector<CellId> set_cells;
    bits.ForEachSetBit([&set_cells](size_t i) { set_cells.push_back(i); });

    const auto groups = GenerateIndependentGroups(grid, bits);
    DynamicBitset working = bits;
    size_t g = 0;
    for (; !working.None(); ++g) {
      const CellId seed = working.FindLast();
      std::vector<CellId> expected;
      for (const CellId cell : set_cells) {
        if (cell == seed || grid.InAdrOf(seed, cell)) {
          expected.push_back(cell);
          working.Reset(cell);
        }
      }
      ASSERT_LT(g, groups.size()) << "d=" << dim << " ppd=" << ppd;
      EXPECT_EQ(groups[g].seed, seed) << "d=" << dim << " group " << g;
      EXPECT_EQ(groups[g].cells, expected) << "d=" << dim << " group " << g;
      EXPECT_EQ(groups[g].cost, grid.AdrSize(seed));
    }
    EXPECT_EQ(g, groups.size()) << "d=" << dim << " ppd=" << ppd;
  }
}

TEST(GenerateIndependentGroupsTest, SeedsAreMaximumPartitions) {
  // Definition 6: a seed must not be in any non-empty partition's ADR at
  // the time it is chosen; with the working-copy semantics this means no
  // *ungrouped-yet* partition strictly above it. We verify the first seed
  // against the full bitstring.
  const Grid grid = MakeGrid(2, 4);
  DynamicBitset bits(16);
  for (const CellId c : {0, 5, 9, 13}) {
    bits.Set(c);
  }
  const auto groups = GenerateIndependentGroups(grid, bits);
  ASSERT_FALSE(groups.empty());
  const CellId first_seed = groups[0].seed;
  for (size_t other = bits.FindFirst(); other < bits.size();
       other = bits.FindNext(other)) {
    EXPECT_FALSE(grid.InAdrOf(other, first_seed))
        << "first seed " << first_seed << " is in ADR of " << other;
  }
}

// ----------------------------------------------------------------------
// AssignGroupsToReducers (Section 5.4).
// ----------------------------------------------------------------------

std::vector<IndependentGroup> Figure6Groups(const Grid& grid) {
  DynamicBitset bits(9);
  for (const CellId c : {1, 2, 3, 4, 6}) {
    bits.Set(c);
  }
  return GenerateIndependentGroups(grid, bits);
}

TEST(AssignGroupsTest, FewerGroupsThanReducersOneEach) {
  const Grid grid = MakeGrid(2, 3);
  const auto groups = Figure6Groups(grid);
  const auto assigned = AssignGroupsToReducers(
      grid, groups, 5, GroupMergeStrategy::kComputationCost);
  ASSERT_EQ(assigned.size(), 3u);
  for (size_t i = 0; i < assigned.size(); ++i) {
    EXPECT_EQ(assigned[i].member_groups, (std::vector<uint32_t>{
                                             static_cast<uint32_t>(i)}));
  }
}

TEST(AssignGroupsTest, ResponsibilityPartitionsCells) {
  const Grid grid = MakeGrid(2, 3);
  const auto groups = Figure6Groups(grid);
  for (const auto strategy : {GroupMergeStrategy::kRoundRobin,
                              GroupMergeStrategy::kComputationCost,
                              GroupMergeStrategy::kCommunicationCost,
                              GroupMergeStrategy::kBalanced}) {
    for (const int reducers : {1, 2, 3, 5}) {
      const auto assigned =
          AssignGroupsToReducers(grid, groups, reducers, strategy);
      std::map<CellId, int> times_responsible;
      for (const auto& rg : assigned) {
        for (const CellId cell : rg.responsible) {
          ++times_responsible[cell];
          // Responsible cells must be members.
          EXPECT_TRUE(std::binary_search(rg.cells.begin(), rg.cells.end(),
                                         cell));
        }
      }
      // Every non-empty cell output exactly once (Section 5.4.2).
      EXPECT_EQ(times_responsible.size(), 5u)
          << GroupMergeStrategyName(strategy) << " r=" << reducers;
      for (const auto& [cell, count] : times_responsible) {
        EXPECT_EQ(count, 1) << "cell " << cell << " with "
                            << GroupMergeStrategyName(strategy)
                            << " r=" << reducers;
      }
    }
  }
}

TEST(AssignGroupsTest, ResponsibleGroupHasMinimalSeedAdr) {
  // Section 5.4.2: replicated partitions go to the group with minimal
  // |p_m.ADR|. In Figure 6, p3 is in IG1 (seed p6, |ADR| = 1*3-1 = 2)
  // and IG2 (seed p4, |ADR| = 2*2-1 = 3): IG1 must output p3.
  const Grid grid = MakeGrid(2, 3);
  const auto groups = Figure6Groups(grid);
  const auto assigned = AssignGroupsToReducers(
      grid, groups, 3, GroupMergeStrategy::kComputationCost);
  // Find the reducer group containing original group 0 (seed p6).
  for (const auto& rg : assigned) {
    const bool has_ig1 =
        std::find(rg.member_groups.begin(), rg.member_groups.end(), 0u) !=
        rg.member_groups.end();
    const bool responsible_for_p3 =
        std::find(rg.responsible.begin(), rg.responsible.end(), CellId{3}) !=
        rg.responsible.end();
    EXPECT_EQ(responsible_for_p3, has_ig1);
  }
}

TEST(AssignGroupsTest, MergingCapsGroupCount) {
  const Grid grid = MakeGrid(2, 3);
  const auto groups = Figure6Groups(grid);
  ASSERT_GT(groups.size(), 2u);
  for (const auto strategy : {GroupMergeStrategy::kRoundRobin,
                              GroupMergeStrategy::kComputationCost,
                              GroupMergeStrategy::kCommunicationCost,
                              GroupMergeStrategy::kBalanced}) {
    const auto assigned = AssignGroupsToReducers(grid, groups, 2, strategy);
    EXPECT_LE(assigned.size(), 2u) << GroupMergeStrategyName(strategy);
    // All original groups placed exactly once.
    std::set<uint32_t> placed;
    for (const auto& rg : assigned) {
      for (const uint32_t g : rg.member_groups) {
        EXPECT_TRUE(placed.insert(g).second);
      }
    }
    EXPECT_EQ(placed.size(), groups.size());
  }
}

TEST(AssignGroupsTest, ComputationCostBalancesLoads) {
  // Anti-diagonal cells of a 4x4 grid plus the origin: four mutually
  // incomparable seeds, each grouped with the shared origin cell.
  const Grid grid = MakeGrid(2, 4);
  DynamicBitset bits(16);
  for (const CellId c : {0, 3, 6, 9, 12}) {
    bits.Set(c);
  }
  const auto groups = GenerateIndependentGroups(grid, bits);
  ASSERT_EQ(groups.size(), 4u);
  const auto assigned = AssignGroupsToReducers(
      grid, groups, 3, GroupMergeStrategy::kComputationCost);
  ASSERT_EQ(assigned.size(), 3u);
  uint64_t min_cost = UINT64_MAX;
  uint64_t max_cost = 0;
  for (const auto& rg : assigned) {
    min_cost = std::min(min_cost, rg.cost);
    max_cost = std::max(max_cost, rg.cost);
  }
  // LPT guarantees max <= (4/3) * optimal; a loose sanity bound: the
  // heaviest bin is at most the lightest bin plus the largest group.
  uint64_t largest_group = 0;
  for (const auto& g : groups) {
    largest_group = std::max(largest_group, g.cost);
  }
  EXPECT_LE(max_cost, min_cost + largest_group);
}

TEST(AssignGroupsTest, EmptyGroupsYieldNothing) {
  const Grid grid = MakeGrid(2, 3);
  EXPECT_TRUE(AssignGroupsToReducers(grid, {}, 4,
                                     GroupMergeStrategy::kComputationCost)
                  .empty());
}

TEST(AssignGroupsTest, DeterministicAcrossCalls) {
  // Mapper-side consistency (Section 5.3): repeated derivation from the
  // same bitstring must be identical.
  const Dataset dataset = data::GenerateAntiCorrelated(500, 3, 21);
  const Grid grid = MakeGrid(3, 3);
  DynamicBitset bits = BuildLocalBitstring(
      grid, dataset, 0, static_cast<TupleId>(dataset.size()));
  PruneDominated(grid, &bits, PruneMode::kPrefix);
  const auto groups_a = GenerateIndependentGroups(grid, bits);
  const auto groups_b = GenerateIndependentGroups(grid, bits);
  ASSERT_EQ(groups_a.size(), groups_b.size());
  for (size_t i = 0; i < groups_a.size(); ++i) {
    EXPECT_EQ(groups_a[i].seed, groups_b[i].seed);
    EXPECT_EQ(groups_a[i].cells, groups_b[i].cells);
  }
  const auto assigned_a = AssignGroupsToReducers(
      grid, groups_a, 4, GroupMergeStrategy::kCommunicationCost);
  const auto assigned_b = AssignGroupsToReducers(
      grid, groups_b, 4, GroupMergeStrategy::kCommunicationCost);
  ASSERT_EQ(assigned_a.size(), assigned_b.size());
  for (size_t i = 0; i < assigned_a.size(); ++i) {
    EXPECT_EQ(assigned_a[i].cells, assigned_b[i].cells);
    EXPECT_EQ(assigned_a[i].responsible, assigned_b[i].responsible);
  }
}

TEST(GroupMergeStrategyTest, Names) {
  EXPECT_STREQ(GroupMergeStrategyName(GroupMergeStrategy::kRoundRobin),
               "round-robin");
  EXPECT_STREQ(
      GroupMergeStrategyName(GroupMergeStrategy::kComputationCost),
      "computation-cost");
  EXPECT_STREQ(
      GroupMergeStrategyName(GroupMergeStrategy::kCommunicationCost),
      "communication-cost");
}

}  // namespace
}  // namespace skymr::core

#include "src/core/independent_groups.h"

#include <algorithm>
#include <map>
#include <queue>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "src/common/logging.h"

namespace skymr::core {

std::vector<IndependentGroup> GenerateIndependentGroups(
    const Grid& grid, const DynamicBitset& bits) {
  std::vector<CellId> set_cells;
  bits.ForEachSetBit([&set_cells](size_t i) { set_cells.push_back(i); });
  AdrIndex index(grid, set_cells);

  std::vector<IndependentGroup> groups;
  DynamicBitset working = bits;
  std::vector<uint32_t> seed_coords(grid.dim());
  while (!working.None()) {
    // Algorithm 7, line 3: the remaining non-empty partition with the
    // largest index seeds the next group.
    const CellId seed = working.FindLast();
    grid.CoordsOf(seed, seed_coords.data());

    IndependentGroup group;
    group.seed = seed;
    group.cost = grid.AdrSize(seed);
    // Line 4: ig = {p_m} union p_m.ADR, with ADR membership taken against
    // the *original* bitstring so partitions can repeat across groups. The
    // walk yields ADR members ascending, and every one has a smaller index
    // than the seed, so group.cells comes out sorted.
    index.ForEachAdrMember(seed_coords.data(), [&](size_t i) {
      group.cells.push_back(set_cells[i]);
      return true;
    });
    group.cells.push_back(seed);
    // Lines 5-6: clear the used partitions from the working copy only.
    for (const CellId cell : group.cells) {
      working.Reset(cell);
    }
    groups.push_back(std::move(group));
  }
  if (DchecksEnabled()) {
    // Definition 5 bookkeeping: the groups must cover exactly the
    // non-empty cells — every member is a set bit (no phantom cells) and
    // every set bit is in some group (no partition's skyline is lost).
    DynamicBitset covered(bits.size());
    for (const IndependentGroup& group : groups) {
      for (const CellId cell : group.cells) {
        SKYMR_DCHECK(bits.Test(cell))
            << "group contains empty cell " << cell;
        covered.Set(cell);
      }
    }
    SKYMR_DCHECK(covered == bits)
        << "independent groups do not cover all non-empty cells";
  }
  return groups;
}

const char* GroupMergeStrategyName(GroupMergeStrategy strategy) {
  switch (strategy) {
    case GroupMergeStrategy::kRoundRobin:
      return "round-robin";
    case GroupMergeStrategy::kComputationCost:
      return "computation-cost";
    case GroupMergeStrategy::kCommunicationCost:
      return "communication-cost";
    case GroupMergeStrategy::kBalanced:
      return "balanced";
  }
  return "unknown";
}

namespace {

/// Builds one ReducerGroup from the member group indexes in `members`.
ReducerGroup BuildReducerGroup(
    const std::vector<IndependentGroup>& groups,
    std::vector<uint32_t> members,
    const std::unordered_map<CellId, uint32_t>& owner_of_cell) {
  ReducerGroup out;
  out.member_groups = std::move(members);
  std::sort(out.member_groups.begin(), out.member_groups.end());
  for (const uint32_t g : out.member_groups) {
    out.cells.insert(out.cells.end(), groups[g].cells.begin(),
                     groups[g].cells.end());
    out.cost += groups[g].cost;
  }
  std::sort(out.cells.begin(), out.cells.end());
  out.cells.erase(std::unique(out.cells.begin(), out.cells.end()),
                  out.cells.end());
  const std::unordered_set<uint32_t> member_set(out.member_groups.begin(),
                                                out.member_groups.end());
  for (const CellId cell : out.cells) {
    const auto it = owner_of_cell.find(cell);
    SKYMR_DCHECK(it != owner_of_cell.end())
        << "cell " << cell << " has no owning reducer group";
    if (member_set.count(it->second) > 0) {
      out.responsible.push_back(cell);
    }
  }
  return out;
}

/// Longest-processing-time-first packing of group costs into `bins`.
std::vector<std::vector<uint32_t>> PackByComputationCost(
    const std::vector<IndependentGroup>& groups, int bins) {
  std::vector<uint32_t> order(groups.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&groups](uint32_t a, uint32_t b) {
    if (groups[a].cost != groups[b].cost) {
      return groups[a].cost > groups[b].cost;
    }
    return a < b;
  });
  // Min-heap of (load, bin).
  using Slot = std::pair<uint64_t, int>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<Slot>> heap;
  for (int i = 0; i < bins; ++i) {
    heap.push({0, i});
  }
  std::vector<std::vector<uint32_t>> packed(static_cast<size_t>(bins));
  for (const uint32_t g : order) {
    auto [load, bin] = heap.top();
    heap.pop();
    packed[static_cast<size_t>(bin)].push_back(g);
    heap.push({load + groups[g].cost, bin});
  }
  return packed;
}

/// Greedy communication-cost merging: repeatedly fold the smallest group
/// into the partner sharing the most cells, until at most `bins` remain.
std::vector<std::vector<uint32_t>> PackByCommunicationCost(
    const std::vector<IndependentGroup>& groups, int bins) {
  struct Cluster {
    std::vector<uint32_t> members;
    std::vector<CellId> cells;  // Sorted unique union.
    bool alive = true;
  };
  std::vector<Cluster> clusters(groups.size());
  for (uint32_t i = 0; i < groups.size(); ++i) {
    clusters[i].members = {i};
    clusters[i].cells = groups[i].cells;
  }
  auto overlap = [](const std::vector<CellId>& a,
                    const std::vector<CellId>& b) {
    size_t i = 0;
    size_t j = 0;
    size_t count = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] < b[j]) {
        ++i;
      } else if (b[j] < a[i]) {
        ++j;
      } else {
        ++count;
        ++i;
        ++j;
      }
    }
    return count;
  };

  size_t alive = clusters.size();
  while (alive > static_cast<size_t>(bins)) {
    // Smallest alive cluster (fewest cells; ties -> lowest index).
    size_t smallest = clusters.size();
    for (size_t i = 0; i < clusters.size(); ++i) {
      if (!clusters[i].alive) {
        continue;
      }
      if (smallest == clusters.size() ||
          clusters[i].cells.size() < clusters[smallest].cells.size()) {
        smallest = i;
      }
    }
    // Partner with maximal shared cells (ties -> lowest index).
    size_t best = clusters.size();
    size_t best_overlap = 0;
    for (size_t i = 0; i < clusters.size(); ++i) {
      if (i == smallest || !clusters[i].alive) {
        continue;
      }
      const size_t shared =
          overlap(clusters[smallest].cells, clusters[i].cells);
      if (best == clusters.size() || shared > best_overlap) {
        best = i;
        best_overlap = shared;
      }
    }
    SKYMR_DCHECK(best < clusters.size())
        << "no merge target among " << clusters.size() << " clusters";
    Cluster& dst = clusters[best];
    Cluster& src = clusters[smallest];
    dst.members.insert(dst.members.end(), src.members.begin(),
                       src.members.end());
    std::vector<CellId> merged;
    merged.reserve(dst.cells.size() + src.cells.size());
    std::merge(dst.cells.begin(), dst.cells.end(), src.cells.begin(),
               src.cells.end(), std::back_inserter(merged));
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    dst.cells = std::move(merged);
    src.alive = false;
    --alive;
  }

  std::vector<std::vector<uint32_t>> packed;
  for (const Cluster& cluster : clusters) {
    if (cluster.alive) {
      packed.push_back(cluster.members);
    }
  }
  return packed;
}

/// Greedy bi-criteria packing: place groups (largest cost first) on the
/// bin minimizing normalized-load-after-placement plus the normalized
/// number of cells the bin would newly receive. Both terms are scaled by
/// their totals so neither cost dominates by unit choice.
std::vector<std::vector<uint32_t>> PackByBalancedCost(
    const std::vector<IndependentGroup>& groups, int bins) {
  std::vector<uint32_t> order(groups.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&groups](uint32_t a, uint32_t b) {
    if (groups[a].cost != groups[b].cost) {
      return groups[a].cost > groups[b].cost;
    }
    return a < b;
  });
  double total_cost = 0.0;
  double total_cells = 0.0;
  for (const auto& group : groups) {
    total_cost += static_cast<double>(group.cost);
    total_cells += static_cast<double>(group.cells.size());
  }
  total_cost = std::max(total_cost, 1.0);
  total_cells = std::max(total_cells, 1.0);

  struct Bin {
    uint64_t load = 0;
    std::unordered_set<CellId> cells;
    std::vector<uint32_t> members;
  };
  std::vector<Bin> packed(static_cast<size_t>(bins));
  for (const uint32_t g : order) {
    size_t best = 0;
    double best_score = 0.0;
    for (size_t b = 0; b < packed.size(); ++b) {
      size_t new_cells = 0;
      for (const CellId cell : groups[g].cells) {
        new_cells += packed[b].cells.count(cell) == 0 ? 1 : 0;
      }
      const double score =
          static_cast<double>(packed[b].load + groups[g].cost) /
              total_cost +
          static_cast<double>(new_cells) / total_cells;
      if (b == 0 || score < best_score) {
        best = b;
        best_score = score;
      }
    }
    packed[best].load += groups[g].cost;
    packed[best].cells.insert(groups[g].cells.begin(),
                              groups[g].cells.end());
    packed[best].members.push_back(g);
  }
  std::vector<std::vector<uint32_t>> out;
  out.reserve(packed.size());
  for (Bin& bin : packed) {
    out.push_back(std::move(bin.members));
  }
  return out;
}

}  // namespace

std::vector<ReducerGroup> AssignGroupsToReducers(
    const Grid& grid, const std::vector<IndependentGroup>& groups,
    int num_reducers, GroupMergeStrategy strategy) {
  (void)grid;
  if (groups.empty()) {
    return {};
  }
  const int r = std::max(1, num_reducers);

  // Section 5.4.2: the responsible group for a replicated partition is the
  // one whose seed has minimal |p_m.ADR| (ties -> lowest group index), so
  // the busiest reducers are not burdened further.
  std::unordered_map<CellId, uint32_t> owner_of_cell;
  for (uint32_t g = 0; g < groups.size(); ++g) {
    for (const CellId cell : groups[g].cells) {
      const auto it = owner_of_cell.find(cell);
      if (it == owner_of_cell.end()) {
        owner_of_cell.emplace(cell, g);
      } else {
        const uint32_t cur = it->second;
        if (groups[g].cost < groups[cur].cost ||
            (groups[g].cost == groups[cur].cost && g < cur)) {
          it->second = g;
        }
      }
    }
  }

  std::vector<std::vector<uint32_t>> packed;
  if (groups.size() <= static_cast<size_t>(r)) {
    // No merging needed: one group per reducer group.
    packed.resize(groups.size());
    for (uint32_t g = 0; g < groups.size(); ++g) {
      packed[g] = {g};
    }
  } else {
    switch (strategy) {
      case GroupMergeStrategy::kRoundRobin: {
        packed.resize(static_cast<size_t>(r));
        for (uint32_t g = 0; g < groups.size(); ++g) {
          packed[g % static_cast<uint32_t>(r)].push_back(g);
        }
        break;
      }
      case GroupMergeStrategy::kComputationCost:
        packed = PackByComputationCost(groups, r);
        break;
      case GroupMergeStrategy::kCommunicationCost:
        packed = PackByCommunicationCost(groups, r);
        break;
      case GroupMergeStrategy::kBalanced:
        packed = PackByBalancedCost(groups, r);
        break;
    }
  }

  std::vector<ReducerGroup> out;
  out.reserve(packed.size());
  for (auto& members : packed) {
    if (members.empty()) {
      continue;  // More reducers than groups: skip empty bins.
    }
    out.push_back(BuildReducerGroup(groups, std::move(members),
                                    owner_of_cell));
  }
  if (DchecksEnabled()) {
    // Section 5.4.2: duplicate elimination is correct only if every
    // non-empty cell is the responsibility of exactly one reducer group.
    std::unordered_map<CellId, int> responsible_count;
    for (const ReducerGroup& group : out) {
      for (const CellId cell : group.responsible) {
        ++responsible_count[cell];
      }
    }
    SKYMR_DCHECK(responsible_count.size() == owner_of_cell.size())
        << "some cells have no responsible reducer group";
    for (const auto& [cell, count] : responsible_count) {
      SKYMR_DCHECK(count == 1)
          << "cell " << cell << " is output by " << count << " groups";
    }
  }
  return out;
}

std::string ExplainGroupIndependenceViolation(
    const Grid& grid, const DynamicBitset& bits,
    const std::vector<IndependentGroup>& groups) {
  for (size_t g = 0; g < groups.size(); ++g) {
    const std::unordered_set<CellId> members(groups[g].cells.begin(),
                                             groups[g].cells.end());
    for (const CellId cell : groups[g].cells) {
      // Definition 5: every non-empty partition in cell.ADR must be a
      // member of the group.
      for (size_t other = bits.FindFirst(); other < bits.size();
           other = bits.FindNext(other)) {
        if (grid.InAdrOf(cell, other) && members.count(other) == 0) {
          std::ostringstream os;
          os << "group " << g << " (seed " << groups[g].seed
             << ") contains cell " << cell << " but not ADR member "
             << other;
          return os.str();
        }
      }
    }
  }
  return "";
}

}  // namespace skymr::core

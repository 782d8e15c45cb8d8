#include "src/core/compare_partitions.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace skymr::core {

uint64_t CompareAllPartitions(const Grid& grid, CellWindowMap* windows,
                              DominanceCounter* tuple_counter,
                              const std::vector<CellId>* targets) {
  SKYMR_TRACE_SPAN("core.compare_partitions", "partitions",
                   static_cast<int64_t>(windows->size()));
  // The map iterates ascending, so cells[i] and partitions[i] line up with
  // the index's positions.
  std::vector<CellId> cells;
  std::vector<SkylineWindow*> partitions;
  cells.reserve(windows->size());
  partitions.reserve(windows->size());
  for (auto& [cell, window] : *windows) {
    cells.push_back(cell);
    partitions.push_back(&window);
  }
  AdrIndex index(grid, cells);

  // Targets ascending by CellId, each target's sources ascending by
  // CellId: the order that fixes which tuples survive, the windows' row
  // order and the tuple-comparison count. A target only ever loses rows,
  // and a comparison with an empty window tests no tuple, so skipping
  // those comparisons changes none of the three.
  uint64_t partition_comparisons = 0;
  std::vector<uint32_t> coords(grid.dim());
  const auto filter = [&](size_t i) {
    SkylineWindow& target = *partitions[i];
    if (target.empty()) {
      return;
    }
    grid.CoordsOf(cells[i], coords.data());
    // Algorithm 5, line 2: only partitions in p.ADR can hold dominators.
    // The walk ends as soon as the target has no row left to remove.
    index.ForEachAdrMember(coords.data(), [&](size_t j) {
      const SkylineWindow& source = *partitions[j];
      if (source.empty()) {
        return true;
      }
      ++partition_comparisons;
      target.RemoveDominatedBy(source, tuple_counter);
      return !target.empty();
    });
  };
  if (targets == nullptr) {
    for (size_t i = 0; i < cells.size(); ++i) {
      filter(i);
    }
    return partition_comparisons;
  }
  SKYMR_DCHECK(std::is_sorted(targets->begin(), targets->end()))
      << "CompareAllPartitions targets must be ascending";
  auto next = cells.begin();
  for (const CellId cell : *targets) {
    next = std::lower_bound(next, cells.end(), cell);
    if (next != cells.end() && *next == cell) {
      filter(static_cast<size_t>(next - cells.begin()));
    }
  }
  return partition_comparisons;
}

}  // namespace skymr::core

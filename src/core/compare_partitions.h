// ComparePartitions (Algorithm 5): false-positive elimination across
// partition-local skylines. For every partition p, tuples of S_p dominated
// by a tuple of S_pi with p_i in p.ADR are removed. Used by the map step
// (Algorithm 3 lines 9-10, Algorithm 8 lines 9-10) and the reduce step
// (Algorithm 6 lines 7-8, Algorithm 9 lines 9-10).

#ifndef SKYMR_CORE_COMPARE_PARTITIONS_H_
#define SKYMR_CORE_COMPARE_PARTITIONS_H_

#include <cstdint>
#include <vector>

#include "src/core/grid.h"
#include "src/core/messages.h"

namespace skymr::core {

/// Applies Algorithm 5 to the windows in `windows`: each target partition
/// is compared only with the non-empty partitions of its anti-dominating
/// region, found by walking an AdrIndex over the map's cells. Targets and
/// each target's sources are taken in ascending CellId order. An empty
/// target is skipped, an empty source is passed over, and a target's walk
/// ends as soon as the target is empty. Algorithm 5 only removes rows
/// from targets and a comparison with an empty window tests no tuple, so
/// the surviving rows, their order and the tuple tests are exactly those
/// of comparing every ADR pair.
/// Every window is a target unless `targets` (ascending) is given; then
/// only those cells are filtered, targets absent from the map are
/// skipped, and every other window is only read as a source, so it may
/// hold rows that other rows dominate (MergeParts' source-only windows).
/// Returns the number of partition-wise comparisons performed between two
/// non-empty windows, i.e. how many times Algorithm 5's line 3 did work;
/// the paper's cost model (Section 6) bounds it from above, and Section
/// 7.5 measures it. `tuple_counter` (optional) additionally accrues tuple
/// dominance tests.
uint64_t CompareAllPartitions(const Grid& grid, CellWindowMap* windows,
                              DominanceCounter* tuple_counter,
                              const std::vector<CellId>* targets = nullptr);

}  // namespace skymr::core

#endif  // SKYMR_CORE_COMPARE_PARTITIONS_H_

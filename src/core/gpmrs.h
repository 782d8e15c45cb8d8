// MR-GPMRS: Grid Partitioning based Multiple-Reducer Skyline computation
// (Section 5 of the paper, Algorithms 8-9, Figure 5).
//
// The job derives the independent partition groups from the bitstring
// once (Algorithm 7, with Section 5.4's group merging and output
// responsibility) and broadcasts them. Mappers run the local phase and
// ship each group's local skylines, a LocalSkylineSet keyed by the
// group's index, to its reducer. Every reducer independently finalizes
// its groups' share of the global skyline (Lemma 2), so no post-merge
// step exists; it merges and filters only the partitions it is
// responsible for outputting, reading the replicated rest as sources of
// dominators only. MR-GPSRS (gpsrs.h) is this job with one group.

#ifndef SKYMR_CORE_GPMRS_H_
#define SKYMR_CORE_GPMRS_H_

#include <memory>

#include "src/core/skyline_job_common.h"

namespace skymr::core {

/// Runs the MR-GPMRS skyline job with `engine.num_reducers` reducers.
/// When `constraint` is set, the skyline is computed over the tuples
/// inside the box only (the bitstring must have been built under the
/// same box).
StatusOr<SkylineJobRun> RunGpmrsJob(
    std::shared_ptr<const Dataset> data, const Grid& grid,
    const DynamicBitset& bits, GroupMergeStrategy merge,
    const mr::EngineOptions& engine, ThreadPool* pool = nullptr,
    const std::optional<Box>& constraint = std::nullopt,
    LocalAlgorithm local_algorithm = LocalAlgorithm::kBnl);

/// A fresh MR-GPMRS reducer (Algorithm 9), the one RunGpmrsJob's job
/// builds per reduce task. Exposed as a test seam, so tests can drive
/// Setup and Reduce directly with a hand-built cache and payloads; its
/// Setup reads the SkylineJobContext under kCacheKeySkylineContext.
std::unique_ptr<mr::Reducer<uint32_t, LocalSkylineSet, SkylineWindow>>
NewGpmrsReducer();

}  // namespace skymr::core

#endif  // SKYMR_CORE_GPMRS_H_

// MR-GPSRS: Grid Partitioning based Single-Reducer Skyline computation
// (Section 4 of the paper, Algorithms 3-6, Figure 4).
//
// Mappers compute per-partition local skylines for unpruned partitions and
// eliminate cross-partition false positives; a single reducer merges the
// local skylines per partition with InsertTuple and runs ComparePartitions
// once more to obtain the global skyline. That is MR-GPMRS (gpmrs.h) with
// one reducer group that holds and outputs every set cell, so RunGpsrsJob
// runs the MR-GPMRS job (gpmrs.cc) with that group, named "mr-gpsrs".

#ifndef SKYMR_CORE_GPSRS_H_
#define SKYMR_CORE_GPSRS_H_

#include <memory>

#include "src/core/skyline_job_common.h"

namespace skymr::core {

/// Runs the MR-GPSRS skyline job over `data` using the grid and Equation 2
/// bitstring produced by the bitstring job. `engine.num_reducers` is
/// forced to 1 (the algorithm is single-reducer by construction). When
/// `constraint` is set, the skyline is computed over the tuples inside the
/// box only (the bitstring must have been built under the same box).
StatusOr<SkylineJobRun> RunGpsrsJob(
    std::shared_ptr<const Dataset> data, const Grid& grid,
    const DynamicBitset& bits, const mr::EngineOptions& engine,
    ThreadPool* pool = nullptr,
    const std::optional<Box>& constraint = std::nullopt,
    LocalAlgorithm local_algorithm = LocalAlgorithm::kBnl);

}  // namespace skymr::core

#endif  // SKYMR_CORE_GPSRS_H_

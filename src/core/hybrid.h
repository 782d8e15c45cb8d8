// Hybrid algorithm selection (realizing the paper's Section 8 future-work
// direction): "a hybrid method can be developed by combining MR-GPSRS and
// MR-GPMRS. Such a method should be able to switch between the two
// algorithms automatically, and intelligently decide how many reducers to
// use."
//
// Section 7's conclusion is the decision rule: MR-GPMRS wins when a large
// fraction of the tuples are in the skyline; MR-GPSRS wins when the
// skyline fraction is small. The fraction is estimated on the driver from
// a small deterministic sample (stride sampling + single-node BNL), which
// costs microseconds and needs no extra MapReduce round. The bitstring-job
// output additionally caps the reducer count at the number of independent
// partition groups, since extra reducers would idle.
//
// (The bitstring alone cannot estimate the skyline fraction: it records
// which partitions are occupied but not how many of a partition's tuples
// survive local dominance, which is exactly what separates independent
// from anti-correlated data.)

#ifndef SKYMR_CORE_HYBRID_H_
#define SKYMR_CORE_HYBRID_H_

#include <cstdint>

#include "src/core/bitstring_job.h"

namespace skymr::core {

/// The hybrid switch's fixed policy. Use MR-GPMRS when the sampled
/// skyline fraction exceeds kHybridSkylineFractionThreshold; estimate the
/// fraction from kHybridSampleSize tuples; request kHybridReducers
/// reducers (the paper's 13 nodes) before capping by the group count.
inline constexpr double kHybridSkylineFractionThreshold = 0.15;
inline constexpr size_t kHybridSampleSize = 2048;
inline constexpr int kHybridReducers = 13;

/// The hybrid decision derived from the sample and bitstring-job result.
struct HybridDecision {
  bool use_multiple_reducers = false;
  int num_reducers = 1;
  /// Skyline fraction of the driver-side sample.
  double sampled_skyline_fraction = 0.0;
  /// Independent partition groups available (the reducer-count cap).
  uint64_t num_groups = 0;
};

/// Estimates the skyline fraction of `data` from a deterministic stride
/// sample of at most `sample_size` tuples. With a constraint box, only
/// in-box tuples are sampled (the constrained skyline's population).
double EstimateSkylineFraction(
    const Dataset& data, size_t sample_size,
    const std::optional<Box>& constraint = std::nullopt);

/// The number of rows a query covers, which the Session uses as Section
/// 3.3's cardinality c: data.size() exactly without a constraint box;
/// with one, the in-box share of the kHybridSampleSize stride sample
/// scaled to data.size() (0 when no sampled row is in the box).
uint64_t EstimateInScopeRows(const Dataset& data,
                             const std::optional<Box>& constraint);

/// Decides between MR-GPSRS and MR-GPMRS. `grid` must be the grid of
/// `result.bits`; `data` is the job's input dataset.
HybridDecision DecideHybrid(
    const Dataset& data, const Grid& grid,
    const BitstringBuildResult& result,
    const std::optional<Box>& constraint = std::nullopt);

}  // namespace skymr::core

#endif  // SKYMR_CORE_HYBRID_H_

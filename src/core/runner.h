// The vocabulary shared by every skyline pipeline: which algorithm runs
// (the paper's MR-GPSRS/MR-GPMRS, the hybrid switch, or a baseline) and
// what a finished pipeline returns — the skyline together with per-job
// metrics, real wall time, and the modeled cluster makespan. Pipelines
// run through serve/session.h (Session::Open + Submit).

#ifndef SKYMR_CORE_RUNNER_H_
#define SKYMR_CORE_RUNNER_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/hybrid.h"
#include "src/local/skyline_window.h"
#include "src/mapreduce/task_metrics.h"

namespace skymr {

/// The skyline computation strategies the library ships.
enum class Algorithm {
  kMrGpsrs,   // Paper Section 4.
  kMrGpmrs,   // Paper Section 5.
  kMrBnl,     // Baseline, Zhang et al. 2011.
  kMrAngle,   // Baseline, Chen et al. 2012.
  kHybrid,    // Paper Section 8 future work: auto GPSRS/GPMRS switch.
  kSkyMr,     // Baseline, Park et al. 2013 (sampling + sky-quadtree).
};

const char* AlgorithmName(Algorithm algorithm);
StatusOr<Algorithm> ParseAlgorithm(const std::string& name);

/// The outcome of a skyline computation.
struct SkylineResult {
  /// The global skyline: tuple values plus original tuple ids.
  SkylineWindow skyline;
  /// Sorted skyline tuple ids (convenience for verification).
  std::vector<TupleId> SkylineIds() const;
  /// Per-job engine metrics, in execution order (grid algorithms run the
  /// bitstring job first, then the skyline job; baselines run one job;
  /// a bitstring phase served from a cache or checkpoint adds no job).
  std::vector<mr::JobMetrics> jobs;
  /// Real wall time of the in-process simulation.
  double wall_seconds = 0.0;
  /// Modeled cluster makespan (the paper's "runtime" axis).
  double modeled_seconds = 0.0;
  /// Modeled makespan with job/task startup overheads zeroed: the part of
  /// the runtime that scales with the data. At scaled-down cardinalities
  /// the fixed Hadoop overheads dominate `modeled_seconds`, so figure
  /// *shapes* (who wins, crossovers) are read off this component.
  double modeled_compute_seconds = 0.0;
  /// Selected PPD (grid algorithms; 0 for baselines).
  uint32_t ppd = 0;
  /// The rule that chose `ppd` (core::PpdRuleName): "explicit",
  /// "paper-literal" or "target-tpp"; empty for baselines.
  std::string ppd_rule;
  /// Non-empty partitions before / pruned by Equation 2.
  uint64_t nonempty_partitions = 0;
  uint64_t pruned_partitions = 0;
  /// The algorithm that actually executed (resolves kHybrid).
  Algorithm algorithm_used = Algorithm::kMrGpsrs;
  /// Hybrid diagnostics (kHybrid only).
  core::HybridDecision hybrid_decision;
  /// True when a permanently failing GPMRS merge was degraded to the
  /// GPSRS single-reducer merge.
  bool degraded = false;
  /// True when the bitstring phase was served from the checkpoint store
  /// instead of running (SessionOptions::checkpoint).
  bool resumed_from_checkpoint = false;
};

}  // namespace skymr

#endif  // SKYMR_CORE_RUNNER_H_

// Critical-path analysis: which phase actually bounds the makespan?
//
// The paper's Figure-11 cost model predicts a makespan; this analyzer
// explains an observed one. It models a finished pipeline as a
// node-weighted DAG — map tasks, one shuffle edge per reducer, reduce
// tasks, with job k's map wave depending on job k-1's reduce wave — and
// computes the longest (critical) path through it. Every second of the
// makespan lies on that path, so attributing path nodes to the paper's
// phases (ppd.select, bitstring.prune, local-skyline, shuffle, merge)
// yields a table that sums to 100% of the makespan. A what-if pass
// re-runs the longest path with one phase's weights zeroed ("shuffle
// free ⇒ makespan −X%"), which is the slack argument arXiv 2411.14968
// uses to drive partitioner and reducer-count choices.
//
// Two weightings over the same DAG:
//  * wall: task busy seconds and shuffle build seconds — what a human
//    reads, but timing-noisy.
//  * deterministic: record counts (map/reduce: input+output records,
//    shuffle: reducer input records) — bit-identical across same-seed
//    runs, so CI can assert two runs agree on DAG shape and attribution.
//
// Retries: only the attempt that returns normally writes its task's
// TaskMetrics, so a failed attempt never becomes a node, and a retried
// task's node differs from a clean run's only in `attempts` and wall time.

#ifndef SKYMR_OBS_CRITICAL_PATH_H_
#define SKYMR_OBS_CRITICAL_PATH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/mapreduce/task_metrics.h"

namespace skymr::obs {

/// One node of a node-weighted dependency DAG. Generic on purpose: the
/// golden tests hand-build DAGs, the analyzer builds them from metrics.
struct DagNode {
  /// Unique nonzero node id.
  uint64_t id = 0;
  /// Display name ("j1.map3").
  std::string name;
  /// Phase label nodes are aggregated under ("shuffle", "merge", ...).
  std::string phase;
  /// Node cost. The path length is the sum of node weights (no edge
  /// weights); weights must be non-negative.
  double weight = 0.0;
  /// Ids of nodes that must finish before this one starts.
  std::vector<uint64_t> deps;
};

/// A longest path through a DAG: total weight plus the node ids in
/// dependency order (first node has no deps on the path).
struct DagPath {
  double length = 0.0;
  std::vector<uint64_t> nodes;
};

/// Longest path through `nodes`. Deterministic: ties are broken toward
/// the earliest candidate (first strict maximum in input order for the
/// path end, in dependency-list order for predecessors), so equal-weight
/// DAGs built in the same order yield byte-identical paths. Errors on an
/// unknown dependency id, a duplicate/zero id, or a cycle. An empty DAG
/// yields an empty path of length 0.
StatusOr<DagPath> LongestPath(const std::vector<DagNode>& nodes);

/// Longest path with every node of `free_phase` given weight 0 — the
/// what-if analysis ("how short would the makespan be if this phase were
/// free?"). The freed nodes still exist, so dependencies are preserved.
StatusOr<DagPath> LongestPathWithPhaseFree(const std::vector<DagNode>& nodes,
                                           std::string_view free_phase);

/// One phase's share of the critical path (wall weighting).
struct CpPhase {
  std::string phase;
  /// Critical-path seconds attributed to this phase.
  double seconds = 0.0;
  /// seconds / makespan, in percent. Phases partition the path, so the
  /// percents sum to 100 (when the makespan is nonzero).
  double percent = 0.0;
  /// Makespan reduction, in percent, if this phase cost nothing.
  double what_if_free_percent = 0.0;
};

/// One node on the critical path (wall weighting).
struct CpStep {
  /// Job name ("bitstring-generation", "mr-gpmrs").
  std::string job;
  /// "map", "shuffle", or "reduce".
  std::string kind;
  std::string phase;
  /// Task index within its wave (reducer index for shuffle steps).
  int task = 0;
  /// Attempts the winning task needed (1 = no retry); 1 for shuffle.
  int attempts = 1;
  double seconds = 0.0;
  /// Median cost of this step's wave — the straggler yardstick the
  /// doctor's straggler-on-critical-path check compares against.
  double wave_median_seconds = 0.0;
};

/// One phase's share of the deterministic critical path.
struct CpDeterministicPhase {
  std::string phase;
  /// Record-count weight attributed to this phase.
  uint64_t records = 0;
  double percent = 0.0;
};

/// The full analysis, rendered into the report's "critical_path" block.
struct CriticalPathReport {
  /// False when there was nothing to analyze (no jobs / no tasks).
  bool valid = false;
  /// Critical-path length under the wall weighting. This is the wave
  /// model's makespan — max map straggler plus the worst shuffle+reduce
  /// chain per job — not result.wall_seconds, which also contains
  /// scheduling overhead off the modeled path.
  double makespan_seconds = 0.0;
  /// Phase attribution, ordered by first appearance on the path.
  std::vector<CpPhase> phases;
  /// The path itself, in dependency order.
  std::vector<CpStep> steps;
  /// Seed-stable attribution from deterministic record counts.
  std::vector<CpDeterministicPhase> deterministic_phases;
  /// Seed-stable fingerprint of the DAG shape plus the deterministic
  /// path: two same-seed runs must produce identical signatures.
  std::string dag_signature;
};

/// Analyzes a finished pipeline's per-job metrics (SkylineResult::jobs).
/// Phase mapping follows the paper: the bitstring-generation job's map
/// wave is ppd.select and its reduce wave bitstring.prune; every other
/// job's map wave is local-skyline and its reduce wave merge; shuffle is
/// always shuffle.
CriticalPathReport AnalyzeCriticalPath(
    const std::vector<mr::JobMetrics>& jobs);

/// Renders the human-readable attribution table `skymr_cli stats
/// --critical-path` prints.
std::string RenderCriticalPathText(const CriticalPathReport& report);

}  // namespace skymr::obs

#endif  // SKYMR_OBS_CRITICAL_PATH_H_

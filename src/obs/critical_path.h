// Critical-path analysis: which phase actually bounds the makespan?
//
// The paper's Figure-11 cost model predicts a makespan; this analyzer
// explains an observed one. A finished pipeline runs as barrier waves:
// every map task of job k starts once job k-1's last wave is done, every
// reducer's shuffle (the time to build its input) starts once the job's
// slowest map task is done, and each reduce task starts after its
// shuffle. The longest (critical) chain through those waves is therefore
// a closed formula: per job, the longest map task plus the longest
// shuffle-plus-reduce, summed over chained jobs. Every second of the
// makespan lies on that chain, so attributing its steps to the paper's
// phases (ppd.select, bitstring.prune, local-skyline, shuffle, merge)
// yields a table that sums to 100% of the makespan. A what-if pass
// re-evaluates the formula with one phase's costs zeroed ("shuffle free
// ⇒ makespan −X%"), which is the slack argument arXiv 2411.14968 uses
// to drive partitioner and reducer-count choices.
//
// Ties are broken toward the earliest step: the first maximum in task
// order within a wave, and the earliest step of greatest length as the
// path's end, so equal costs always yield the same path.
//
// Two weightings of the same waves:
//  * wall: task busy seconds and shuffle build seconds — what a human
//    reads, but timing-noisy.
//  * deterministic: record counts (map/reduce: input+output records,
//    shuffle: reducer input records) — bit-identical across same-seed
//    runs, so CI can assert two runs agree on the path and attribution.
//
// Retries: only the attempt that returns normally writes its task's
// TaskMetrics, so a failed attempt never becomes a step, and a retried
// task's step differs from a clean run's only in `attempts` and wall time.

#ifndef SKYMR_OBS_CRITICAL_PATH_H_
#define SKYMR_OBS_CRITICAL_PATH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/mapreduce/task_metrics.h"

namespace skymr::obs {

/// Max and median of one cost over a wave's tasks. The max counts every
/// task; the median counts only tasks that received input
/// (input_records > 0), because a reducer that got no group finishes in
/// microseconds and would make every working task look like a
/// straggler. The report's "skew" block, the `stats` text and each
/// critical-path step's wave median all read this.
struct WaveStats {
  double max = 0.0;
  double median = 0.0;
};
WaveStats SummarizeWave(const std::vector<mr::TaskMetrics>& tasks,
                        double mr::TaskMetrics::*cost);

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

/// One step of the critical path (wall weighting).
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
  /// Median cost of this step's wave over the tasks that received input
  /// (SummarizeWave) — the straggler yardstick the doctor's
  /// straggler-on-critical-path check compares against.
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
  /// The path itself, in execution order.
  std::vector<CpStep> steps;
  /// Seed-stable attribution from deterministic record counts.
  std::vector<CpDeterministicPhase> deterministic_phases;
  /// Seed-stable fingerprint of the wave shape (tasks per wave) plus the
  /// deterministic path: two same-seed runs must produce identical
  /// signatures.
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

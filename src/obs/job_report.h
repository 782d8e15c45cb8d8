// Unified run report: counters, sketches, and task timelines of every
// job in a finished pipeline, plus the Section 6 cost-model predictions
// next to the observed comparison counts (the Figure 11 comparison).
//
// Two renderings share one data walk: a machine-readable JSON document
// (schema skymr-report-v2) and the human-readable text `skymr_cli stats`
// prints. The JSON layout:
//
//   { "schema": "skymr-report-v2",
//     "algorithm": "mr-gpmrs", "wall_seconds": ..., "modeled_seconds": ...,
//     "modeled_compute_seconds": ..., "skyline_size": ...,
//     "ppd": ..., "ppd_rule": ..., "nonempty_partitions": ...,
//     "pruned_partitions": ...,
//     "degraded": ..., "resumed_from_checkpoint": ...,
//     "jobs": [ { "name": ..., "wall_seconds": ..., "shuffle_bytes": ...,
//                 "task_retries": ..., "cache_hits": ..., "cache_misses": ...,
//                 "counters": {...},
//                 "sketches": { name: {count, sum, min, max, p50, p95, p99,
//                                      relative_error} },
//                 "skew": { "max_map_busy_seconds": ...,
//                           "median_map_busy_seconds": ...,
//                           "max_reduce_busy_seconds": ...,
//                           "median_reduce_busy_seconds": ... },
//                 "map_tasks": [ {busy_seconds, attempts, input_records,
//                                 output_records, output_bytes} ],
//                 "reduce_tasks": [ ... + input_bytes, shuffle_seconds ] } ],
//     "cost_model": { "ppd": ..., "dim": ...,
//                     "predicted_mapper_comparisons": ...,
//                     "observed_max_mapper_comparisons": ...,
//                     "predicted_reducer_comparisons": ...,
//                     "observed_max_reducer_comparisons": ... },
//     "critical_path": {
//       "makespan_seconds": ...,
//       "phases": [ {phase, seconds, percent, what_if_free_percent} ],
//       "path": [ {job, kind, phase, task, attempts, seconds,
//                  wave_median_seconds} ],
//       "deterministic": { "dag_signature": ...,
//                          "phases": [ {phase, records, percent} ] } } }
//
// "cost_model" and "ppd_rule" (core::PpdRuleName: "explicit",
// "paper-literal" or "target-tpp") are present only for the grid
// algorithms (ppd > 0). The
// predictions are the paper's estimates under its uniformity assumptions,
// not hard bounds: on skewed data, or when ppd selection is capped, the
// observed counts can exceed them. The point of the block is exactly that
// comparison (paper Figure 11).
//
// "critical_path" (present whenever the run had jobs) is the
// obs/critical_path.h analysis: phase percents partition the wave-model
// makespan (they sum to 100), and the "deterministic" sub-block is built
// from record counts only, so two same-seed runs emit it byte-identically
// — CI's determinism gate diffs exactly that object.
//
// "sketches" hold work counts only (mapper window sizes, reducer group
// load), so they too are byte-identical across same-seed runs. Task
// timings and shuffle bucket sizes appear once, in "map_tasks" and
// "reduce_tasks", summarized by "skew": each wave's max over every task
// and median over the tasks that received input (obs::SummarizeWave).

#ifndef SKYMR_OBS_JOB_REPORT_H_
#define SKYMR_OBS_JOB_REPORT_H_

#include <ostream>
#include <string>

#include "src/common/status.h"
#include "src/core/runner.h"
#include "src/mapreduce/task_metrics.h"

namespace skymr::obs {

/// Schema identifier stamped into every report document.
inline constexpr const char* kReportSchemaVersion = "skymr-report-v2";

/// Writes the full pipeline report for `result` as JSON.
void WriteJobReport(const SkylineResult& result, std::ostream& os);

/// WriteJobReport to a file.
Status WriteJobReportFile(const SkylineResult& result,
                          const std::string& path);

/// Renders the human-readable summary `skymr_cli stats` prints: per-job
/// task skew (max/median busy seconds), retries, cache traffic, one line
/// per sketch, and the cost-model comparison. The critical-path table is
/// separate (obs::RenderCriticalPathText), printed under --critical-path.
std::string RenderStatsText(const SkylineResult& result);

}  // namespace skymr::obs

#endif  // SKYMR_OBS_JOB_REPORT_H_

// `skymr doctor`: a diagnostics pass over a finished run's
// skymr-report-v2 document. It interprets the engine's telemetry and
// answers "why was this run slow?" with severity-ranked findings instead
// of raw numbers:
//
//   task-skew          one map/reduce task busy far longer than the
//                      median of its wave (straggler; bad split or
//                      skewed partition);
//   ppd-skew           observed tuples-per-partition far above the
//                      Section 3.3 uniform-occupancy prediction for the
//                      selected grid (clustered/skewed data breaks the
//                      paper's uniformity assumption);
//   ppd-coarse         the grid is much coarser than the Section 3.3
//                      candidate series allows and partitions are
//                      overfull (PPD forced or capped too low);
//   cost-model         observed comparison maxima exceed the Section 6
//                      predictions (Eq. 5-9) by a large factor;
//   pruning            Equation 2 bitstring pruning removed almost no
//                      partitions despite a large grid;
//   local-kernel       the observed dominance-comparison volume says the
//                      wrong local kernel ran: a window kernel (BNL/SFS)
//                      burning far more comparisons per input tuple than
//                      the R-tree BBS crossover predicts at that
//                      dimensionality (warning; rerun with
//                      --local-algorithm=bbs or auto), or BBS paying its
//                      tree-build overhead on a run whose comparison
//                      volume SFS would handle cheaply (info);
//   reduce-imbalance   reducer input lopsided across tasks (for
//                      MR-GPMRS: Definition-5 group assignment produced
//                      unbalanced reducer groups);
//   retry-storm        task retries per task far above normal (flaky
//                      workers, aggressive chaos schedule, or a
//                      systematic task failure burning the retry
//                      budget);
//   degraded           MR-GPMRS failed and the pipeline fell back to
//                      the single-reducer MR-GPSRS merge;
//   critical-path-phase
//                      one paper phase owns nearly the whole critical
//                      path (from the report's critical_path block) —
//                      the run is bound by that phase, so tune it
//                      (reducer count for merge, partitioner for
//                      shuffle, PPD for local-skyline);
//   straggler-on-critical-path
//                      a critical-path step ran far past its wave
//                      median, or needed retries to commit — that one
//                      task, not aggregate skew, set the makespan;
//   sampler-overhead   the metrics sampler's own per-sample cost (the
//                      mr.sampler_sample_us sketch in a skymr-metrics-v1
//                      export) consumed a non-trivial fraction of the
//                      run — lengthen the sampling period;
//   queueing-delay     (load artifacts) the tail of per-query latency is
//                      dominated by the arrival->dispatch queue wait —
//                      queries spend their p99 waiting for an admission
//                      slot, not computing; add slots/threads or shed
//                      load;
//   tail-amplification (load artifacts) latency p99 is a large multiple
//                      of p50 — a few queries (a straggler holding an
//                      admission slot, a chaos storm) inflated everyone
//                      scheduled behind them, the open-loop harness's
//                      coordinated-omission signature;
//   session-cache-cold (serve-mode load artifacts) few of the resident
//                      session's bitstring lookups hit the cross-query
//                      cache;
//   query-errors       (load artifacts) queries failed: a warning when
//                      any failed, critical when none completed;
//   log-drop           structured log records were dropped (flight-ring
//                      lap contention or snapshot races) — the crash
//                      dump would have holes; grow ring_capacity or log
//                      less on the hot path.
//
// Every heuristic but query-errors has a floor below which it stays
// silent, so a healthy run — including a tiny smoke-scale one — produces
// zero findings. The findings down to straggler-on-critical-path read
// skymr-report-v2 documents (AnalyzeReport); sampler-overhead and
// log-drop read skymr-metrics-v1 documents (AnalyzeMetrics); the load
// findings and log-drop read the `loadgen` row of the load harness's
// skymr-bench-v1 document (AnalyzeLoad).

#ifndef SKYMR_OBS_DOCTOR_H_
#define SKYMR_OBS_DOCTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/obs/json_parse.h"

namespace skymr::obs {

enum class Severity {
  kInfo,
  kWarning,
  kCritical,
};

const char* SeverityName(Severity severity);

/// One diagnostic the doctor emits.
struct Finding {
  Severity severity = Severity::kInfo;
  /// Stable machine-readable identifier (e.g. "ppd-coarse").
  std::string code;
  /// Human sentence with the measured numbers baked in.
  std::string message;
};

/// Thresholds for the heuristics. The defaults are deliberately loose:
/// the doctor should only speak when something is clearly wrong.
struct DoctorOptions {
  /// task-skew: flag when max busy > ratio * median busy ...
  double skew_ratio = 4.0;
  /// ... escalating to critical beyond this ratio ...
  double skew_critical_ratio = 16.0;
  /// ... and only when the slowest task is slow enough to matter.
  double min_busy_seconds = 0.05;

  /// ppd-skew: observed tuples-per-partition vs the uniform prediction.
  double ppd_skew_ratio = 4.0;
  /// ppd-coarse: absolute tuples-per-partition beyond which a grid that
  /// could have been finer is flagged.
  double coarse_tpp = 32.0;
  /// Minimum input size for either grid heuristic to speak.
  int64_t min_tuples_for_ppd = 1000;

  /// cost-model: observed max comparisons > ratio * predicted ...
  double cost_model_ratio = 4.0;
  /// ... and only when the observed count is non-trivial.
  int64_t min_observed_comparisons = 10000;

  /// pruning: flag when pruned/nonempty falls below this fraction ...
  double prune_min_fraction = 0.02;
  /// ... on a grid with at least this many non-empty partitions.
  int64_t min_partitions_for_prune = 256;

  /// reduce-imbalance: max reducer input records > ratio * median ...
  double reduce_imbalance_ratio = 4.0;
  /// ... and the largest reducer saw at least this many records.
  int64_t min_reducer_records = 1000;

  /// local-kernel: a window kernel (no skymr.bbs.* counters) spending
  /// more than this many comparisons per input tuple at BBS-friendly
  /// dimensionality is flagged ...
  double wrong_kernel_cmp_per_tuple = 128.0;
  /// ... where "BBS-friendly" means at least this many dimensions
  /// (matches the core::ResolveAutoKernel crossover) ...
  int64_t min_dim_for_bbs = 5;
  /// ... while a run that did pay the BBS tree build but measured fewer
  /// comparisons per tuple than this gets an informational note ...
  double bbs_overkill_cmp_per_tuple = 8.0;
  /// ... and either direction stays silent below this input size.
  int64_t min_tuples_for_kernel = 4096;

  /// retry-storm: flag when a job's retries exceed ratio * task count ...
  double retry_storm_ratio = 0.5;
  /// ... escalating to critical beyond this ratio ...
  double retry_storm_critical_ratio = 2.0;
  /// ... and only when the job retried at least this many times.
  int64_t min_retries = 3;

  /// critical-path-phase: flag when one phase owns more than this
  /// fraction of the critical path ...
  double critical_phase_fraction = 0.85;
  /// ... and only when the makespan is long enough to matter.
  double min_makespan_seconds = 0.05;

  /// straggler-on-critical-path: flag a path step slower than this
  /// multiple of its wave median ...
  double critical_straggler_ratio = 4.0;
  /// ... when the step itself is slow enough to matter ...
  double critical_min_step_seconds = 0.02;
  /// ... or (independently of timing) when the step's task needed at
  /// least this many attempts to commit.
  int64_t critical_retry_attempts = 2;

  /// sampler-overhead: flag when the sampler's summed per-sample cost
  /// exceeds this fraction of the registry uptime ...
  double sampler_overhead_fraction = 0.02;
  /// ... measured over at least this much uptime.
  double min_sampler_uptime_seconds = 0.5;

  /// queueing-delay (load artifacts): flag when the arrival->dispatch
  /// queue wait p99 exceeds this fraction of the end-to-end latency p99
  /// (the tail is spent waiting for an admission slot, not computing) ...
  double queueing_delay_fraction = 0.5;
  /// ... escalating to critical beyond this fraction ...
  double queueing_delay_critical_fraction = 0.9;
  /// ... and only when the queue-wait p99 itself is non-trivial.
  double min_queue_wait_p99_us = 5000.0;

  /// tail-amplification (load artifacts): flag when latency p99 exceeds
  /// this multiple of p50 (one slow query inflated everyone behind it) ...
  double tail_amplification_ratio = 25.0;
  /// ... and only when the p99 is slow enough to matter.
  double min_tail_p99_us = 10000.0;

  /// Both load heuristics stay silent below this many measured queries
  /// (percentiles of a handful of queries are noise).
  int64_t min_queries_for_load = 20;

  /// log-drop (load artifacts and metrics snapshots): any dropped
  /// structured log record is flagged once at least this many dropped.
  int64_t min_log_dropped = 1;

  /// session-cache-cold (serve-mode load artifacts): flag when fewer
  /// than this fraction of the session's bitstring lookups hit the
  /// cross-query cache — the resident session is rebuilding the phase
  /// it exists to share (fingerprint churn, or a mix with no repeats).
  double min_session_cache_hit_fraction = 0.5;
};

/// Analyzes a parsed skymr-report-v2 document. Returns findings sorted
/// most severe first; an empty vector means a clean bill of health.
/// Returns InvalidArgument when `report` is not a skymr-report-v2
/// object.
StatusOr<std::vector<Finding>> AnalyzeReport(
    const JsonValue& report, const DoctorOptions& options = {});

/// AnalyzeReport over a JSON document text / file.
StatusOr<std::vector<Finding>> AnalyzeReportJson(
    std::string_view json, const DoctorOptions& options = {});
StatusOr<std::vector<Finding>> AnalyzeReportFile(
    const std::string& path, const DoctorOptions& options = {});

/// Analyzes a parsed skymr-metrics-v1 document (the metrics.h exporter's
/// output): currently the sampler-overhead heuristic. Returns
/// InvalidArgument when `metrics` is not a skymr-metrics-v1 object.
StatusOr<std::vector<Finding>> AnalyzeMetrics(
    const JsonValue& metrics, const DoctorOptions& options = {});

/// AnalyzeMetrics over a JSON document text / file.
StatusOr<std::vector<Finding>> AnalyzeMetricsJson(
    std::string_view json, const DoctorOptions& options = {});
StatusOr<std::vector<Finding>> AnalyzeMetricsFile(
    const std::string& path, const DoctorOptions& options = {});

/// Analyzes the `loadgen` row of a parsed skymr-bench-v1 document (the
/// load harness's artifact): query-errors, queueing-delay,
/// tail-amplification, session-cache-cold and log-drop. Returns
/// InvalidArgument when `load` is not a skymr-bench-v1 object or has no
/// `loadgen` row.
StatusOr<std::vector<Finding>> AnalyzeLoad(
    const JsonValue& load, const DoctorOptions& options = {});

/// AnalyzeLoad over a JSON document text / file.
StatusOr<std::vector<Finding>> AnalyzeLoadJson(
    std::string_view json, const DoctorOptions& options = {});
StatusOr<std::vector<Finding>> AnalyzeLoadFile(
    const std::string& path, const DoctorOptions& options = {});

/// Renders findings as the text `skymr_cli doctor` prints (one line per
/// finding, severity-tagged; "doctor: no findings" when empty).
std::string RenderFindings(const std::vector<Finding>& findings);

}  // namespace skymr::obs

#endif  // SKYMR_OBS_DOCTOR_H_

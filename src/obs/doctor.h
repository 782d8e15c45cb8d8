// `skymr doctor`: a diagnostics pass over a finished run's
// skymr-report-v2 document. It interprets the engine's telemetry and
// answers "why was this run slow?" with severity-ranked findings instead
// of raw numbers:
//
//   task-skew          one map/reduce task busy far longer than the
//                      median of its wave's working tasks (straggler;
//                      bad split or skewed partition);
//   ppd-skew           observed tuples-per-partition far above the
//                      Section 3.3 uniform-occupancy prediction for the
//                      selected grid (clustered/skewed data breaks the
//                      paper's uniformity assumption);
//   ppd-coarse         the grid is coarser than the Section 3.3
//                      candidate series allows and partitions are
//                      overfull; judged only when the report's
//                      "ppd_rule" is "explicit" or "paper-literal" (a
//                      target-tpp grid is, by construction, the
//                      candidate nearest its tuples-per-partition
//                      target);
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
//                      a critical-path step ran far past its wave's
//                      working median, or needed retries to commit —
//                      that one task, not aggregate skew, set the
//                      makespan;
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
// zero findings. The thresholds and floors are fixed constants in
// doctor.cc, deliberately loose: the doctor speaks only when something is
// clearly wrong. The findings down to straggler-on-critical-path read
// skymr-report-v2 documents (AnalyzeReport); the load findings and
// log-drop read the `loadgen` row of the load harness's skymr-bench-v1
// document (AnalyzeLoad). Callers parse the document first (ParseJson /
// ParseJsonFile, json_parse.h).

#ifndef SKYMR_OBS_DOCTOR_H_
#define SKYMR_OBS_DOCTOR_H_

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

/// Analyzes a parsed skymr-report-v2 document. Returns findings sorted
/// most severe first; an empty vector means a clean bill of health.
/// Returns InvalidArgument when `report` is not a skymr-report-v2
/// object.
StatusOr<std::vector<Finding>> AnalyzeReport(const JsonValue& report);

/// Analyzes the `loadgen` row of a parsed skymr-bench-v1 document (the
/// load harness's artifact): query-errors, queueing-delay,
/// tail-amplification, session-cache-cold and log-drop. Returns
/// InvalidArgument when `load` is not a skymr-bench-v1 object or has no
/// `loadgen` row.
StatusOr<std::vector<Finding>> AnalyzeLoad(const JsonValue& load);

/// Renders findings as the text `skymr_cli doctor` prints (one line per
/// finding, severity-tagged; "doctor: no findings" when empty).
std::string RenderFindings(const std::vector<Finding>& findings);

}  // namespace skymr::obs

#endif  // SKYMR_OBS_DOCTOR_H_

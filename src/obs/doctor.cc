#include "src/obs/doctor.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "src/core/skyline_job_common.h"
#include "src/obs/bench_artifact.h"
#include "src/obs/job_report.h"

namespace skymr::obs {
namespace {

/// task-skew: flag when max busy > ratio * median busy, escalating to
/// critical beyond the second ratio, and only when the slowest task is
/// slow enough to matter.
constexpr double kSkewRatio = 4.0;
constexpr double kSkewCriticalRatio = 16.0;
constexpr double kMinBusySeconds = 0.05;

/// ppd-skew: observed tuples-per-partition vs the uniform prediction.
constexpr double kPpdSkewRatio = 4.0;
/// ppd-coarse: absolute tuples-per-partition beyond which an explicit or
/// paper-literal grid that could have been finer is flagged.
constexpr double kCoarseTpp = 32.0;
/// Minimum input size for either grid heuristic to speak.
constexpr int64_t kMinTuplesForPpd = 1000;

/// cost-model: observed max comparisons > ratio * predicted, and only
/// when the observed count is non-trivial.
constexpr double kCostModelRatio = 4.0;
constexpr int64_t kMinObservedComparisons = 10000;

/// pruning: flag when pruned/nonempty falls below this fraction on a
/// grid with at least this many non-empty partitions.
constexpr double kPruneMinFraction = 0.02;
constexpr int64_t kMinPartitionsForPrune = 256;

/// local-kernel: a window kernel (no skymr.bbs.* counters) spending more
/// than this many comparisons per input tuple at core::kBbsMinDim or more
/// dimensions is flagged; a run that did pay the BBS tree build but
/// measured fewer comparisons per tuple than the second value gets an
/// informational note; either direction stays silent below the input
/// size.
constexpr double kWrongKernelCmpPerTuple = 128.0;
constexpr double kBbsOverkillCmpPerTuple = 8.0;
constexpr int64_t kMinTuplesForKernel = 4096;

/// retry-storm: flag when a job's retries exceed ratio * task count,
/// escalating to critical beyond the second ratio, and only when the job
/// retried at least this many times.
constexpr double kRetryStormRatio = 0.5;
constexpr double kRetryStormCriticalRatio = 2.0;
constexpr int64_t kMinRetries = 3;

/// critical-path-phase: flag when one phase owns more than this fraction
/// of the critical path, and only when the makespan is long enough to
/// matter.
constexpr double kCriticalPhaseFraction = 0.85;
constexpr double kMinMakespanSeconds = 0.05;

/// straggler-on-critical-path: flag a path step slower than this multiple
/// of its wave median when the step itself is slow enough to matter, or
/// (independently of timing) when the step's task needed at least this
/// many attempts to commit.
constexpr double kCriticalStragglerRatio = 4.0;
constexpr double kCriticalMinStepSeconds = 0.02;
constexpr int64_t kCriticalRetryAttempts = 2;

/// queueing-delay (load artifacts): flag when the arrival->dispatch queue
/// wait p99 exceeds this fraction of the end-to-end latency p99 (the tail
/// is spent waiting for an admission slot, not computing), escalating to
/// critical beyond the second fraction, and only when the queue-wait p99
/// itself is non-trivial.
constexpr double kQueueingDelayFraction = 0.5;
constexpr double kQueueingDelayCriticalFraction = 0.9;
constexpr double kMinQueueWaitP99Us = 5000.0;

/// tail-amplification (load artifacts): flag when latency p99 exceeds
/// this multiple of p50 (one slow query inflated everyone behind it), and
/// only when the p99 is slow enough to matter.
constexpr double kTailAmplificationRatio = 25.0;
constexpr double kMinTailP99Us = 10000.0;

/// Both load heuristics stay silent below this many measured queries
/// (percentiles of a handful of queries are noise).
constexpr int64_t kMinQueriesForLoad = 20;

/// log-drop (load artifacts): flagged once at least this many structured
/// log records were dropped.
constexpr int64_t kMinLogDropped = 1;

/// session-cache-cold (serve-mode load artifacts): flag when fewer than
/// this fraction of the session's bitstring lookups hit the cross-query
/// cache — the resident session is rebuilding the phase it exists to
/// share (fingerprint churn, or a mix with no repeats).
constexpr double kMinSessionCacheHitFraction = 0.5;

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// Expected number of non-empty partitions when `tuples` uniform tuples
/// fall into `cells` equi-sized grid cells (the Section 3.3 occupancy
/// model): cells * (1 - (1 - 1/cells)^tuples).
double UniformExpectedNonempty(double cells, double tuples) {
  if (cells <= 1.0) {
    return 1.0;
  }
  // log1p keeps the power stable for the huge cell counts a fine
  // high-dimensional grid produces.
  const double log_empty = tuples * std::log1p(-1.0 / cells);
  const double expected = cells * (1.0 - std::exp(log_empty));
  return expected < 1.0 ? 1.0 : expected;
}

void CheckTaskSkew(const JsonValue& job, const std::string& job_name,
                   std::vector<Finding>* findings) {
  const JsonValue* skew = job.Find("skew");
  if (skew == nullptr || !skew->is_object()) {
    return;
  }
  struct Wave {
    const char* label;
    const char* max_key;
    const char* median_key;
  };
  const Wave waves[] = {
      {"map", "max_map_busy_seconds", "median_map_busy_seconds"},
      {"reduce", "max_reduce_busy_seconds", "median_reduce_busy_seconds"},
  };
  for (const Wave& wave : waves) {
    const double max = skew->GetDouble(wave.max_key, 0.0);
    const double median = skew->GetDouble(wave.median_key, 0.0);
    if (max < kMinBusySeconds || median <= 0.0) {
      continue;
    }
    const double ratio = max / median;
    if (ratio <= kSkewRatio) {
      continue;
    }
    findings->push_back(Finding{
        ratio > kSkewCriticalRatio ? Severity::kCritical
                                            : Severity::kWarning,
        "task-skew",
        Format("job %s: slowest %s task busy %.3fs vs %.3fs median "
               "(%.1fx) — straggler; check split sizes and partition "
               "balance",
               job_name.c_str(), wave.label, max, median, ratio)});
  }
}

void CheckFaultTolerance(const JsonValue& job, const std::string& job_name,
                         std::vector<Finding>* findings) {
  const JsonValue* counters = job.Find("counters");
  const auto counter = [counters](std::string_view name) -> int64_t {
    return counters != nullptr && counters->is_object()
               ? counters->GetInt(name, 0)
               : 0;
  };
  // retry-storm: retries measured against the job's task count. A couple
  // of retries on a big job is routine fault tolerance; retries rivaling
  // the task count means the schedule is fighting systematic failure.
  const int64_t retries = counter("mr.task_retries");
  const int64_t tasks =
      (job.Find("map_tasks") != nullptr && job.Find("map_tasks")->is_array()
           ? static_cast<int64_t>(job.Find("map_tasks")->AsArray().size())
           : 0) +
      (job.Find("reduce_tasks") != nullptr &&
               job.Find("reduce_tasks")->is_array()
           ? static_cast<int64_t>(job.Find("reduce_tasks")->AsArray().size())
           : 0);
  if (retries >= kMinRetries && tasks > 0) {
    const double ratio =
        static_cast<double>(retries) / static_cast<double>(tasks);
    if (ratio > kRetryStormRatio) {
      findings->push_back(Finding{
          ratio > kRetryStormCriticalRatio ? Severity::kCritical
                                                     : Severity::kWarning,
          "retry-storm",
          Format("job %s: %lld task retries across %lld tasks (%.1f "
                 "retries/task) — flaky workers, an aggressive chaos "
                 "schedule, or a systematic failure burning the retry "
                 "budget",
                 job_name.c_str(), static_cast<long long>(retries),
                 static_cast<long long>(tasks), ratio)});
    }
  }
}

void CheckDegraded(const JsonValue& report, std::vector<Finding>* findings) {
  const JsonValue* degraded = report.Find("degraded");
  if (degraded == nullptr || !degraded->is_bool() || !degraded->AsBool()) {
    return;
  }
  findings->push_back(Finding{
      Severity::kWarning, "degraded",
      "MR-GPMRS failed and the pipeline fell back to the single-reducer "
      "MR-GPSRS merge — the result is correct but the final job ran "
      "without reducer parallelism"});
}

void CheckPpd(const JsonValue& report,
              std::vector<Finding>* findings) {
  const int64_t ppd = report.GetInt("ppd", 0);
  const int64_t nonempty = report.GetInt("nonempty_partitions", 0);
  const int64_t tuples = report.GetInt("input_tuples", 0);
  const int64_t dim = report.GetInt("dim", 0);
  if (ppd <= 0 || nonempty <= 0 || dim <= 0 ||
      tuples < kMinTuplesForPpd) {
    return;
  }
  const double n = static_cast<double>(tuples);
  const double observed_tpp = n / static_cast<double>(nonempty);
  const double cells = std::pow(static_cast<double>(ppd),
                                static_cast<double>(dim));
  const double predicted_tpp = n / UniformExpectedNonempty(cells, n);
  if (observed_tpp > kPpdSkewRatio * predicted_tpp) {
    findings->push_back(Finding{
        Severity::kWarning, "ppd-skew",
        Format("grid ppd=%lld holds %.1f tuples per non-empty partition "
               "vs %.1f predicted for uniform data (%.1fx) — skewed or "
               "clustered input breaks the Section 3.3 uniformity "
               "assumption",
               static_cast<long long>(ppd), observed_tpp, predicted_tpp,
               observed_tpp / predicted_tpp)});
  }
  // The Section 3.3 candidate series runs up to n_m = floor(n^(1/d)): a
  // PPD below that with overfull partitions is a coarse grid. A
  // target-tpp grid is not judged: that rule picks, by construction, the
  // candidate whose partitions come nearest its tuples-per-partition
  // target. The message names the rule the report records; a report
  // without one gets both.
  const std::string rule = report.GetString("ppd_rule", "");
  if (rule == "target-tpp") {
    return;
  }
  const char* source =
      rule == "explicit"        ? "an explicit --ppd set the PPD"
      : rule == "paper-literal" ? "the Section 3.3 occupancy rule chose "
                                  "the PPD"
                                : "the PPD came from an explicit --ppd or "
                                  "the Section 3.3 occupancy rule";
  const double candidate_max = std::floor(std::pow(n, 1.0 / static_cast<double>(dim)));
  if (static_cast<double>(ppd) < candidate_max &&
      observed_tpp > kCoarseTpp) {
    findings->push_back(Finding{
        Severity::kWarning, "ppd-coarse",
        Format("grid ppd=%lld is below the Section 3.3 candidate maximum "
               "%.0f and partitions hold %.1f tuples on average — mappers "
               "do excess local work and pruning is coarse; %s",
               static_cast<long long>(ppd), candidate_max, observed_tpp,
               source)});
  }
}

void CheckCostModel(const JsonValue& report,
                    std::vector<Finding>* findings) {
  const JsonValue* cm = report.Find("cost_model");
  if (cm == nullptr || !cm->is_object()) {
    return;
  }
  struct Side {
    const char* label;
    const char* predicted_key;
    const char* observed_key;
  };
  const Side sides[] = {
      {"mapper", "predicted_mapper_comparisons",
       "observed_max_mapper_comparisons"},
      {"reducer", "predicted_reducer_comparisons",
       "observed_max_reducer_comparisons"},
  };
  for (const Side& side : sides) {
    const double predicted = cm->GetDouble(side.predicted_key, 0.0);
    const int64_t observed = cm->GetInt(side.observed_key, 0);
    if (predicted <= 0.0 || observed < kMinObservedComparisons) {
      continue;
    }
    const double ratio = static_cast<double>(observed) / predicted;
    if (ratio <= kCostModelRatio) {
      continue;
    }
    findings->push_back(Finding{
        Severity::kWarning, "cost-model",
        Format("%s comparisons: observed max %lld vs %.0f predicted by "
               "the Section 6 model (%.1fx) — the Eq. 5-9 uniformity "
               "assumptions do not hold for this run",
               side.label, static_cast<long long>(observed), predicted,
               ratio)});
  }
}

void CheckPruning(const JsonValue& report,
                  std::vector<Finding>* findings) {
  const int64_t ppd = report.GetInt("ppd", 0);
  const int64_t nonempty = report.GetInt("nonempty_partitions", 0);
  const int64_t pruned = report.GetInt("pruned_partitions", 0);
  if (ppd <= 0 || nonempty < kMinPartitionsForPrune) {
    return;
  }
  const double fraction =
      static_cast<double>(pruned) / static_cast<double>(nonempty);
  if (fraction >= kPruneMinFraction) {
    return;
  }
  findings->push_back(Finding{
      Severity::kInfo, "pruning",
      Format("Equation 2 pruned only %lld of %lld non-empty partitions "
             "(%.1f%%) — bitstring pruning is ineffective on this "
             "data/grid combination",
             static_cast<long long>(pruned),
             static_cast<long long>(nonempty), 100.0 * fraction)});
}

void CheckLocalKernel(const JsonValue& report,
                      std::vector<Finding>* findings) {
  const int64_t dim = report.GetInt("dim", 0);
  const int64_t tuples = report.GetInt("input_tuples", 0);
  if (dim <= 0 || tuples < kMinTuplesForKernel) {
    return;
  }
  // Dominance work and the BBS fingerprint, summed across the pipeline's
  // jobs. skymr.bbs.* counters exist exactly when the BBS kernel ran.
  int64_t comparisons = 0;
  int64_t bbs_nodes = 0;
  const JsonValue* jobs = report.Find("jobs");
  if (jobs == nullptr || !jobs->is_array()) {
    return;
  }
  for (const JsonValue& job : jobs->AsArray()) {
    const JsonValue* counters = job.Find("counters");
    if (counters == nullptr || !counters->is_object()) {
      continue;
    }
    comparisons += counters->GetInt("skymr.tuple_comparisons", 0);
    bbs_nodes += counters->GetInt("skymr.bbs.nodes_visited", 0);
  }
  if (comparisons <= 0) {
    return;
  }
  const double cmp_per_tuple =
      static_cast<double>(comparisons) / static_cast<double>(tuples);
  if (bbs_nodes == 0) {
    // Window kernel ran. At high dimensionality the skyline is large and
    // window scans go quadratic; past the measured crossover the
    // output-sensitive BBS does strictly less dominance work.
    if (dim >= static_cast<int64_t>(core::kBbsMinDim) &&
        cmp_per_tuple > kWrongKernelCmpPerTuple) {
      findings->push_back(Finding{
          Severity::kWarning, "local-kernel",
          Format("local window kernel spent %.1f dominance comparisons "
                 "per input tuple at dim=%lld — past the BBS crossover; "
                 "rerun with --local-algorithm=bbs (or auto)",
                 cmp_per_tuple, static_cast<long long>(dim))});
    }
  } else if (cmp_per_tuple < kBbsOverkillCmpPerTuple) {
    findings->push_back(Finding{
        Severity::kInfo, "local-kernel",
        Format("BBS kernel ran but the workload needed only %.1f "
               "dominance comparisons per input tuple — the R-tree "
               "build is pure overhead here; --local-algorithm=sfs (or "
               "auto) is cheaper",
               cmp_per_tuple)});
  }
}

void CheckCriticalPath(const JsonValue& report,
                       std::vector<Finding>* findings) {
  const JsonValue* cp = report.Find("critical_path");
  if (cp == nullptr || !cp->is_object()) {
    return;
  }
  const double makespan = cp->GetDouble("makespan_seconds", 0.0);

  // critical-path-phase: one phase owning (nearly) the whole path means
  // the run is bound by that phase — everything else is free to tune.
  const JsonValue* phases = cp->Find("phases");
  if (makespan >= kMinMakespanSeconds && phases != nullptr &&
      phases->is_array() && phases->AsArray().size() > 1) {
    for (const JsonValue& phase : phases->AsArray()) {
      const double fraction = phase.GetDouble("percent", 0.0) / 100.0;
      if (fraction <= kCriticalPhaseFraction) {
        continue;
      }
      const std::string name = phase.GetString("phase", "?");
      findings->push_back(Finding{
          Severity::kWarning, "critical-path-phase",
          Format("phase %s owns %.0f%% of the %.3fs critical path "
                 "(what-if free: makespan -%.0f%%) — the run is "
                 "%s-bound; tune that phase before anything else",
                 name.c_str(), 100.0 * fraction, makespan,
                 phase.GetDouble("what_if_free_percent", 0.0),
                 name.c_str())});
    }
  }

  // straggler-on-critical-path: unlike task-skew (aggregate wave
  // statistics), this names the specific step that set the makespan —
  // either by running far past its wave median or by burning attempts
  // before committing (crash-retry chains keep winning-attempt busy
  // times normal, so the attempt count is the only visible scar).
  const JsonValue* path = cp->Find("path");
  if (path != nullptr && path->is_array()) {
    for (const JsonValue& step : path->AsArray()) {
      const double seconds = step.GetDouble("seconds", 0.0);
      const double median = step.GetDouble("wave_median_seconds", 0.0);
      const int64_t attempts = step.GetInt("attempts", 1);
      const bool slow = seconds >= kCriticalMinStepSeconds &&
                        median > 0.0 &&
                        seconds > kCriticalStragglerRatio * median;
      const bool retried = attempts >= kCriticalRetryAttempts;
      if (!slow && !retried) {
        continue;
      }
      const std::string job = step.GetString("job", "?");
      const std::string kind = step.GetString("kind", "?");
      const long long task = step.GetInt("task", 0);
      if (slow) {
        findings->push_back(Finding{
            Severity::kWarning, "straggler-on-critical-path",
            Format("job %s: %s task %lld sits on the critical path at "
                   "%.3fs vs %.3fs wave median (%.1fx) — this one "
                   "straggler set the makespan",
                   job.c_str(), kind.c_str(), task, seconds, median,
                   seconds / median)});
      } else {
        findings->push_back(Finding{
            Severity::kWarning, "straggler-on-critical-path",
            Format("job %s: %s task %lld sits on the critical path and "
                   "needed %lld attempts to commit — its retries "
                   "stretched the makespan",
                   job.c_str(), kind.c_str(), task,
                   static_cast<long long>(attempts))});
      }
    }
  }
}

}  // namespace

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "INFO";
    case Severity::kWarning:
      return "WARNING";
    case Severity::kCritical:
      return "CRITICAL";
  }
  return "UNKNOWN";
}

StatusOr<std::vector<Finding>> AnalyzeReport(const JsonValue& report) {
  if (!report.is_object()) {
    return Status::InvalidArgument("doctor: report is not a JSON object");
  }
  const std::string schema = report.GetString("schema", "");
  if (schema != kReportSchemaVersion) {
    return Status::InvalidArgument("doctor: expected schema '" +
                                   std::string(kReportSchemaVersion) +
                                   "', got '" + schema + "'");
  }
  std::vector<Finding> findings;
  const JsonValue* jobs = report.Find("jobs");
  if (jobs != nullptr && jobs->is_array()) {
    for (const JsonValue& job : jobs->AsArray()) {
      const std::string job_name = job.GetString("name", "?");
      CheckTaskSkew(job, job_name, &findings);
      CheckFaultTolerance(job, job_name, &findings);
    }
  }
  CheckDegraded(report, &findings);
  CheckPpd(report, &findings);
  CheckCostModel(report, &findings);
  CheckPruning(report, &findings);
  CheckLocalKernel(report, &findings);
  CheckCriticalPath(report, &findings);
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return static_cast<int>(a.severity) >
                            static_cast<int>(b.severity);
                   });
  return findings;
}

StatusOr<std::vector<Finding>> AnalyzeLoad(const JsonValue& load) {
  if (!load.is_object()) {
    return Status::InvalidArgument("doctor: load is not a JSON object");
  }
  const std::string schema = load.GetString("schema", "");
  if (schema != kBenchSchemaVersion) {
    return Status::InvalidArgument("doctor: expected schema '" +
                                   std::string(kBenchSchemaVersion) +
                                   "', got '" + schema + "'");
  }
  const JsonValue* row = nullptr;
  const JsonValue* rows = load.Find("rows");
  if (rows != nullptr && rows->is_array()) {
    for (const JsonValue& candidate : rows->AsArray()) {
      if (candidate.GetString("name", "") == "loadgen") {
        row = &candidate;
        break;
      }
    }
  }
  if (row == nullptr) {
    return Status::InvalidArgument(
        "doctor: bench document has no 'loadgen' row");
  }
  // A missing section reads as null, whose Get* calls return the
  // fallback.
  static const JsonValue kAbsent;
  const auto section = [row](std::string_view key) -> const JsonValue& {
    const JsonValue* value = row->Find(key);
    return value != nullptr ? *value : kAbsent;
  };
  const JsonValue& wall = section("wall");
  const JsonValue& metrics = section("metrics");
  const JsonValue& deterministic = section("deterministic");
  std::vector<Finding> findings;

  // query-errors: a failed query still records a (short) latency, so a
  // run in which every query failed looks fast to the checks below.
  const int64_t completed = deterministic.GetInt("completed", 0);
  const int64_t errors = deterministic.GetInt("errors", 0);
  if (errors > 0) {
    findings.push_back(Finding{
        completed == 0 ? Severity::kCritical : Severity::kWarning,
        "query-errors",
        Format("%lld of %lld queries failed — check the flight recorder "
               "(--crash-dump) for the failing tasks; a chaos profile with "
               "too few attempts fails queries permanently",
               static_cast<long long>(errors),
               static_cast<long long>(completed + errors))});
  }

  // The row's wall block summarizes every query's latency: reps is the
  // query count and the median is p50.
  const int64_t queries = wall.GetInt("reps", 0);
  if (queries >= kMinQueriesForLoad) {
    const double latency_p50 = wall.GetDouble("median_seconds", 0.0) * 1e6;
    const double latency_p99 = metrics.GetDouble("latency_p99_us", 0.0);
    const double wait_p99 = metrics.GetDouble("queue_wait_p99_us", 0.0);

    // queueing-delay: the tail is waiting for admission, not computing.
    if (wait_p99 >= kMinQueueWaitP99Us && latency_p99 > 0.0) {
      const double fraction = wait_p99 / latency_p99;
      if (fraction > kQueueingDelayFraction) {
        const bool critical =
            fraction > kQueueingDelayCriticalFraction;
        findings.push_back(Finding{
            critical ? Severity::kCritical : Severity::kWarning,
            "queueing-delay",
            Format("queue wait p99 %.0fus is %.0f%% of end-to-end latency "
                   "p99 %.0fus over %lld queries — the tail is spent "
                   "waiting for an admission slot, not computing; add "
                   "admission slots or threads, or shed offered load",
                   wait_p99, 100.0 * fraction, latency_p99,
                   static_cast<long long>(queries))});
      }
    }

    // tail-amplification: the open-loop coordinated-omission signature —
    // a stalled query inflates every arrival scheduled behind it.
    if (latency_p99 >= kMinTailP99Us && latency_p50 > 0.0) {
      const double ratio = latency_p99 / latency_p50;
      if (ratio > kTailAmplificationRatio) {
        findings.push_back(Finding{
            Severity::kWarning, "tail-amplification",
            Format("latency p99 %.0fus is %.0fx the p50 %.0fus over %lld "
                   "queries — a few stalled queries amplified the tail "
                   "for everyone scheduled behind them; find the "
                   "straggler (flight recorder / query.* events) or "
                   "raise admission slots",
                   latency_p99, ratio, latency_p50,
                   static_cast<long long>(queries))});
      }
    }
  }

  // log-drop: a hole in the very stream that post-mortems depend on.
  const int64_t dropped =
      static_cast<int64_t>(metrics.GetDouble("log_dropped", 0.0));
  if (dropped >= kMinLogDropped) {
    findings.push_back(Finding{
        Severity::kWarning, "log-drop",
        Format("%lld structured log records were dropped during the run "
               "— the flight recorder would have holes exactly where a "
               "post-mortem looks; grow Logger ring_capacity or log "
               "less on the hot path",
               static_cast<long long>(dropped))});
  }

  // session-cache-cold: only serve-mode rows carry the session counters
  // (every executed bitstring job was a cache miss); a batch row misses
  // both keys and stays silent.
  const int64_t cache_hits = deterministic.GetInt("session_cache_hits", -1);
  const int64_t cache_misses = deterministic.GetInt("bitstring_jobs", -1);
  const int64_t lookups = cache_hits + cache_misses;
  if (cache_hits >= 0 && cache_misses >= 0 &&
      lookups >= kMinQueriesForLoad) {
    const double hit_fraction =
        static_cast<double>(cache_hits) / static_cast<double>(lookups);
    if (hit_fraction < kMinSessionCacheHitFraction) {
      findings.push_back(Finding{
          Severity::kWarning, "session-cache-cold",
          Format("the resident session's bitstring cache hit only %lld "
                 "of %lld lookups (%.0f%%) — the phase the session "
                 "exists to share is being rebuilt per query; check "
                 "for fingerprint churn (constraint boxes that never "
                 "repeat) or warm the mix's classes before taking "
                 "traffic",
                 static_cast<long long>(cache_hits),
                 static_cast<long long>(lookups), 100.0 * hit_fraction)});
    }
  }

  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return static_cast<int>(a.severity) >
                            static_cast<int>(b.severity);
                   });
  return findings;
}

std::string RenderFindings(const std::vector<Finding>& findings) {
  if (findings.empty()) {
    return "doctor: no findings\n";
  }
  std::ostringstream os;
  for (const Finding& finding : findings) {
    os << SeverityName(finding.severity) << " [" << finding.code << "] "
       << finding.message << "\n";
  }
  return os.str();
}

}  // namespace skymr::obs

#include "src/obs/doctor.h"

#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/runner.h"
#include "src/data/generator.h"
#include "src/obs/job_report.h"
#include "tests/serve/session_test_util.h"

namespace skymr::obs {
namespace {

using session_testing::SubmitOnce;

/// Minimal syntactically valid skymr-report-v2 skeleton; tests splice
/// extra members into the top level via `extra`.
std::string Report(const std::string& extra) {
  std::string doc = R"({"schema": "skymr-report-v2", "algorithm": "mr-gpsrs")";
  if (!extra.empty()) {
    doc += ", " + extra;
  }
  doc += "}";
  return doc;
}

/// Parses `json`, which every caller writes well-formed: the doctor reads
/// parsed documents, and malformed text is ParseJson's to reject.
JsonValue Parse(std::string_view json) {
  auto doc = ParseJson(json);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return doc.ok() ? std::move(doc).value() : JsonValue();
}

std::vector<Finding> Analyze(const std::string& json) {
  auto findings = AnalyzeReport(Parse(json));
  EXPECT_TRUE(findings.ok()) << findings.status();
  return findings.ok() ? std::move(findings).value()
                       : std::vector<Finding>{};
}

bool HasCode(const std::vector<Finding>& findings, const std::string& code) {
  for (const Finding& finding : findings) {
    if (finding.code == code) {
      return true;
    }
  }
  return false;
}

TEST(DoctorTest, RejectsWrongSchema) {
  EXPECT_FALSE(AnalyzeReport(Parse(R"({"schema": "other-v9"})")).ok());
  // A v1 report carried log2 histograms; the doctor reads v2 only.
  EXPECT_FALSE(
      AnalyzeReport(Parse(R"({"schema": "skymr-report-v1"})")).ok());
  EXPECT_FALSE(AnalyzeReport(Parse("[1, 2]")).ok());
}

TEST(DoctorTest, MinimalReportIsClean) {
  EXPECT_TRUE(Analyze(Report("")).empty());
}

TEST(DoctorTest, FlagsMapTaskSkew) {
  const std::string json = Report(
      R"("jobs": [{"name": "mr-gpsrs", "skew": {
           "max_map_busy_seconds": 1.0, "median_map_busy_seconds": 0.1,
           "max_reduce_busy_seconds": 0.0,
           "median_reduce_busy_seconds": 0.0}}])");
  const auto findings = Analyze(json);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].code, "task-skew");
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_NE(findings[0].message.find("map"), std::string::npos);
}

TEST(DoctorTest, ExtremeSkewEscalatesToCritical) {
  const std::string json = Report(
      R"("jobs": [{"name": "mr-gpsrs", "skew": {
           "max_map_busy_seconds": 2.0, "median_map_busy_seconds": 0.1,
           "max_reduce_busy_seconds": 0.0,
           "median_reduce_busy_seconds": 0.0}}])");
  const auto findings = Analyze(json);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kCritical);
}

TEST(DoctorTest, FastSkewedTasksStaySilent) {
  // 10x ratio but everything under the busy-seconds floor: healthy smoke
  // runs must never trip the doctor.
  const std::string json = Report(
      R"("jobs": [{"name": "mr-gpsrs", "skew": {
           "max_map_busy_seconds": 0.01, "median_map_busy_seconds": 0.001,
           "max_reduce_busy_seconds": 0.0,
           "median_reduce_busy_seconds": 0.0}}])");
  EXPECT_TRUE(Analyze(json).empty());
}

TEST(DoctorTest, FlagsReduceImbalanceWithGpmrsHint) {
  const std::string json = Report(
      R"("jobs": [{"name": "mr-gpmrs", "reduce_tasks": [
           {"input_records": 100}, {"input_records": 120},
           {"input_records": 5000}]}])");
  const auto findings = Analyze(json);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].code, "reduce-imbalance");
  EXPECT_NE(findings[0].message.find("Definition-5"), std::string::npos);
}

TEST(DoctorTest, SmallReducersStaySilent) {
  const std::string json = Report(
      R"("jobs": [{"name": "mr-gpmrs", "reduce_tasks": [
           {"input_records": 10}, {"input_records": 900}]}])");
  EXPECT_TRUE(Analyze(json).empty());
}

TEST(DoctorTest, FlagsCoarsePpd) {
  // 100k tuples in 3 dims: candidate max is floor(100000^(1/3)) = 46;
  // ppd=2 leaves 8 cells and ~12.5k tuples per partition.
  const std::string json = Report(
      R"("dim": 3, "input_tuples": 100000, "ppd": 2,
         "nonempty_partitions": 8, "pruned_partitions": 0)");
  const auto findings = Analyze(json);
  EXPECT_TRUE(HasCode(findings, "ppd-coarse"));
}

TEST(DoctorTest, FlagsPpdSkew) {
  // A fine grid (ppd=40, d=3 -> 64000 cells) over 100k tuples should
  // leave ~1.3 tuples per non-empty partition under uniformity; 50
  // non-empty partitions means heavy clustering.
  const std::string json = Report(
      R"("dim": 3, "input_tuples": 100000, "ppd": 40,
         "nonempty_partitions": 50, "pruned_partitions": 0)");
  const auto findings = Analyze(json);
  EXPECT_TRUE(HasCode(findings, "ppd-skew"));
}

TEST(DoctorTest, UniformGridStaysSilent) {
  // 100k tuples, ppd=40 (64000 cells): uniform occupancy predicts about
  // 49.8k non-empty partitions; reporting that is healthy.
  const std::string json = Report(
      R"("dim": 3, "input_tuples": 100000, "ppd": 40,
         "nonempty_partitions": 49800, "pruned_partitions": 20000)");
  EXPECT_TRUE(Analyze(json).empty());
}

TEST(DoctorTest, TinyInputNeverTripsGridChecks) {
  const std::string json = Report(
      R"("dim": 3, "input_tuples": 500, "ppd": 2,
         "nonempty_partitions": 2, "pruned_partitions": 0)");
  EXPECT_TRUE(Analyze(json).empty());
}

TEST(DoctorTest, FlagsCostModelDeviation) {
  const std::string json = Report(
      R"("cost_model": {
           "predicted_mapper_comparisons": 1000.0,
           "observed_max_mapper_comparisons": 50000,
           "predicted_reducer_comparisons": 1000.0,
           "observed_max_reducer_comparisons": 900})");
  const auto findings = Analyze(json);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].code, "cost-model");
  EXPECT_NE(findings[0].message.find("mapper"), std::string::npos);
}

TEST(DoctorTest, FlagsIneffectivePruningAsInfo) {
  const std::string json = Report(
      R"("dim": 4, "input_tuples": 100000, "ppd": 10,
         "nonempty_partitions": 10000, "pruned_partitions": 3)");
  const auto findings = Analyze(json);
  ASSERT_TRUE(HasCode(findings, "pruning"));
  for (const Finding& finding : findings) {
    if (finding.code == "pruning") {
      EXPECT_EQ(finding.severity, Severity::kInfo);
    }
  }
}

TEST(DoctorTest, FindingsSortMostSevereFirst) {
  const std::string json = Report(
      R"("dim": 4, "input_tuples": 100000, "ppd": 10,
         "nonempty_partitions": 10000, "pruned_partitions": 3,
         "jobs": [{"name": "mr-gpsrs", "skew": {
           "max_map_busy_seconds": 2.0, "median_map_busy_seconds": 0.1,
           "max_reduce_busy_seconds": 0.0,
           "median_reduce_busy_seconds": 0.0}}])");
  const auto findings = Analyze(json);
  ASSERT_GE(findings.size(), 2u);
  EXPECT_EQ(findings.front().severity, Severity::kCritical);
  EXPECT_EQ(findings.back().severity, Severity::kInfo);
}

TEST(DoctorTest, FlagsRetryStorm) {
  // 6 retries over 4 tasks = 1.5 retries/task: warning territory.
  const std::string json = Report(
      R"("jobs": [{"name": "mr-gpsrs",
           "counters": {"mr.task_retries": 6},
           "map_tasks": [{}, {}, {}], "reduce_tasks": [{}]}])");
  const auto findings = Analyze(json);
  ASSERT_TRUE(HasCode(findings, "retry-storm")) << RenderFindings(findings);
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
}

TEST(DoctorTest, ExtremeRetryStormEscalatesToCritical) {
  const std::string json = Report(
      R"("jobs": [{"name": "mr-gpsrs",
           "counters": {"mr.task_retries": 20},
           "map_tasks": [{}, {}, {}], "reduce_tasks": [{}]}])");
  const auto findings = Analyze(json);
  ASSERT_TRUE(HasCode(findings, "retry-storm"));
  EXPECT_EQ(findings[0].severity, Severity::kCritical);
}

TEST(DoctorTest, RoutineRetriesStaySilent) {
  // One retry on a 13-task job is normal fault tolerance, not a storm.
  const std::string json = Report(
      R"("jobs": [{"name": "mr-gpsrs",
           "counters": {"mr.task_retries": 1},
           "map_tasks": [{}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}],
           "reduce_tasks": [{}]}])");
  EXPECT_TRUE(Analyze(json).empty());
}

TEST(DoctorTest, FlagsDegradedPipeline) {
  const auto findings = Analyze(Report(R"("degraded": true)"));
  ASSERT_TRUE(HasCode(findings, "degraded"));
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_TRUE(Analyze(Report(R"("degraded": false)")).empty());
}

TEST(DoctorTest, FlagsWindowKernelPastBbsCrossover) {
  // 10k tuples at dim=6, 2M comparisons (200/tuple), no skymr.bbs.*
  // counters: a window kernel ground through the crossover region.
  const std::string json = Report(
      R"("dim": 6, "input_tuples": 10000,
         "jobs": [{"name": "mr-gpsrs",
           "counters": {"skymr.tuple_comparisons": 2000000}}])");
  const auto findings = Analyze(json);
  ASSERT_TRUE(HasCode(findings, "local-kernel")) << RenderFindings(findings);
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_NE(findings[0].message.find("--local-algorithm=bbs"),
            std::string::npos);
}

TEST(DoctorTest, LowDimWindowKernelStaysSilent) {
  // Same comparison volume at dim=4: below the BBS crossover
  // dimensionality, so the window kernel is the right call.
  const std::string json = Report(
      R"("dim": 4, "input_tuples": 10000,
         "jobs": [{"name": "mr-gpsrs",
           "counters": {"skymr.tuple_comparisons": 2000000}}])");
  EXPECT_FALSE(HasCode(Analyze(json), "local-kernel"));
}

TEST(DoctorTest, SmallInputNeverTripsKernelCheck) {
  const std::string json = Report(
      R"("dim": 6, "input_tuples": 3000,
         "jobs": [{"name": "mr-gpsrs",
           "counters": {"skymr.tuple_comparisons": 2000000}}])");
  EXPECT_FALSE(HasCode(Analyze(json), "local-kernel"));
}

TEST(DoctorTest, CheapWindowKernelStaysSilent) {
  // dim=6 but only ~3 comparisons/tuple: correlated-ish data where any
  // kernel is fine.
  const std::string json = Report(
      R"("dim": 6, "input_tuples": 10000,
         "jobs": [{"name": "mr-gpsrs",
           "counters": {"skymr.tuple_comparisons": 30000}}])");
  EXPECT_FALSE(HasCode(Analyze(json), "local-kernel"));
}

TEST(DoctorTest, ReportsBbsOverkillAsInfo) {
  // skymr.bbs.* counters present but only ~3 comparisons/tuple: the
  // R-tree build bought nothing SFS would not have done cheaper.
  const std::string json = Report(
      R"("dim": 2, "input_tuples": 10000,
         "jobs": [{"name": "mr-gpsrs",
           "counters": {"skymr.tuple_comparisons": 30000,
                        "skymr.bbs.nodes_visited": 900}}])");
  const auto findings = Analyze(json);
  ASSERT_TRUE(HasCode(findings, "local-kernel")) << RenderFindings(findings);
  EXPECT_EQ(findings[0].severity, Severity::kInfo);
  EXPECT_NE(findings[0].message.find("--local-algorithm=sfs"),
            std::string::npos);
}

TEST(DoctorTest, BusyBbsRunStaysSilent) {
  // BBS doing real work (many comparisons/tuple) is exactly the right
  // kernel — neither direction should speak.
  const std::string json = Report(
      R"("dim": 8, "input_tuples": 10000,
         "jobs": [{"name": "mr-gpsrs",
           "counters": {"skymr.tuple_comparisons": 5000000,
                        "skymr.bbs.nodes_visited": 40000}}])");
  EXPECT_TRUE(Analyze(json).empty());
}

TEST(DoctorTest, RenderFindingsFormats) {
  EXPECT_EQ(RenderFindings({}), "doctor: no findings\n");
  const std::string text = RenderFindings(
      {Finding{Severity::kWarning, "task-skew", "slow task"}});
  EXPECT_EQ(text, "WARNING [task-skew] slow task\n");
}

// ---------------------------------------------------------------------
// Critical-path findings (ISSUE 8): the doctor reads the report's
// critical_path block, so these splice one in directly.
// ---------------------------------------------------------------------

TEST(DoctorTest, FlagsCriticalPathPhase) {
  const std::string json = Report(
      R"("critical_path": {"makespan_seconds": 0.2,
           "phases": [
             {"phase": "local-skyline", "seconds": 0.184, "percent": 92.0,
              "what_if_free_percent": 88.0},
             {"phase": "shuffle", "seconds": 0.016, "percent": 8.0,
              "what_if_free_percent": 3.0}],
           "path": []})");
  const auto findings = Analyze(json);
  ASSERT_TRUE(HasCode(findings, "critical-path-phase"))
      << RenderFindings(findings);
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_NE(findings[0].message.find("local-skyline"), std::string::npos);
}

TEST(DoctorTest, FastCriticalPathStaysSilent) {
  // Same 92% concentration but a 10ms makespan: smoke-sized runs are
  // always dominated by something and must stay doctor-clean.
  const std::string json = Report(
      R"("critical_path": {"makespan_seconds": 0.01,
           "phases": [
             {"phase": "local-skyline", "seconds": 0.0092, "percent": 92.0,
              "what_if_free_percent": 88.0},
             {"phase": "shuffle", "seconds": 0.0008, "percent": 8.0,
              "what_if_free_percent": 3.0}],
           "path": []})");
  EXPECT_TRUE(Analyze(json).empty());
}

TEST(DoctorTest, SinglePhasePathNeverTripsPhaseCheck) {
  // A one-phase path trivially owns 100% of itself; that is structure,
  // not a diagnosis.
  const std::string json = Report(
      R"("critical_path": {"makespan_seconds": 0.5,
           "phases": [{"phase": "merge", "seconds": 0.5, "percent": 100.0,
                       "what_if_free_percent": 100.0}],
           "path": []})");
  EXPECT_TRUE(Analyze(json).empty());
}

TEST(DoctorTest, FlagsStragglerOnCriticalPathByRatio) {
  const std::string json = Report(
      R"("critical_path": {"makespan_seconds": 0.2, "phases": [],
           "path": [
             {"job": "skyline", "kind": "map", "phase": "local-skyline",
              "task": 3, "attempts": 1, "seconds": 0.1,
              "wave_median_seconds": 0.01}]})");
  const auto findings = Analyze(json);
  ASSERT_TRUE(HasCode(findings, "straggler-on-critical-path"))
      << RenderFindings(findings);
  EXPECT_NE(findings[0].message.find("10.0x"), std::string::npos);
}

TEST(DoctorTest, FlagsStragglerOnCriticalPathByRetries) {
  // Crash-retry chains leave the winning attempt's busy time normal; the
  // attempt count is the only scar, and it must be enough to fire.
  const std::string json = Report(
      R"("critical_path": {"makespan_seconds": 0.2, "phases": [],
           "path": [
             {"job": "skyline", "kind": "reduce", "phase": "merge",
              "task": 0, "attempts": 3, "seconds": 0.001,
              "wave_median_seconds": 0.001}]})");
  const auto findings = Analyze(json);
  ASSERT_TRUE(HasCode(findings, "straggler-on-critical-path"))
      << RenderFindings(findings);
  EXPECT_NE(findings[0].message.find("3 attempts"), std::string::npos);
}

TEST(DoctorTest, FastOrFirstAttemptPathStepsStaySilent) {
  // 10x over median but under the per-step floor, and a clean
  // first-attempt step: neither should speak.
  const std::string json = Report(
      R"("critical_path": {"makespan_seconds": 0.2, "phases": [],
           "path": [
             {"job": "skyline", "kind": "map", "phase": "local-skyline",
              "task": 1, "attempts": 1, "seconds": 0.01,
              "wave_median_seconds": 0.001},
             {"job": "skyline", "kind": "reduce", "phase": "merge",
              "task": 0, "attempts": 1, "seconds": 0.05,
              "wave_median_seconds": 0.04}]})");
  EXPECT_TRUE(Analyze(json).empty());
}

// ---------------------------------------------------------------------
// Metrics-snapshot findings (skymr-metrics-v1).
// ---------------------------------------------------------------------

/// Minimal skymr-metrics-v1 document with a sampler cost sketch whose
/// sum is `cost_us` microseconds over `uptime` seconds of registry life.
std::string Metrics(double uptime, double cost_us, int64_t count = 100) {
  std::ostringstream os;
  os << R"({"schema": "skymr-metrics-v1", "uptime_seconds": )" << uptime
     << R"(, "gauges": {}, "counters": {}, "sketches": {)"
     << R"("mr.sampler_sample_us": {"count": )" << count
     << R"(, "sum": )" << cost_us
     << R"(, "min": 1.0, "max": 9.0, "p50": 4.0, "p95": 8.0, "p99": 9.0,)"
     << R"( "relative_error": 0.01}}})";
  return os.str();
}

TEST(DoctorTest, MetricsRejectsWrongSchema) {
  EXPECT_FALSE(
      AnalyzeMetrics(Parse(R"({"schema": "skymr-report-v2"})")).ok());
  EXPECT_FALSE(AnalyzeMetrics(Parse("[]")).ok());
}

TEST(DoctorTest, FlagsSamplerOverhead) {
  // 50ms of sampling cost in 1s of uptime = 5% > the 2% budget.
  auto findings = AnalyzeMetrics(Parse(Metrics(1.0, 50000.0)));
  ASSERT_TRUE(findings.ok()) << findings.status();
  ASSERT_TRUE(HasCode(*findings, "sampler-overhead"))
      << RenderFindings(*findings);
  EXPECT_EQ((*findings)[0].severity, Severity::kWarning);
}

TEST(DoctorTest, CheapSamplerStaysSilent) {
  // 5ms over 1s = 0.5%: well inside budget.
  auto findings = AnalyzeMetrics(Parse(Metrics(1.0, 5000.0)));
  ASSERT_TRUE(findings.ok()) << findings.status();
  EXPECT_TRUE(findings->empty()) << RenderFindings(*findings);
}

TEST(DoctorTest, ShortLivedSamplerNeverTripsOverheadCheck) {
  // 50% overhead but only 0.1s of uptime: startup cost, not a trend.
  auto findings = AnalyzeMetrics(Parse(Metrics(0.1, 50000.0)));
  ASSERT_TRUE(findings.ok()) << findings.status();
  EXPECT_TRUE(findings->empty()) << RenderFindings(*findings);
}

// ---------------------------------------------------------------------
// Load-artifact findings (the `loadgen` row of a skymr-bench-v1 document).
// ---------------------------------------------------------------------

/// A load artifact whose aggregate `loadgen` row holds `metrics` and
/// `deterministic` (JSON object bodies), after a `size:tiny` row.
std::string LoadDoc(int64_t queries, double p50_us,
                    const std::string& metrics,
                    const std::string& deterministic) {
  std::ostringstream os;
  os << R"({"schema": "skymr-bench-v1", "bench": "loadgen", "rows": [)"
     << R"({"name": "size:tiny", "wall": {"reps": 0}, "metrics": {},)"
     << R"( "deterministic": {"queries": 0}},)"
     << R"( {"name": "loadgen", "wall": {"reps": )" << queries
     << R"(, "median_seconds": )" << p50_us / 1e6 << "}, "
     << R"("metrics": {)" << metrics << "}, "
     << R"("deterministic": {)" << deterministic << "}}]}";
  return os.str();
}

/// Minimal load artifact: `queries` measured latencies with the given
/// p50/p99, a queue-wait p99, a log-drop count, and every query completed
/// unless `errors` failed.
std::string Load(int64_t queries, double p50_us, double p99_us,
                 double wait_p99_us, int64_t log_dropped = 0,
                 int64_t errors = 0) {
  std::ostringstream metrics;
  metrics << R"("latency_p99_us": )" << p99_us
          << R"(, "queue_wait_p99_us": )" << wait_p99_us
          << R"(, "log_dropped": )" << log_dropped;
  std::ostringstream det;
  det << R"("queries": )" << queries << R"(, "completed": )"
      << queries - errors << R"(, "errors": )" << errors;
  return LoadDoc(queries, p50_us, metrics.str(), det.str());
}

std::vector<Finding> AnalyzeLoadDoc(const std::string& json) {
  auto findings = AnalyzeLoad(Parse(json));
  EXPECT_TRUE(findings.ok()) << findings.status();
  return findings.ok() ? std::move(findings).value()
                       : std::vector<Finding>{};
}

TEST(DoctorTest, LoadRejectsWrongSchema) {
  EXPECT_FALSE(AnalyzeLoad(Parse(R"({"schema": "skymr-report-v2"})")).ok());
  EXPECT_FALSE(AnalyzeLoad(Parse("[]")).ok());
  // The retired load schema, even with a loadgen row.
  std::string retired = Load(100, 2000.0, 8000.0, 500.0);
  retired.replace(retired.find("skymr-bench-v1"), 14, "skymr-load-v1");
  EXPECT_FALSE(AnalyzeLoad(Parse(retired)).ok());
  // A bench document with no loadgen row (a figure bench's artifact).
  EXPECT_FALSE(AnalyzeLoad(Parse(
                   R"({"schema": "skymr-bench-v1", "bench": "bench_fig7",)"
                   R"( "rows": [{"name": "loadgen-ish", "wall": {},)"
                   R"( "metrics": {}, "deterministic": {}}]})"))
                   .ok());
  EXPECT_FALSE(AnalyzeLoad(Parse(
                   R"({"schema": "skymr-bench-v1", "bench": "loadgen"})"))
                   .ok());
}

TEST(DoctorTest, HealthyLoadIsClean) {
  // Tail near the median, negligible queue wait, nothing dropped.
  const auto findings = AnalyzeLoadDoc(Load(100, 2000.0, 8000.0, 500.0));
  EXPECT_TRUE(findings.empty()) << RenderFindings(findings);
}

TEST(DoctorTest, FlagsQueueingDelay) {
  // 60% of the 50ms latency tail is queue wait.
  const auto findings = AnalyzeLoadDoc(Load(100, 4000.0, 50000.0, 30000.0));
  ASSERT_TRUE(HasCode(findings, "queueing-delay")) << RenderFindings(findings);
  for (const Finding& finding : findings) {
    if (finding.code == "queueing-delay") {
      EXPECT_EQ(finding.severity, Severity::kWarning);
    }
  }
}

TEST(DoctorTest, SaturatedQueueEscalatesToCritical) {
  // 96% of the tail is queue wait: the system is purely queueing.
  const auto findings = AnalyzeLoadDoc(Load(100, 4000.0, 50000.0, 48000.0));
  ASSERT_TRUE(HasCode(findings, "queueing-delay")) << RenderFindings(findings);
  EXPECT_EQ(findings[0].code, "queueing-delay");
  EXPECT_EQ(findings[0].severity, Severity::kCritical);
}

TEST(DoctorTest, FlagsTailAmplification) {
  // p99 is 40x p50 with a quiet queue-wait signal below its own floor.
  const auto findings = AnalyzeLoadDoc(Load(100, 1000.0, 40000.0, 100.0));
  ASSERT_TRUE(HasCode(findings, "tail-amplification"))
      << RenderFindings(findings);
  EXPECT_FALSE(HasCode(findings, "queueing-delay"));
}

TEST(DoctorTest, FewQueriesNeverTripLoadChecks) {
  // Same pathological shape, but 8 queries: percentiles are noise.
  const auto findings = AnalyzeLoadDoc(Load(8, 1000.0, 80000.0, 60000.0));
  EXPECT_TRUE(findings.empty()) << RenderFindings(findings);
}

TEST(DoctorTest, FlagsLogDropFromLoadCounters) {
  const auto findings =
      AnalyzeLoadDoc(Load(100, 2000.0, 8000.0, 500.0, /*log_dropped=*/7));
  ASSERT_TRUE(HasCode(findings, "log-drop")) << RenderFindings(findings);
}

Severity QueryErrorsSeverity(const std::vector<Finding>& findings) {
  for (const Finding& finding : findings) {
    if (finding.code == "query-errors") {
      return finding.severity;
    }
  }
  ADD_FAILURE() << "no query-errors finding: " << RenderFindings(findings);
  return Severity::kInfo;
}

TEST(DoctorTest, FlagsFailedQueriesAsWarning) {
  // 3 of 100 queries failed; the latency tail itself is healthy.
  const auto findings = AnalyzeLoadDoc(
      Load(100, 2000.0, 8000.0, 500.0, /*log_dropped=*/0, /*errors=*/3));
  EXPECT_EQ(QueryErrorsSeverity(findings), Severity::kWarning);
}

TEST(DoctorTest, NoCompletedQueryEscalatesToCritical) {
  // Every query failed fast: the latency checks see a quick, quiet run.
  const auto findings = AnalyzeLoadDoc(
      Load(24, 300.0, 900.0, 100.0, /*log_dropped=*/0, /*errors=*/24));
  EXPECT_EQ(QueryErrorsSeverity(findings), Severity::kCritical);
  EXPECT_EQ(findings[0].code, "query-errors");
}

TEST(DoctorTest, NoFailedQueryStaysSilent) {
  const auto findings = AnalyzeLoadDoc(Load(100, 2000.0, 8000.0, 500.0));
  EXPECT_FALSE(HasCode(findings, "query-errors")) << RenderFindings(findings);
}

/// A healthy-latency serve-mode document whose session cache resolved
/// `hits` of `hits + misses` bitstring lookups (every miss ran one
/// bitstring job).
std::string ServeLoad(int64_t hits, int64_t misses) {
  const int64_t queries = hits + misses;
  std::ostringstream det;
  det << R"("queries": )" << queries << R"(, "completed": )" << queries
      << R"(, "errors": 0, "session_cache_hits": )" << hits
      << R"(, "bitstring_jobs": )" << misses;
  return LoadDoc(queries, 2000.0,
                 R"("latency_p99_us": 8000.0, "queue_wait_p99_us": 500.0,)"
                 R"( "log_dropped": 0, "serve": 1)",
                 det.str());
}

TEST(DoctorTest, FlagsColdSessionCache) {
  // 90 of 100 lookups rebuilt the bitstring phase: the cache is cold.
  const auto findings = AnalyzeLoadDoc(ServeLoad(10, 90));
  ASSERT_TRUE(HasCode(findings, "session-cache-cold"))
      << RenderFindings(findings);
  for (const Finding& finding : findings) {
    if (finding.code == "session-cache-cold") {
      EXPECT_EQ(finding.severity, Severity::kWarning);
    }
  }
}

TEST(DoctorTest, WarmSessionCacheIsClean) {
  const auto findings = AnalyzeLoadDoc(ServeLoad(95, 5));
  EXPECT_FALSE(HasCode(findings, "session-cache-cold"))
      << RenderFindings(findings);
}

TEST(DoctorTest, BatchArtifactWithoutSessionCountersStaysSilent) {
  // The batch harness writes no session counters at all; their absence
  // must read as "not a serve run", never as a 0% hit rate.
  const auto findings = AnalyzeLoadDoc(Load(100, 2000.0, 8000.0, 500.0));
  EXPECT_FALSE(HasCode(findings, "session-cache-cold"))
      << RenderFindings(findings);
}

TEST(DoctorTest, FewLookupsNeverTripSessionCacheCheck) {
  // 2 misses on a 2-query run is a cold start, not a pathology.
  const auto findings = AnalyzeLoadDoc(ServeLoad(0, 2));
  EXPECT_FALSE(HasCode(findings, "session-cache-cold"))
      << RenderFindings(findings);
}

TEST(DoctorTest, FlagsLogDropFromMetricsSnapshot) {
  const std::string json =
      R"({"schema": "skymr-metrics-v1", "uptime_seconds": 1.0,)"
      R"( "gauges": {}, "sketches": {},)"
      R"( "counters": {"mr.log_dropped": {"value": 3, "rate_per_s": 3.0}}})";
  auto findings = AnalyzeMetrics(Parse(json));
  ASSERT_TRUE(findings.ok()) << findings.status();
  EXPECT_TRUE(HasCode(*findings, "log-drop")) << RenderFindings(*findings);
}

// ---------------------------------------------------------------------
// End to end: the doctor over reports this repo itself writes.
// ---------------------------------------------------------------------

std::string ReportForRun(const SessionOptions& options,
                         const QuerySpec& query, size_t cardinality,
                         size_t dim) {
  data::GeneratorConfig gen;
  gen.distribution = data::Distribution::kIndependent;
  gen.cardinality = cardinality;
  gen.dim = dim;
  gen.seed = 99;
  const Dataset data = std::move(data::Generate(gen)).value();
  auto result = SubmitOnce(data, options, query);
  EXPECT_TRUE(result.ok()) << result.status();
  std::ostringstream os;
  WriteJobReport(*result, os);
  return os.str();
}

TEST(DoctorTest, HealthyRunProducesNoFindings) {
  SessionOptions options;
  QuerySpec query;
  query.algorithm = Algorithm::kMrGpsrs;
  options.engine.num_map_tasks = 4;
  options.engine.num_reducers = 2;
  const auto findings = Analyze(ReportForRun(options, query, 4000, 3));
  EXPECT_TRUE(findings.empty()) << RenderFindings(findings);
}

TEST(DoctorTest, ForcedCoarsePpdIsDiagnosed) {
  SessionOptions options;
  QuerySpec query;
  query.algorithm = Algorithm::kMrGpsrs;
  options.engine.num_map_tasks = 4;
  options.engine.num_reducers = 2;
  options.ppd.explicit_ppd = 2;  // Far below the Section 3.3 candidate max.
  const auto findings = Analyze(ReportForRun(options, query, 20000, 4));
  EXPECT_TRUE(HasCode(findings, "ppd-coarse")) << RenderFindings(findings);
}

}  // namespace
}  // namespace skymr::obs

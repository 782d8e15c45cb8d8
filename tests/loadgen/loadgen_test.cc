// Tests of the open-loop traffic harness (bench/loadgen): schedule
// determinism, coordinated-omission-safe latency accounting, the
// skymr-bench-v1 load artifact, the doctor's load heuristics, and the
// flight recorder post-mortem flow on an injected fatal chaos fault.
// RunLoadTest drives the one driver, RunLoad, in batch mode (a fresh
// session per query), RunServeLoadTest in serve mode (resident sessions).

#include "bench/loadgen/loadgen.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/doctor.h"
#include "src/obs/json_parse.h"
#include "src/obs/metrics.h"

namespace skymr::loadgen {
namespace {

/// A small fast mix so the harness tests run in well under a second.
std::vector<SizeClass> TinyMix() {
  std::vector<SizeClass> mix(2);
  mix[0] = {"tiny", 200, 3, data::Distribution::kIndependent,
            Algorithm::kMrGpsrs, /*constrained=*/false, /*weight=*/3};
  mix[1] = {"boxed", 250, 3, data::Distribution::kIndependent,
            Algorithm::kMrGpmrs, /*constrained=*/true, /*weight=*/1};
  return mix;
}

LoadConfig TinyConfig() {
  LoadConfig config;  // batch mode
  config.seed = 11;
  config.target_qps = 400.0;
  config.queries = 16;
  config.admission_slots = 2;
  config.threads = 4;
  config.mix = TinyMix();
  return config;
}

TEST(ArrivalScheduleTest, IsDeterministicAndSorted) {
  const LoadConfig config = TinyConfig();
  const ArrivalSchedule a = BuildSchedule(config);
  const ArrivalSchedule b = BuildSchedule(config);
  ASSERT_EQ(a.arrival_us.size(), static_cast<size_t>(config.queries));
  EXPECT_EQ(a.arrival_us, b.arrival_us);
  EXPECT_EQ(a.size_class, b.size_class);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_TRUE(std::is_sorted(a.arrival_us.begin(), a.arrival_us.end()));
  EXPECT_GT(a.arrival_us.front(), 0.0);

  LoadConfig reseeded = config;
  reseeded.seed = 12;
  const ArrivalSchedule c = BuildSchedule(reseeded);
  EXPECT_NE(a.hash, c.hash);
  EXPECT_NE(a.arrival_us, c.arrival_us);
}

TEST(RunLoadTest, RejectsBadConfigs) {
  LoadConfig config = TinyConfig();
  config.queries = 0;
  EXPECT_FALSE(RunLoad(config, nullptr, nullptr).ok());
  config = TinyConfig();
  config.target_qps = 0.0;
  EXPECT_FALSE(RunLoad(config, nullptr, nullptr).ok());
  config = TinyConfig();
  config.admission_slots = 0;
  EXPECT_FALSE(RunLoad(config, nullptr, nullptr).ok());
  config = TinyConfig();
  config.mix[0].weight = 0;
  config.mix[1].weight = 0;
  EXPECT_FALSE(RunLoad(config, nullptr, nullptr).ok());
}

TEST(RunLoadTest, DeterministicSignalIsBitIdenticalAcrossRuns) {
  const LoadConfig config = TinyConfig();
  auto first = RunLoad(config, nullptr, nullptr);
  auto second = RunLoad(config, nullptr, nullptr);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first->schedule_hash, second->schedule_hash);
  ASSERT_EQ(first->outcomes.size(), second->outcomes.size());
  for (size_t i = 0; i < first->outcomes.size(); ++i) {
    const QueryOutcome& a = first->outcomes[i];
    const QueryOutcome& b = second->outcomes[i];
    EXPECT_EQ(a.query_id, b.query_id);
    EXPECT_EQ(a.size_class, b.size_class);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.comparisons, b.comparisons) << "query " << i;
    EXPECT_EQ(a.skyline_size, b.skyline_size) << "query " << i;
    // A fresh session per query: nothing is cached, both jobs run.
    EXPECT_FALSE(a.cache_hit) << "query " << i;
    EXPECT_EQ(a.jobs, 2) << "query " << i;
  }
  EXPECT_EQ(first->completed, config.queries);
  EXPECT_EQ(first->errors, 0);
}

TEST(RunLoadTest, RecordsQueryMetrics) {
  obs::MetricsRegistry metrics;
  const LoadConfig config = TinyConfig();
  auto report = RunLoad(config, &metrics, nullptr);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(metrics.counter("query.completed")->Value(), config.queries);
  EXPECT_EQ(metrics.counter("query.errors")->Value(), 0);
  EXPECT_EQ(metrics.sketch("query.latency_us")->Snapshot().count(),
            static_cast<uint64_t>(config.queries));
  EXPECT_EQ(metrics.sketch("query.queue_wait_us")->Snapshot().count(),
            static_cast<uint64_t>(config.queries));
  // Every fresh session released its admission slot.
  EXPECT_EQ(metrics.gauge("mr.session_inflight")->Value(), 0);
}

// The acceptance test for coordinated-omission safety: one injected slow
// query occupying the single admission slot must inflate the measured
// latency of queries *scheduled behind it* — their clocks started at
// arrival, not at dispatch.
TEST(RunLoadTest, SlowQueryInflatesLatencyOfSubsequentQueries) {
  LoadConfig config = TinyConfig();
  config.admission_slots = 1;
  config.queries = 10;
  config.target_qps = 1000.0;  // ~1ms apart: all arrive during the stall
  config.slow_query_index = 2;
  config.slow_query_ms = 300.0;
  auto report = RunLoad(config, nullptr, nullptr);
  ASSERT_TRUE(report.ok()) << report.status();
  const std::vector<QueryOutcome>& outcomes = report->outcomes;
  // Queries behind the stall: even though each *executes* quickly, their
  // latency from scheduled arrival carries the 300ms stall.
  for (int q = 3; q < config.queries; ++q) {
    const double latency_us =
        outcomes[q].done_us - outcomes[q].scheduled_us;
    const double queue_wait_us =
        outcomes[q].dispatch_us - outcomes[q].scheduled_us;
    EXPECT_GT(latency_us, 200e3) << "query " << q;
    EXPECT_GT(queue_wait_us, 200e3) << "query " << q;
  }
  // The queries admitted before the stall stay fast.
  for (int q = 0; q < 2; ++q) {
    EXPECT_LT(outcomes[q].done_us - outcomes[q].scheduled_us, 200e3)
        << "query " << q;
  }
  // And the aggregate tail tells the story: p99 >> p50.
  EXPECT_GT(report->latency_us.Quantile(0.99), 200e3);
}

// Without reserved slots admission is strictly first come, first served
// across every size class: when the stalled query frees the single slot,
// the earliest waiting arrival gets it, whatever its dataset's size.
TEST(RunLoadTest, AdmitsInArrivalOrderAcrossSizeClasses) {
  LoadConfig config = TinyConfig();
  // One class on each side of SessionOptions::small_query_max_tuples.
  config.mix[1].cardinality = 1500;
  config.mix[1].weight = 3;
  config.admission_slots = 1;
  config.queries = 12;
  config.target_qps = 1000.0;  // ~1ms apart: all arrive during the stall
  config.slow_query_index = 0;
  config.slow_query_ms = 100.0;
  auto report = RunLoad(config, nullptr, nullptr);
  ASSERT_TRUE(report.ok()) << report.status();
  const std::vector<QueryOutcome>& outcomes = report->outcomes;
  int per_class[2] = {0, 0};
  for (const QueryOutcome& out : outcomes) {
    ++per_class[out.size_class];
  }
  ASSERT_GT(per_class[0], 1);
  ASSERT_GT(per_class[1], 1);
  for (size_t q = 1; q < outcomes.size(); ++q) {
    EXPECT_LE(outcomes[q - 1].dispatch_us, outcomes[q].dispatch_us)
        << "query " << outcomes[q - 1].query_id << " (class "
        << outcomes[q - 1].size_class << ") admitted after query "
        << outcomes[q].query_id << " (class " << outcomes[q].size_class
        << ")";
  }
}

TEST(LoadArtifactTest, WritesValidSchemaWithDeterministicRows) {
  const LoadConfig config = TinyConfig();
  auto report = RunLoad(config, nullptr, nullptr);
  ASSERT_TRUE(report.ok()) << report.status();
  std::ostringstream os;
  BuildLoadArtifact(config, report.value()).Write(os);
  auto doc = obs::ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->GetString("schema", ""), "skymr-bench-v1");
  EXPECT_EQ(doc->GetString("bench", ""), "loadgen");
  const obs::JsonValue* rows = doc->Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());
  // One aggregate row plus one per size class.
  ASSERT_EQ(rows->AsArray().size(), 1 + config.mix.size());
  const obs::JsonValue& agg = rows->AsArray()[0];
  EXPECT_EQ(agg.GetString("name", ""), "loadgen");
  const obs::JsonValue* metrics = agg.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->GetDouble("serve", -1.0), 0.0);
  const obs::JsonValue* wall = agg.Find("wall");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->GetInt("reps", -1), config.queries);
  const obs::JsonValue* det = agg.Find("deterministic");
  ASSERT_NE(det, nullptr);
  EXPECT_EQ(det->GetInt("queries", -1), config.queries);
  const uint64_t hash =
      (static_cast<uint64_t>(det->GetInt("schedule_hash_hi", 0)) << 32) |
      static_cast<uint64_t>(det->GetInt("schedule_hash_lo", 0));
  EXPECT_EQ(hash, report->schedule_hash);
  // Batch rows carry no session keys, so the committed batch baselines
  // and the doctor's session-cache-cold check are unaffected.
  for (const obs::JsonValue& row : rows->AsArray()) {
    const std::string name = row.GetString("name", "");
    EXPECT_EQ(row.Find("deterministic")->Find("session_cache_hits"),
              nullptr)
        << name;
    EXPECT_EQ(row.Find("deterministic")->Find("bitstring_jobs"), nullptr)
        << name;
    EXPECT_EQ(row.Find("metrics")->Find("cache_hits"), nullptr) << name;
  }
  // Per-size query counts partition the schedule.
  int64_t total = 0;
  for (size_t i = 1; i < rows->AsArray().size(); ++i) {
    const obs::JsonValue* size_det = rows->AsArray()[i].Find("deterministic");
    ASSERT_NE(size_det, nullptr);
    total += size_det->GetInt("queries", 0);
  }
  EXPECT_EQ(total, config.queries);
  // The doctor accepts the artifact.
  auto findings = obs::AnalyzeLoad(*doc);
  ASSERT_TRUE(findings.ok()) << findings.status();
}

// ---------------------------------------------------------------------
// Serve mode: resident session + cross-query bitstring cache
// ---------------------------------------------------------------------

LoadConfig TinyServeConfig(const Dataset* resident) {
  LoadConfig config = TinyConfig();
  config.serve = true;
  config.resident = resident;
  return config;
}

TEST(RunServeLoadTest, RejectsBadConfigs) {
  const Dataset data = data::GenerateIndependent(400, 3, 21);
  LoadConfig config = TinyServeConfig(&data);
  config.queries = 0;
  EXPECT_FALSE(RunLoad(config, nullptr, nullptr).ok());
  config = TinyServeConfig(&data);
  config.admission_slots = 2;
  config.small_reserved_slots = 2;  // leaves no slot for large queries
  EXPECT_FALSE(RunLoad(config, nullptr, nullptr).ok());
}

TEST(RunServeLoadTest, ResidentSessionSharesBitstringAcrossQueries) {
  const Dataset data = data::GenerateIndependent(400, 3, 21);
  const LoadConfig config = TinyServeConfig(&data);
  auto report = RunLoad(config, nullptr, nullptr);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->completed, config.queries);
  EXPECT_EQ(report->errors, 0);
  // TinyMix has two fingerprints (unconstrained + boxed); every query
  // past the two leaders rides the cache.
  EXPECT_EQ(report->session_cache_hits + report->bitstring_jobs,
            config.queries);
  EXPECT_LE(report->bitstring_jobs, 2);
  EXPECT_GT(report->session_cache_hits, 0);
  // The acceptance criterion: cache-hit queries skip the bitstring
  // phase entirely (one job), and the phase ran once per fingerprint.
  int64_t misses = 0;
  for (const QueryOutcome& out : report->outcomes) {
    EXPECT_EQ(out.jobs, out.cache_hit ? 1 : 2)
        << "query " << out.query_id;
    EXPECT_GT(out.skyline_size, 0) << "query " << out.query_id;
    misses += out.cache_hit ? 0 : 1;
  }
  EXPECT_EQ(report->bitstring_jobs, misses);
}

TEST(RunServeLoadTest, DeterministicSignalIsBitIdenticalAcrossRuns) {
  const Dataset data = data::GenerateIndependent(400, 3, 21);
  const LoadConfig config = TinyServeConfig(&data);
  auto first = RunLoad(config, nullptr, nullptr);
  auto second = RunLoad(config, nullptr, nullptr);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first->schedule_hash, second->schedule_hash);
  EXPECT_EQ(first->session_cache_hits, second->session_cache_hits);
  EXPECT_EQ(first->bitstring_jobs, second->bitstring_jobs);
  // Which query leads a fingerprint's single-flight is a thread race, so
  // per-query cache_hit may differ between runs. What single-flight does
  // guarantee: the leaders are exactly the misses, one per distinct
  // fingerprint (TinyMix has two: unconstrained and boxed).
  for (const LoadReport* report : {&first.value(), &second.value()}) {
    int64_t leaders = 0;
    for (const QueryOutcome& out : report->outcomes) {
      leaders += out.cache_hit ? 0 : 1;
    }
    EXPECT_EQ(leaders, report->bitstring_jobs);
    EXPECT_EQ(leaders, 2);
  }
  ASSERT_EQ(first->outcomes.size(), second->outcomes.size());
  for (size_t i = 0; i < first->outcomes.size(); ++i) {
    const QueryOutcome& a = first->outcomes[i];
    const QueryOutcome& b = second->outcomes[i];
    EXPECT_EQ(a.size_class, b.size_class);
    EXPECT_EQ(a.comparisons, b.comparisons) << "query " << i;
    EXPECT_EQ(a.skyline_size, b.skyline_size) << "query " << i;
  }
}

TEST(RunServeLoadTest, WarmupPrimesEveryClassOffClock) {
  const Dataset data = data::GenerateIndependent(400, 3, 21);
  LoadConfig config = TinyServeConfig(&data);
  config.warmup = true;
  auto report = RunLoad(config, nullptr, nullptr);
  ASSERT_TRUE(report.ok()) << report.status();
  // Warmup took the misses off-clock: every scheduled query hits. The
  // hit count also carries any warmup that found its phase already
  // cached (classes sharing a fingerprint).
  EXPECT_LE(report->bitstring_jobs, 2);
  EXPECT_GE(report->session_cache_hits, report->completed);
  for (const QueryOutcome& out : report->outcomes) {
    EXPECT_TRUE(out.cache_hit) << "query " << out.query_id;
    EXPECT_EQ(out.jobs, 1) << "query " << out.query_id;
  }
}

TEST(RunServeLoadTest, PerClassSessionsWithoutResidentDataset) {
  const LoadConfig config = TinyServeConfig(nullptr);
  auto report = RunLoad(config, nullptr, nullptr);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->errors, 0);
  // One session per class, each with its own dataset: one miss each.
  EXPECT_EQ(report->bitstring_jobs, 2);
  EXPECT_EQ(report->session_cache_hits + report->bitstring_jobs,
            config.queries);
}

TEST(LoadArtifactTest, ServeArtifactCarriesSessionCounters) {
  const Dataset data = data::GenerateIndependent(400, 3, 21);
  const LoadConfig config = TinyServeConfig(&data);
  auto report = RunLoad(config, nullptr, nullptr);
  ASSERT_TRUE(report.ok()) << report.status();
  std::ostringstream os;
  BuildLoadArtifact(config, report.value()).Write(os);
  auto doc = obs::ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->GetString("schema", ""), "skymr-bench-v1");
  const obs::JsonValue* rows = doc->Find("rows");
  ASSERT_NE(rows, nullptr);
  const obs::JsonValue& agg = rows->AsArray()[0];
  const obs::JsonValue* metrics = agg.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->GetDouble("serve", -1.0), 1.0);
  // The cache-effectiveness signal is part of the *deterministic* diff
  // surface, so a regression that stops sharing the phase fails CI. Every
  // executed bitstring job was a miss, so bitstring_jobs is the miss
  // count, written once.
  const obs::JsonValue* det = agg.Find("deterministic");
  ASSERT_NE(det, nullptr);
  EXPECT_EQ(det->GetInt("session_cache_hits", -1),
            report->session_cache_hits);
  EXPECT_EQ(det->GetInt("bitstring_jobs", -1), report->bitstring_jobs);
  EXPECT_EQ(det->Find("session_cache_misses"), nullptr);
  auto findings = obs::AnalyzeLoad(*doc);
  ASSERT_TRUE(findings.ok()) << findings.status();
}

// The acceptance test for the crash flight recorder: a fatal chaos fault
// inside the engine (a task out of attempts) must leave a skymr-flight-v1
// dump on disk, and the dump must name a failing query and contain the
// events leading up to its fatal, findable by its query id.
TEST(FlightRecorderPostMortemTest, ChaosCrashDumpNamesFailingQuery) {
  const std::string dump_path =
      testing::TempDir() + "/loadgen_flight_dump.jsonl";
  std::remove(dump_path.c_str());

  obs::MetricsRegistry metrics;
  obs::Logger::Options log_options;
  log_options.metrics = &metrics;
  log_options.crash_dump_path = dump_path;
  obs::Logger logger(log_options);

  LoadConfig config = TinyConfig();
  config.chaos.seed = 99;
  config.chaos.crash_rate = 0.5;
  config.max_task_attempts = 1;  // first injected crash is fatal
  auto report = RunLoad(config, &metrics, &logger);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_GT(report->errors, 0) << "chaos injected no fatal fault";
  EXPECT_TRUE(logger.crash_dumped());

  std::ifstream dump(dump_path);
  ASSERT_TRUE(dump.good()) << "no flight dump at " << dump_path;
  std::string header_line;
  ASSERT_TRUE(std::getline(dump, header_line));
  auto header = obs::ParseJson(header_line);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->GetString("schema", ""), "skymr-flight-v1");
  EXPECT_NE(header->GetString("reason", "").find("task.fatal"),
            std::string::npos);

  std::vector<obs::LogRecord> records;
  std::string line;
  while (std::getline(dump, line)) {
    auto record = obs::ParseLogLine(line);
    ASSERT_TRUE(record.ok()) << line;
    records.push_back(*record);
  }
  EXPECT_EQ(static_cast<int64_t>(records.size()),
            header->GetInt("records", -1));

  // Post-mortem: the dump's first task.fatal record names the query whose
  // fatal fired it. With two slots, failing queries overlap, so that need
  // not be the first failure in arrival order — but it must be a failure.
  uint64_t fatal_query = 0;
  for (const obs::LogRecord& record : records) {
    if (std::string(record.event) == "task.fatal") {
      fatal_query = record.query_id;
      break;
    }
  }
  ASSERT_NE(fatal_query, 0u) << "dump lacks a query-scoped task.fatal";
  const auto failed = std::find_if(
      report->outcomes.begin(), report->outcomes.end(),
      [&](const QueryOutcome& out) { return out.query_id == fatal_query; });
  ASSERT_NE(failed, report->outcomes.end());
  EXPECT_FALSE(failed->ok)
      << "query " << fatal_query << " fired the dump but succeeded";
  // The events leading up to the fatal are there, findable by query id.
  bool saw_query_start = false;
  for (const obs::LogRecord& record : records) {
    saw_query_start |= record.query_id == fatal_query &&
                       std::string(record.event) == "query.start";
  }
  EXPECT_TRUE(saw_query_start)
      << "dump lacks the query.start record of query " << fatal_query;
  std::remove(dump_path.c_str());
}

}  // namespace
}  // namespace skymr::loadgen

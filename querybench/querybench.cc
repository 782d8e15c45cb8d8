// querybench: the repository's end-to-end and per-layer query benchmark.
//
//   querybench gen --workload=W --seed=S --out=DIR
//       Writes the workload's tuples (data::Generate) and, for
//       serve-boxes, its constraint boxes to DIR as CSV.
//   querybench round --workload=W --seed=S --seconds=T --rounds=K
//                    --data=DIR --out=FILE
//       One process's share of an end-to-end run: sets up one or more
//       times, runs the closed loop for T/K seconds and at least 100/K
//       queries, checks every answer against the single-node oracle, and
//       writes the raw samples to FILE. Only the src/skymr.h facade is on
//       the timed path.
//   querybench aggregate --workload=W --seed=S --rounds=F1,F2,...
//                        --report=FILE
//       Pools the rounds into the end-to-end metrics. A run is several
//       rounds in fresh processes because one process's speed on a shared
//       host is steady but differs from the next process's by up to a
//       fifth; pooling K processes averages that out.
//   querybench trace --workload=W --seed=S --seconds=T --data=DIR
//                    --report=FILE
//       The per-layer run, in one process. Spans every call into a layer,
//       alternates query blocks with the library tracer and a metrics
//       registry + logger attached against none, and replays one query of
//       each class layer by layer (replay.h). Its spans go to FILE with
//       ".spans.json" appended.
//
// aggregate and trace print one JSON object as their last stdout line:
// {"correct", "attempted", "failed", "metrics"}. FILE receives the full
// report: sample counts, seed-exact work counts, per-class replays.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "querybench/harness.h"
#include "querybench/replay.h"
#include "querybench/workload.h"
#include "src/cost/cost_model.h"
#include "src/skymr.h"

namespace querybench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Setup repetitions: every round sets up at least once and repeats
/// within its share of kSetupBudgetSeconds, so short setups (batch) pool
/// more samples into setup_s's median.
constexpr int kMaxSetupsPerRound = 5;
constexpr double kSetupBudgetSeconds = 2.0;
/// First line of a round file.
constexpr const char* kRoundHeader = "querybench-round-v1";
/// Queries every run completes, however long they take: enough for p90 to
/// have kMinSamplesBeyond samples beyond it. Each of a run's rounds
/// completes its share, and work counts sum over exactly the first
/// queries of each round's sequence, so they repeat for a seed.
const int64_t kCountedQueries = static_cast<int64_t>(MinSamplesFor(90));
/// The timed phase never runs past this (split across a run's rounds),
/// so a run ends within 180 seconds even on a badly regressed build.
constexpr double kTimedPhaseCapSeconds = 110.0;
/// Queries per mode block in the traced run's on/off comparison.
constexpr int64_t kTracedBlock = 8;
/// Threads computing oracle answers after the timed phase.
constexpr int kOracleThreads = 4;

struct Args {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      args.values[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return args;
}

// ---- One query's outcome ----------------------------------------------------

struct QueryRecord {
  int64_t index = 0;
  int64_t box = -1;
  int mode = 0;  // traced run: kPlain / kTracer / kMetrics
  bool status_ok = false;
  std::string error;
  double latency_s = 0.0;
  double open_s = 0.0;    // batch: Session::Open inside the latency
  double submit_s = 0.0;  // Session::Submit
  double job_wall_s = 0.0;
  double queue_wait_s = 0.0;
  bool cache_hit = false;
  std::vector<skymr::TupleId> ids;
  // Seed-exact work counts.
  int64_t tuple_tests = 0;
  int64_t partition_comparisons = 0;
  int64_t tuples_pruned = 0;
  int64_t shuffle_bytes = 0;
  int64_t bitstring_jobs = 0;
};

void FillFromResult(const skymr::SkylineResult& result,
                    QueryRecord* record) {
  record->ids = result.skyline.ids();
  for (const skymr::mr::JobMetrics& job : result.jobs) {
    record->job_wall_s += job.wall_seconds;
    record->tuple_tests +=
        job.counters.Get(skymr::mr::kCounterTupleComparisons);
    record->partition_comparisons +=
        job.counters.Get(skymr::mr::kCounterPartitionComparisons);
    record->tuples_pruned +=
        job.counters.Get(skymr::mr::kCounterTuplesPruned);
    record->shuffle_bytes += static_cast<int64_t>(job.shuffle_bytes);
  }
  // A hit holds only the skyline job; a miss ran the bitstring job first.
  record->bitstring_jobs = static_cast<int64_t>(result.jobs.size()) - 1;
}

// ---- The system under test, through the facade only ---------------------

/// Everything a run sets up before its first timed query.
struct Resident {
  std::unique_ptr<skymr::Dataset> data;
  std::unique_ptr<skymr::Session> session;  // serve-boxes only
};

/// Opens a span on `spans` when it is set (the traced run only).
std::optional<SpanRecorder::Scope> MaybeSpan(SpanRecorder* spans,
                                             std::string_view name,
                                             int64_t query) {
  if (spans == nullptr) {
    return std::nullopt;
  }
  return std::optional<SpanRecorder::Scope>(std::in_place, spans, name,
                                            query);
}

/// The client's view of one query: batch opens a fresh Session and
/// submits to it; serve submits to the resident one. With `spans` set,
/// each call into the serving layer gets its own span.
void RunQuery(const Workload& workload, const skymr::Dataset& data,
              skymr::Session* resident,
              const skymr::SessionOptions& options,
              const PlannedQuery& plan, QueryRecord* record,
              SpanRecorder* spans = nullptr) {
  const Clock::time_point start = Clock::now();
  std::unique_ptr<skymr::Session> fresh;
  skymr::Session* session = resident;
  if (!workload.resident) {
    auto opened = [&] {
      auto span = MaybeSpan(spans, "serve.open", record->index);
      return skymr::Session::Open(data, options);
    }();
    record->open_s = SecondsSince(start);
    if (!opened.ok()) {
      record->latency_s = SecondsSince(start);
      record->error = opened.status().ToString();
      return;
    }
    fresh = std::move(opened).value();
    session = fresh.get();
  }
  const Clock::time_point submit_start = Clock::now();
  skymr::SubmitInfo info;
  skymr::StatusOr<skymr::SkylineResult> result = [&] {
    auto span = MaybeSpan(spans, "serve.submit", record->index);
    return session->Submit(plan.spec, &info);
  }();
  const Clock::time_point end = Clock::now();
  record->latency_s = std::chrono::duration<double>(end - start).count();
  record->submit_s =
      std::chrono::duration<double>(end - submit_start).count();
  record->queue_wait_s = info.queue_wait_seconds;
  record->cache_hit = info.cache_hit;
  if (!result.ok()) {
    record->error = result.status().ToString();
    return;
  }
  record->status_ok = true;
  FillFromResult(*result, record);
}

skymr::StatusOr<std::unique_ptr<skymr::Dataset>> LoadTuples(
    const std::string& dir) {
  auto loaded = skymr::data::LoadCsv(dir + "/tuples.csv", false);
  if (!loaded.ok()) {
    return loaded.status();
  }
  return std::make_unique<skymr::Dataset>(std::move(loaded).value());
}

/// Opens the resident session and primes its hot boxes.
skymr::StatusOr<std::unique_ptr<skymr::Session>> OpenResident(
    const skymr::Dataset& data, const skymr::SessionOptions& options,
    const std::vector<skymr::Box>& boxes, SpanRecorder* spans,
    double* open_s, double* prime_s) {
  Clock::time_point start = Clock::now();
  auto session_or = [&] {
    auto span = MaybeSpan(spans, "serve.open", -1);
    return skymr::Session::Open(data, options);
  }();
  *open_s = SecondsSince(start);
  if (!session_or.ok()) {
    return session_or.status();
  }
  start = Clock::now();
  {
    auto span = MaybeSpan(spans, "serve.prime", -1);
    for (size_t h = 0; h < kHotBoxes; ++h) {
      skymr::QuerySpec spec;
      spec.constraint = boxes[h];
      SKYMR_RETURN_IF_ERROR((*session_or)->Warmup(spec));
    }
  }
  *prime_s = SecondsSince(start);
  return session_or;
}

// ---- Closed-loop clients ----------------------------------------------------

/// Runs `clients` closed-loop clients, each taking the next query index
/// and running it until `stop(index)` says so. Indices are handed out in
/// order, so the queries below any count that every run reaches are the
/// same in every run. Returns the records sorted by index.
std::vector<QueryRecord> ClosedLoop(
    int clients, std::atomic<int64_t>* next,
    const std::function<bool(int64_t)>& stop,
    const std::function<void(int64_t, QueryRecord*)>& run_one) {
  std::vector<std::vector<QueryRecord>> per_client(
      static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const int64_t index = next->fetch_add(1);
        if (stop(index)) {
          break;
        }
        QueryRecord record;
        record.index = index;
        run_one(index, &record);
        per_client[static_cast<size_t>(c)].push_back(std::move(record));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  std::vector<QueryRecord> records;
  for (auto& chunk : per_client) {
    for (QueryRecord& record : chunk) {
      records.push_back(std::move(record));
    }
  }
  std::sort(records.begin(), records.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.index < b.index;
            });
  return records;
}

// ---- Correctness gate -------------------------------------------------------

/// Oracle answers for every distinct box among `records`, computed on
/// `threads` threads outside every timed window.
std::map<int64_t, std::vector<skymr::TupleId>> Oracles(
    const skymr::Dataset& data, const std::vector<skymr::Box>& boxes,
    const std::vector<int64_t>& keys, int threads) {
  std::vector<int64_t> distinct = keys;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  std::vector<std::vector<skymr::TupleId>> answers(distinct.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < distinct.size();
           i = next.fetch_add(1)) {
        const int64_t key = distinct[i];
        answers[i] = OracleSkylineIds(
            data, key < 0 ? std::nullopt
                          : std::optional<skymr::Box>(
                                boxes[static_cast<size_t>(key)]));
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  std::map<int64_t, std::vector<skymr::TupleId>> out;
  for (size_t i = 0; i < distinct.size(); ++i) {
    out.emplace(distinct[i], std::move(answers[i]));
  }
  return out;
}

GateTally Verify(const std::vector<QueryRecord>& records,
                 const std::map<int64_t, std::vector<skymr::TupleId>>& oracle,
                 std::vector<bool>* ok) {
  GateTally tally;
  ok->assign(records.size(), false);
  for (size_t i = 0; i < records.size(); ++i) {
    const QueryRecord& r = records[i];
    (*ok)[i] = r.status_ok && AnswerMatches(r.ids, oracle.at(r.box));
    tally.Record((*ok)[i]);
  }
  return tally;
}

void ReportFailures(const std::vector<QueryRecord>& records,
                    const std::vector<bool>& ok) {
  for (size_t i = 0; i < records.size(); ++i) {
    if (!ok[i]) {
      std::fprintf(stderr, "query %lld failed: %s\n",
                   static_cast<long long>(records[i].index),
                   records[i].error.empty() ? "answer differs from oracle"
                                            : records[i].error.c_str());
    }
  }
}

// ---- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count and provenance, for humans
};

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string ResultLine(bool correct, const GateTally& tally,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << JsonNumber(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void PrintTable(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

/// A flat JSON object of named numbers (the report file's sections).
std::string JsonObject(const std::vector<std::pair<std::string, double>>& kv,
                       const std::string& indent) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < kv.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << indent << "  \"" << kv[i].first
        << "\": " << JsonNumber(kv[i].second);
  }
  out << "\n" << indent << "}";
  return out.str();
}

std::vector<std::pair<std::string, double>> MetricPairs(
    const std::vector<Metric>& metrics) {
  std::vector<std::pair<std::string, double>> kv;
  for (const Metric& m : metrics) {
    kv.emplace_back(m.name, m.value);
  }
  return kv;
}

/// Seed-exact work of the first `counted` queries of the sequence.
std::vector<std::pair<std::string, double>> WorkCounts(
    const std::vector<QueryRecord>& records, int64_t counted) {
  int64_t queries = 0, tuple_tests = 0, partition_comparisons = 0,
          tuples_pruned = 0, shuffle_bytes = 0, hits = 0, misses = 0,
          bitstring_jobs = 0;
  for (const QueryRecord& r : records) {
    if (r.index >= counted) {
      continue;
    }
    ++queries;
    tuple_tests += r.tuple_tests;
    partition_comparisons += r.partition_comparisons;
    tuples_pruned += r.tuples_pruned;
    shuffle_bytes += r.shuffle_bytes;
    hits += r.cache_hit ? 1 : 0;
    misses += r.cache_hit ? 0 : 1;
    bitstring_jobs += r.bitstring_jobs;
  }
  return {{"queries", static_cast<double>(queries)},
          {"tuple_tests", static_cast<double>(tuple_tests)},
          {"partition_comparisons",
           static_cast<double>(partition_comparisons)},
          {"tuples_pruned", static_cast<double>(tuples_pruned)},
          {"shuffle_bytes", static_cast<double>(shuffle_bytes)},
          {"cache_hits", static_cast<double>(hits)},
          {"cache_misses", static_cast<double>(misses)},
          {"bitstring_jobs", static_cast<double>(bitstring_jobs)}};
}

struct RunContext {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  std::string data_dir;
  std::string report_path;
};

// ---- --trace=0 ----------------------------------------------------------------

int RunRound(const RunContext& ctx, const std::vector<skymr::Box>& boxes,
             int rounds, const std::string& out_path) {
  const Workload& w = *ctx.workload;
  const skymr::SessionOptions options = MakeSessionOptions(w);
  const int64_t min_queries = (kCountedQueries + rounds - 1) / rounds;

  // Setup, repeated within this round's share of the budget: each
  // repetition releases the previous one first, so the peak resident set
  // is that of one setup.
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  Resident resident;
  while (setup_s.empty() ||
         (static_cast<int>(setup_s.size()) < kMaxSetupsPerRound &&
          setup_total_s < kSetupBudgetSeconds / rounds)) {
    resident.session.reset();  // the session borrows the dataset
    resident.data.reset();
    const Clock::time_point start = Clock::now();
    auto data_or = LoadTuples(ctx.data_dir);
    if (!data_or.ok()) {
      std::fprintf(stderr, "load: %s\n", data_or.status().ToString().c_str());
      return 1;
    }
    resident.data = std::move(data_or).value();
    if (w.resident) {
      double open_s = 0.0, prime_s = 0.0;
      auto session_or = OpenResident(*resident.data, options, boxes, nullptr,
                                     &open_s, &prime_s);
      if (!session_or.ok()) {
        std::fprintf(stderr, "setup: %s\n",
                     session_or.status().ToString().c_str());
        return 1;
      }
      resident.session = std::move(session_or).value();
    }
    setup_s.push_back(SecondsSince(start));
    setup_total_s += setup_s.back();
  }

  // Timed phase.
  const int64_t max_index =
      w.resident ? 4 * static_cast<int64_t>(kFreshBoxes) : INT64_MAX;
  const double seconds = ctx.seconds / rounds;
  const double cap_seconds = kTimedPhaseCapSeconds / rounds;
  std::atomic<int64_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<QueryRecord> records = ClosedLoop(
      w.clients, &next,
      [&](int64_t index) {
        const double elapsed = SecondsSince(start);
        return index >= max_index || elapsed >= cap_seconds ||
               (index >= min_queries && elapsed >= seconds);
      },
      [&](int64_t index, QueryRecord* record) {
        const PlannedQuery plan = PlanQuery(w, boxes, index);
        record->box = plan.box;
        RunQuery(w, *resident.data, resident.session.get(), options, plan,
                 record);
      });
  const double timed_s = SecondsSince(start);
  const double peak_rss_mb = PeakRssMb();

  // Correctness gate, outside every timed window.
  std::vector<int64_t> keys;
  for (const QueryRecord& r : records) {
    keys.push_back(r.box);
  }
  const auto oracle = Oracles(*resident.data, boxes, keys, kOracleThreads);
  std::vector<bool> ok;
  const GateTally tally = Verify(records, oracle, &ok);
  ReportFailures(records, ok);

  std::ofstream out(out_path);
  out << kRoundHeader << "\n";
  for (const double s : setup_s) {
    out << "setup_s " << JsonNumber(s) << "\n";
  }
  for (const QueryRecord& r : records) {
    out << "latency_ms " << JsonNumber(r.latency_s * 1e3) << "\n";
  }
  out << "timed_s " << JsonNumber(timed_s) << "\nattempted "
      << tally.attempted << "\nfailed " << tally.failed << "\npeak_rss_mb "
      << JsonNumber(peak_rss_mb) << "\n";
  for (const auto& [name, value] : WorkCounts(records, min_queries)) {
    out << "work " << name << " " << JsonNumber(value) << "\n";
  }
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("round: %zu setups, %lld queries (%lld failed) in %.2f s\n",
              setup_s.size(), static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed), timed_s);
  return 0;
}

/// One round's raw samples, as RunRound wrote them.
struct RoundSamples {
  std::vector<double> setup_s;
  std::vector<double> latency_ms;
  double timed_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  double peak_rss_mb = 0.0;
  std::vector<std::pair<std::string, double>> work;
};

skymr::StatusOr<RoundSamples> ReadRound(const std::string& path) {
  std::ifstream in(path);
  std::string header;
  if (!std::getline(in, header) || header != kRoundHeader) {
    return skymr::Status::IoError("not a round file: " + path);
  }
  RoundSamples round;
  std::string key;
  while (in >> key) {
    if (key == "work") {
      std::string name;
      double value = 0.0;
      in >> name >> value;
      round.work.emplace_back(name, value);
      continue;
    }
    double value = 0.0;
    in >> value;
    if (key == "setup_s") {
      round.setup_s.push_back(value);
    } else if (key == "latency_ms") {
      round.latency_ms.push_back(value);
    } else if (key == "timed_s") {
      round.timed_s = value;
    } else if (key == "attempted") {
      round.attempted = static_cast<int64_t>(value);
    } else if (key == "failed") {
      round.failed = static_cast<int64_t>(value);
    } else if (key == "peak_rss_mb") {
      round.peak_rss_mb = value;
    } else {
      return skymr::Status::IoError("unknown field '" + key + "' in " + path);
    }
  }
  if (!in.eof() || round.timed_s <= 0.0 || round.latency_ms.empty()) {
    return skymr::Status::IoError("malformed round file: " + path);
  }
  return round;
}

/// Pools the rounds of one run into the end-to-end metrics: setup_s is
/// the median of every setup, the latency percentiles are taken over
/// every timed query, qps is correct queries over the summed timed
/// phases, and peak_rss_mb is the median of the rounds' peaks (one
/// process's heap fragmentation can lift its peak by a tenth).
int Aggregate(const RunContext& ctx, const std::vector<std::string>& paths) {
  const Workload& w = *ctx.workload;
  std::vector<double> setup_s, latencies, peak_rss_mb;
  double timed_s = 0.0;
  GateTally tally;
  std::vector<std::pair<std::string, double>> work;
  for (const std::string& path : paths) {
    auto round_or = ReadRound(path);
    if (!round_or.ok()) {
      std::fprintf(stderr, "%s\n", round_or.status().ToString().c_str());
      return 1;
    }
    const RoundSamples& round = *round_or;
    setup_s.insert(setup_s.end(), round.setup_s.begin(), round.setup_s.end());
    latencies.insert(latencies.end(), round.latency_ms.begin(),
                     round.latency_ms.end());
    timed_s += round.timed_s;
    peak_rss_mb.push_back(round.peak_rss_mb);
    tally.attempted += round.attempted;
    tally.failed += round.failed;
    if (work.empty()) {
      work = round.work;
    } else {
      for (size_t i = 0; i < work.size() && i < round.work.size(); ++i) {
        work[i].second += round.work[i].second;
      }
    }
  }
  const int64_t correct_queries = tally.attempted - tally.failed;
  const size_t n = latencies.size();
  char note[160];
  std::vector<Metric> metrics;
  std::snprintf(note, sizeof(note), "median of %zu setups in %zu processes",
                setup_s.size(), paths.size());
  metrics.push_back({"setup_s", Percentile(setup_s, 50), "s", note});
  std::snprintf(note, sizeof(note), "%lld correct queries in %.2f s",
                static_cast<long long>(correct_queries), timed_s);
  metrics.push_back(
      {"qps", static_cast<double>(correct_queries) / timed_s, "1/s", note});
  std::snprintf(note, sizeof(note), "n=%zu", n);
  metrics.push_back({"latency_p50_ms", Percentile(latencies, 50), "ms", note});
  std::snprintf(note, sizeof(note), "n=%zu, %zu beyond", n,
                SamplesBeyond(n, 90));
  metrics.push_back({"latency_p90_ms", Percentile(latencies, 90), "ms", note});
  metrics.push_back({"peak_rss_mb", Percentile(peak_rss_mb, 50), "MB",
                     "median process, setup + timed"});

  const bool enough = SamplesBeyond(n, 90) >= kMinSamplesBeyond;
  if (!enough) {
    std::fprintf(stderr, "only %zu timed queries: p90 needs %zu\n", n,
                 MinSamplesFor(90));
  }
  std::printf("querybench %s seed=%llu: %zu processes, %lld queries, "
              "%lld failed\n",
              std::string(w.name).c_str(),
              static_cast<unsigned long long>(ctx.seed), paths.size(),
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed));
  PrintTable(metrics);
  std::printf("  seed-exact work counts:");
  for (const auto& [name, value] : work) {
    std::printf(" %s=%.0f", name.c_str(), value);
  }
  std::printf("\n");

  std::ofstream report(ctx.report_path);
  report << "{\n  \"workload\": \"" << w.name << "\",\n  \"seed\": "
         << ctx.seed << ",\n  \"trace\": 0,\n  \"processes\": "
         << paths.size() << ",\n  \"attempted\": " << tally.attempted
         << ",\n  \"failed\": " << tally.failed << ",\n  \"samples\": " << n
         << ",\n  \"setups\": " << setup_s.size() << ",\n  \"metrics\": "
         << JsonObject(MetricPairs(metrics), "  ")
         << ",\n  \"work_counts\": " << JsonObject(work, "  ")
         << ",\n  \"latencies_ms\": [";
  for (size_t i = 0; i < n; ++i) {
    report << (i == 0 ? "" : ", ") << JsonNumber(latencies[i]);
  }
  report << "]\n}\n";

  std::printf("%s\n",
              ResultLine(tally.failed == 0 && enough, tally, metrics).c_str());
  return 0;
}

// ---- --trace=1 ----------------------------------------------------------------

enum Mode { kPlain = 0, kTracer = 1, kMetrics = 2 };

int RunTraced(const RunContext& ctx, const std::vector<skymr::Box>& boxes) {
  const Workload& w = *ctx.workload;
  SpanRecorder spans;
  const skymr::SessionOptions options = MakeSessionOptions(w);
  skymr::obs::MetricsRegistry registry;
  skymr::obs::Logger logger;
  skymr::SessionOptions metered = options;
  metered.engine.metrics = &registry;
  metered.engine.log = &logger;

  // Setup, once, spanned call by call.
  std::unique_ptr<skymr::Dataset> data;
  std::unique_ptr<skymr::Session> session;
  std::unique_ptr<skymr::Session> metered_session;
  double load_s = 0.0, load_peak_rss_mb = 0.0, open_s = 0.0, prime_s = 0.0;
  {
    SpanRecorder::Scope setup(&spans, "setup", -1);
    {
      SpanRecorder::Scope span(&spans, "data.load", -1);
      auto data_or = LoadTuples(ctx.data_dir);
      if (!data_or.ok()) {
        std::fprintf(stderr, "load: %s\n",
                     data_or.status().ToString().c_str());
        return 1;
      }
      data = std::move(data_or).value();
      load_s = span.elapsed_s();
    }
    load_peak_rss_mb = PeakRssMb();
    if (w.resident) {
      auto session_or =
          OpenResident(*data, options, boxes, &spans, &open_s, &prime_s);
      if (!session_or.ok()) {
        std::fprintf(stderr, "setup: %s\n",
                     session_or.status().ToString().c_str());
        return 1;
      }
      session = std::move(session_or).value();
    }
  }
  if (!w.resident) {
    // Batch primes nothing; its priming row is what one Warmup of the
    // default query costs on a fresh session, outside the setup span.
    SpanRecorder::Scope span(&spans, "serve.prime", -1);
    auto fresh = skymr::Session::Open(*data, options);
    if (!fresh.ok() || !(*fresh)->Warmup(skymr::QuerySpec{}).ok()) {
      std::fprintf(stderr, "batch warmup failed\n");
      return 1;
    }
    prime_s = span.elapsed_s();
  } else {
    // The metered twin answers the metrics-on blocks; its own priming is
    // not part of the workload's setup.
    double unused_open = 0.0, unused_prime = 0.0;
    auto twin_or = OpenResident(*data, metered, boxes, nullptr,
                                &unused_open, &unused_prime);
    if (!twin_or.ok()) {
      std::fprintf(stderr, "setup: %s\n", twin_or.status().ToString().c_str());
      return 1;
    }
    metered_session = std::move(twin_or).value();
  }

  // Traced closed loop: blocks of kTracedBlock queries rotate through
  // plain, library tracer on, and metrics registry + logger attached.
  std::vector<QueryRecord> records;
  const Clock::time_point start = Clock::now();
  for (int64_t block = 0;; ++block) {
    const int64_t first = block * kTracedBlock;
    const double elapsed = SecondsSince(start);
    if (elapsed >= kTimedPhaseCapSeconds ||
        (first >= kCountedQueries && elapsed >= ctx.seconds)) {
      break;
    }
    const Mode mode = static_cast<Mode>(block % 3);
    if (mode == kTracer) {
      skymr::obs::StartTracing();
    }
    std::atomic<int64_t> next{first};
    std::vector<QueryRecord> chunk = ClosedLoop(
        w.clients, &next,
        [&](int64_t index) { return index >= first + kTracedBlock; },
        [&](int64_t index, QueryRecord* record) {
          const PlannedQuery plan = PlanQuery(w, boxes, index);
          record->box = plan.box;
          record->mode = mode;
          SpanRecorder::Scope span(&spans, "query", index);
          skymr::Session* target =
              mode == kMetrics ? metered_session.get() : session.get();
          RunQuery(w, *data, target, mode == kMetrics ? metered : options,
                   plan, record, &spans);
        });
    if (mode == kTracer) {
      skymr::obs::StopTracing();
      skymr::obs::ClearTrace();
    }
    for (QueryRecord& r : chunk) {
      records.push_back(std::move(r));
    }
  }

  // Correctness of every traced query, then the per-class replays.
  std::vector<int64_t> keys;
  for (const QueryRecord& r : records) {
    keys.push_back(r.box);
  }
  std::vector<PlannedQuery> classes;
  std::vector<int64_t> class_index;
  if (w.resident) {
    classes = {PlanQuery(w, boxes, 0), PlanQuery(w, boxes, 3)};  // hit, miss
    class_index = {0, 3};
  } else {
    classes = {PlanQuery(w, boxes, 0)};
    class_index = {0};
  }
  for (const PlannedQuery& plan : classes) {
    keys.push_back(plan.box);
  }
  const auto oracle = Oracles(*data, boxes, keys, kOracleThreads);
  std::vector<bool> ok;
  GateTally tally = Verify(records, oracle, &ok);
  ReportFailures(records, ok);

  std::vector<QueryReplay> replays;
  for (size_t c = 0; c < classes.size(); ++c) {
    SpanRecorder::Scope span(&spans, "replay", class_index[c]);
    auto replay_or = ReplayQuery(w, *data, classes[c], class_index[c],
                                 oracle.at(classes[c].box), &spans);
    if (!replay_or.ok()) {
      std::fprintf(stderr, "replay: %s\n",
                   replay_or.status().ToString().c_str());
      tally.Record(false);
      continue;
    }
    tally.Record(replay_or->correct);
    replays.push_back(std::move(replay_or).value());
  }
  if (replays.size() != classes.size()) {
    std::printf("%s\n", ResultLine(false, tally, {}).c_str());
    return 0;
  }
  // Skyline-job layers come from the batch query or the serve hit; the
  // bitstring job from the batch query or the serve miss.
  const QueryReplay& sky = replays.front();
  const QueryReplay& bits = replays.back();

  // Traced-query aggregates.
  std::vector<double> lat[3], overhead, queue_wait, opens;
  int64_t hits = 0, misses = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const QueryRecord& r = records[i];
    lat[r.mode].push_back(r.latency_s);
    if (r.mode == kPlain) {
      overhead.push_back((r.submit_s - r.job_wall_s) * 1e3);
      queue_wait.push_back(r.queue_wait_s * 1e3);
    }
    if (!w.resident) {
      opens.push_back(r.open_s * 1e3);
    }
    if (r.index < kCountedQueries) {
      hits += r.cache_hit ? 1 : 0;
      misses += r.cache_hit ? 0 : 1;
    }
  }
  const auto tax_pct = [&](Mode mode) {
    return (Percentile(lat[mode], 50) / Percentile(lat[kPlain], 50) - 1.0) *
           100.0;
  };
  const auto cost_ratio = [&](int64_t measured, double model) {
    return model > 0.0 ? static_cast<double>(measured) / model : 0.0;
  };

  std::vector<Metric> metrics = {
      {"data.load_s", load_s, "s", "LoadCsv"},
      {"data.load_peak_rss_mb", load_peak_rss_mb, "MB", "after LoadCsv"},
      {"serve.open_ms", w.resident ? open_s * 1e3 : Percentile(opens, 50),
       "ms", w.resident ? "resident Open" : "median per-query Open"},
      {"serve.prime_s", prime_s, "s",
       w.resident ? "16 Warmup calls" : "1 Warmup on a fresh session"},
      {"serve.overhead_ms", Percentile(overhead, 50), "ms",
       "median Submit wall - job walls"},
      {"serve.queue_wait_ms", Percentile(queue_wait, 50), "ms",
       "median SubmitInfo wait"},
      {"serve.cache_hits", static_cast<double>(hits), "count",
       "first 100 queries"},
      {"serve.cache_misses", static_cast<double>(misses), "count",
       "first 100 queries"},
      {"serve.cache_hit_ratio",
       hits + misses > 0 ? static_cast<double>(hits) /
                               static_cast<double>(hits + misses)
                         : 0.0,
       "ratio", "first 100 queries"},
      {"core.bitstring_ms", bits.bitstring.wall_ms, "ms",
       bits.query_class + " bitstring job wall"},
      {"core.bitstring_cpu_ms",
       bits.bitstring.map_cpu_ms + bits.bitstring.reduce_cpu_ms, "ms",
       "task busy"},
      {"core.bitstring_input_records",
       static_cast<double>(bits.bitstring.map_input_records), "count", ""},
      {"core.ppd", static_cast<double>(bits.ppd), "count", "selected PPD"},
      {"core.route_ms", sky.route_ms, "ms", sky.query_class + " replay"},
      {"core.map_input_records",
       static_cast<double>(sky.skyline.map_input_records), "count", ""},
      {"core.tuples_pruned", static_cast<double>(sky.tuples_pruned), "count",
       ""},
      {"core.route_keep_ratio",
       sky.rows_scanned > 0 ? static_cast<double>(sky.rows_kept) /
                                  static_cast<double>(sky.rows_scanned)
                            : 0.0,
       "ratio", "rows reaching a window / rows scanned"},
      {"core.compare_ms", sky.compare_ms, "ms", "map side"},
      {"core.partition_comparisons",
       static_cast<double>(sky.map_partition_comparisons), "count",
       "map side"},
      {"core.group_assign_ms", sky.group_assign_ms, "ms", "GPMRS mappers"},
      {"local.kernel_ms", sky.kernel_ms, "ms", "BNL per cell"},
      {"local.tuple_comparisons",
       static_cast<double>(sky.kernel_tuple_comparisons), "count", ""},
      {"core.merge_cpu_ms", sky.merge_cpu_ms, "ms", "all reducers"},
      {"core.merge_max_ms", sky.merge_max_ms, "ms", "slowest reducer"},
      {"core.merge_partition_comparisons_max",
       static_cast<double>(sky.merge_partition_comparisons_max), "count", ""},
      {"mapreduce.serde_ms", sky.serde_ms, "ms", "encode + decode"},
      {"mapreduce.shuffle_bytes", static_cast<double>(sky.skyline.shuffle_bytes),
       "bytes", "skyline job"},
      {"mapreduce.shuffle_sort_ms", sky.skyline.shuffle_sort_ms, "ms",
       "reducer input build"},
      {"mapreduce.map_cpu_ms", sky.skyline.map_cpu_ms, "ms", "task busy"},
      {"mapreduce.reduce_cpu_ms", sky.skyline.reduce_cpu_ms, "ms",
       "task busy"},
      {"mapreduce.task_cpu_residual_ms", sky.task_cpu_residual_ms, "ms",
       "task busy - replayed layers"},
      {"mapreduce.tasks",
       static_cast<double>(sky.skyline.tasks +
                           (w.resident ? 0 : sky.bitstring.tasks)),
       "count", "per query"},
      {"mapreduce.task_retries",
       static_cast<double>(sky.skyline.retries + sky.bitstring.retries),
       "count", ""},
      {"mapreduce.residual_ms",
       sky.skyline.schedule_residual_ms +
           (w.resident ? 0.0 : sky.bitstring.schedule_residual_ms),
       "ms", "job wall - wave busy lower bound"},
      {"cost.map_cmp_ratio",
       cost_ratio(sky.max_map_partition_comparisons,
                  skymr::cost::MapperCost(sky.ppd, data->dim())),
       "ratio", "max mapper / Eq. 8"},
      {"cost.reduce_cmp_ratio",
       cost_ratio(sky.max_reduce_partition_comparisons,
                  skymr::cost::ReducerCost(sky.ppd, data->dim())),
       "ratio", "max reducer / Eq. 9"},
      {"obs.trace_overhead_pct", tax_pct(kTracer), "%",
       "p50 tracer on vs off"},
      {"obs.metrics_tax_pct", tax_pct(kMetrics), "%",
       "p50 registry + logger vs none"},
  };

  std::printf("querybench %s seed=%llu trace=1: %zu traced queries, "
              "%lld failed\n",
              std::string(w.name).c_str(),
              static_cast<unsigned long long>(ctx.seed), records.size(),
              static_cast<long long>(tally.failed));
  PrintTable(metrics);

  const std::string spans_path = ctx.report_path + ".spans.json";
  if (const skymr::Status s = spans.WriteJson(spans_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
  }
  std::ofstream report(ctx.report_path);
  report << "{\n  \"workload\": \"" << w.name << "\",\n  \"seed\": "
         << ctx.seed << ",\n  \"trace\": 1,\n  \"attempted\": "
         << tally.attempted << ",\n  \"failed\": " << tally.failed
         << ",\n  \"traced_queries\": " << records.size()
         << ",\n  \"per_layer\": " << JsonObject(MetricPairs(metrics), "  ")
         << ",\n  \"work_counts\": "
         << JsonObject(WorkCounts(records, kCountedQueries), "  ")
         << ",\n  \"queries\": [";
  for (size_t i = 0; i < records.size(); ++i) {
    const QueryRecord& r = records[i];
    report << (i == 0 ? "\n" : ",\n") << "    {\"index\": " << r.index
           << ", \"mode\": " << r.mode << ", \"cache_hit\": "
           << (r.cache_hit ? "true" : "false")
           << ", \"latency_ms\": " << JsonNumber(r.latency_s * 1e3)
           << ", \"open_ms\": " << JsonNumber(r.open_s * 1e3)
           << ", \"overhead_ms\": "
           << JsonNumber((r.submit_s - r.job_wall_s) * 1e3)
           << ", \"job_walls_ms\": " << JsonNumber(r.job_wall_s * 1e3) << "}";
  }
  report << "\n  ]\n}\n";

  std::printf("%s\n",
              ResultLine(tally.failed == 0, tally, metrics).c_str());
  return 0;
}

// ---- gen ----------------------------------------------------------------------

int Generate(const Workload& w, uint64_t seed, const std::string& out) {
  skymr::data::GeneratorConfig config;
  config.distribution = w.distribution;
  config.cardinality = w.cardinality;
  config.dim = w.dim;
  config.seed = seed;
  auto data_or = skymr::data::Generate(config);
  if (!data_or.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 data_or.status().ToString().c_str());
    return 1;
  }
  if (const skymr::Status s =
          skymr::data::SaveCsv(*data_or, out + "/tuples.csv");
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (w.resident) {
    if (const skymr::Status s = skymr::data::SaveCsv(
            BoxesToRows(DrawBoxes(w.dim, seed)), out + "/boxes.csv");
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: querybench gen|round|aggregate|trace "
                         "--workload=W --seed=S ...\n");
    return 2;
  }
  const std::string command = argv[1];
  const Args args = ParseArgs(argc, argv);
  const Workload* workload = FindWorkload(args.Get("workload", ""));
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'\n",
                 args.Get("workload", "").c_str());
    return 2;
  }
  RunContext ctx;
  ctx.workload = workload;
  ctx.seed = std::strtoull(args.Get("seed", "1").c_str(), nullptr, 10);
  ctx.seconds = std::strtod(args.Get("seconds", "10").c_str(), nullptr);
  ctx.data_dir = args.Get("data", ".");
  ctx.report_path = args.Get("report", "querybench-report.json");

  if (command == "gen") {
    return Generate(*workload, ctx.seed, args.Get("out", "."));
  }
  if (command == "aggregate") {
    std::vector<std::string> paths;
    std::istringstream list(args.Get("rounds", ""));
    for (std::string path; std::getline(list, path, ',');) {
      paths.push_back(path);
    }
    return Aggregate(ctx, paths);
  }
  if (command != "round" && command != "trace") {
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 2;
  }

  std::vector<skymr::Box> boxes;
  if (workload->resident) {
    auto rows_or = skymr::data::LoadCsv(ctx.data_dir + "/boxes.csv", false);
    if (!rows_or.ok()) {
      std::fprintf(stderr, "boxes: %s\n", rows_or.status().ToString().c_str());
      return 1;
    }
    auto boxes_or = BoxesFromRows(*rows_or);
    if (!boxes_or.ok() ||
        boxes_or->size() != kHotBoxes + kFreshBoxes) {
      std::fprintf(stderr, "boxes: malformed box file\n");
      return 1;
    }
    boxes = std::move(boxes_or).value();
  }
  if (command == "trace") {
    return RunTraced(ctx, boxes);
  }
  const int rounds = std::atoi(args.Get("rounds", "1").c_str());
  if (rounds < 1) {
    std::fprintf(stderr, "--rounds must be >= 1\n");
    return 2;
  }
  return RunRound(ctx, boxes, rounds, args.Get("out", "round.txt"));
}

}  // namespace
}  // namespace querybench

int main(int argc, char** argv) { return querybench::Main(argc, argv); }

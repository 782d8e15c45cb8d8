#include "bench/loadgen/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "src/common/thread_pool.h"
#include "src/mapreduce/chaos.h"
#include "src/serve/session.h"

namespace skymr::loadgen {
namespace {

using Clock = std::chrono::steady_clock;

/// Per-size-class dataset seed: shared across runs and independent of the
/// schedule seed, so changing the arrival seed re-orders traffic without
/// changing any query's answer.
constexpr uint64_t kDatasetSeedBase = 20140324;

/// Salts for the two independent deterministic draws per query.
constexpr uint64_t kSaltArrival = 0x6172726976616c73ULL;  // "arrivals"
constexpr uint64_t kSaltSizePick = 0x73697a657069636bULL;  // "sizepick"

/// One uniform draw in (0, 1]: the top 53 bits of a mixed counter. The
/// *integer* bits feed the schedule hash so it is machine-independent;
/// only the timing (never the gate) sees the derived double.
uint64_t DrawBits(uint64_t seed, uint64_t salt, uint64_t i) {
  return mr::ChaosMix64(mr::ChaosMix64(seed ^ salt) ^ (i + 1));
}

double BitsToUnitOpen(uint64_t bits) {
  // (0, 1]: never 0, so -log() below is finite.
  return (static_cast<double>(bits >> 11) + 1.0) * 0x1.0p-53;
}

double NowUs(Clock::time_point epoch) {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

}  // namespace

std::vector<SizeClass> DefaultMix(double scale) {
  auto scaled = [scale](size_t n) {
    const double s = static_cast<double>(n) * scale;
    return std::max<size_t>(200, static_cast<size_t>(s));
  };
  std::vector<SizeClass> mix(4);
  mix[0] = {"small", scaled(600), 3, data::Distribution::kIndependent,
            Algorithm::kMrGpsrs, /*constrained=*/false, /*weight=*/6};
  mix[1] = {"medium", scaled(2000), 4, data::Distribution::kIndependent,
            Algorithm::kMrGpmrs, /*constrained=*/false, /*weight=*/3};
  mix[2] = {"large", scaled(5000), 5, data::Distribution::kAntiCorrelated,
            Algorithm::kMrGpmrs, /*constrained=*/false, /*weight=*/1};
  mix[3] = {"constrained", scaled(1500), 4, data::Distribution::kIndependent,
            Algorithm::kMrGpmrs, /*constrained=*/true, /*weight=*/2};
  return mix;
}

std::vector<SizeClass> ResidentServeMix() {
  // Dataset-shape fields are the non-resident fallback; with a resident
  // dataset the classes differ only by algorithm/constraint/lane. The two
  // unconstrained classes share one bitstring fingerprint (the fingerprint
  // never includes the algorithm), the constrained class has its own.
  std::vector<SizeClass> mix(3);
  mix[0] = {"gpsrs", 1500, 3, data::Distribution::kIndependent,
            Algorithm::kMrGpsrs, /*constrained=*/false, /*weight=*/4,
            AdmissionClass::kSmall};
  mix[1] = {"gpmrs", 4000, 3, data::Distribution::kIndependent,
            Algorithm::kMrGpmrs, /*constrained=*/false, /*weight=*/3,
            AdmissionClass::kLarge};
  mix[2] = {"constrained", 1500, 3, data::Distribution::kIndependent,
            Algorithm::kMrGpmrs, /*constrained=*/true, /*weight=*/2,
            AdmissionClass::kSmall};
  return mix;
}

namespace {

/// The run's class list: config.mix, else the resident mix over a
/// resident dataset, else the default mix.
std::vector<SizeClass> ResolveMix(const LoadConfig& config) {
  if (!config.mix.empty()) {
    return config.mix;
  }
  return config.resident != nullptr ? ResidentServeMix() : DefaultMix(1.0);
}

}  // namespace

ArrivalSchedule BuildSchedule(const LoadConfig& config) {
  const std::vector<SizeClass> mix = ResolveMix(config);
  uint64_t total_weight = 0;
  for (const SizeClass& sc : mix) {
    total_weight += sc.weight;
  }
  ArrivalSchedule schedule;
  schedule.arrival_us.reserve(config.queries);
  schedule.size_class.reserve(config.queries);
  const double mean_gap_us = 1e6 / config.target_qps;
  double t = 0.0;
  uint64_t hash = mr::ChaosMix64(config.seed ^ kSaltArrival);
  for (int i = 0; i < config.queries; ++i) {
    const uint64_t gap_bits = DrawBits(config.seed, kSaltArrival, i);
    // Poisson arrivals: exponential inter-arrival gaps at the target rate.
    t += -std::log(BitsToUnitOpen(gap_bits)) * mean_gap_us;
    schedule.arrival_us.push_back(t);

    const uint64_t pick_bits = DrawBits(config.seed, kSaltSizePick, i);
    int chosen = 0;
    if (total_weight > 0) {
      uint64_t ticket = pick_bits % total_weight;
      for (size_t c = 0; c < mix.size(); ++c) {
        if (ticket < mix[c].weight) {
          chosen = static_cast<int>(c);
          break;
        }
        ticket -= mix[c].weight;
      }
    }
    schedule.size_class.push_back(chosen);

    // Integer-only fingerprint: raw draw bits + the pick, never the
    // floating-point arrival times.
    hash = mr::ChaosMix64(hash ^ gap_bits);
    hash = mr::ChaosMix64(hash ^ static_cast<uint64_t>(chosen));
  }
  schedule.hash = hash;
  return schedule;
}

StatusOr<LoadReport> RunLoad(const LoadConfig& config,
                             obs::MetricsRegistry* metrics,
                             obs::Logger* logger) {
  if (config.queries <= 0) {
    return Status::InvalidArgument("loadgen: queries must be positive");
  }
  if (!(config.target_qps > 0.0)) {
    return Status::InvalidArgument("loadgen: target_qps must be positive");
  }
  if (config.admission_slots <= 0) {
    return Status::InvalidArgument(
        "loadgen: admission_slots must be positive");
  }
  if (config.small_reserved_slots < 0 ||
      config.small_reserved_slots >= config.admission_slots) {
    return Status::InvalidArgument(
        "loadgen: small_reserved_slots must leave at least one admission "
        "slot for large queries");
  }
  const std::vector<SizeClass> mix = ResolveMix(config);
  uint64_t total_weight = 0;
  for (const SizeClass& sc : mix) {
    total_weight += sc.weight;
  }
  if (total_weight == 0) {
    return Status::InvalidArgument("loadgen: mix weights sum to zero");
  }

  ThreadPool pool(config.threads > 0 ? config.threads
                                     : ThreadPool::DefaultThreads());
  // One two-lane slot budget across every session: admission bounds the
  // *server*, not any single dataset. The driver admits each query
  // itself (see the dispatchers below), so the sessions it opens carry
  // no slot limit of their own.
  AdmissionController admission(
      {config.admission_slots, config.small_reserved_slots});

  // A resident dataset answers every class. Otherwise each class
  // generates its own dataset, seeded per class so every run shares it;
  // the pool and admission controller stay shared either way.
  std::vector<Dataset> generated;
  std::vector<const Dataset*> class_data(mix.size(), config.resident);
  std::vector<size_t> class_session(mix.size(), 0);
  if (config.resident == nullptr) {
    generated.reserve(mix.size());
    for (size_t c = 0; c < mix.size(); ++c) {
      const SizeClass& sc = mix[c];
      data::GeneratorConfig gen;
      gen.distribution = sc.distribution;
      gen.cardinality = sc.cardinality;
      gen.dim = sc.dim;
      gen.seed = kDatasetSeedBase + c;
      auto data_or = data::Generate(gen);
      if (!data_or.ok()) {
        return data_or.status();
      }
      generated.push_back(std::move(data_or).value());
      class_data[c] = &generated.back();
      class_session[c] = c;
    }
  }

  SessionOptions session_options;
  session_options.engine.num_map_tasks = config.num_map_tasks;
  session_options.engine.num_reducers = config.num_reducers;
  session_options.engine.max_task_attempts = config.max_task_attempts;
  session_options.engine.chaos = config.chaos;
  session_options.engine.metrics = metrics;
  session_options.engine.log = logger;
  session_options.pool = &pool;
  if (Status valid = session_options.Validate(); !valid.ok()) {
    return valid;
  }

  // Serve mode opens the resident session(s) once; batch mode opens a
  // fresh one per query at dispatch.
  std::vector<std::unique_ptr<Session>> sessions;
  const size_t session_count =
      !config.serve ? 0 : config.resident != nullptr ? 1 : mix.size();
  sessions.reserve(session_count);
  for (size_t s = 0; s < session_count; ++s) {
    const Dataset& data =
        config.resident != nullptr ? *config.resident : *class_data[s];
    auto session_or = Session::Open(data, session_options);
    if (!session_or.ok()) {
      return session_or.status();
    }
    sessions.push_back(std::move(session_or).value());
  }

  std::vector<QuerySpec> specs(mix.size());
  std::vector<bool> class_small(mix.size(), false);
  for (size_t c = 0; c < mix.size(); ++c) {
    const SizeClass& sc = mix[c];
    // Lanes exist only when slots are reserved for small queries;
    // otherwise every query shares one lane and one arrival order.
    if (config.small_reserved_slots > 0) {
      class_small[c] =
          sc.lane == AdmissionClass::kSmall ||
          (sc.lane == AdmissionClass::kAuto &&
           session_options.SmallLane(class_data[c]->size()));
    }
    specs[c].algorithm = sc.algorithm;
    if (sc.constrained) {
      const size_t dim = class_data[c]->dim();
      specs[c].constraint = Box{std::vector<double>(dim, 0.0),
                                std::vector<double>(dim, 0.6)};
    }
    Status valid = specs[c].Validate();
    if (!valid.ok()) {
      return valid;
    }
  }

  // Prime the caches before the open-loop clock starts: the warmup
  // misses (one per distinct fingerprint) then happen off the clock and
  // every query of the run proper is a hit. Warmups of classes sharing a
  // fingerprint count as hits too, so stats stay deterministic.
  if (config.serve && config.warmup) {
    for (size_t c = 0; c < mix.size(); ++c) {
      Status warm = sessions[class_session[c]]->Warmup(specs[c]);
      if (!warm.ok()) {
        return warm;
      }
    }
  }

  const ArrivalSchedule schedule = BuildSchedule(config);

  LoadReport report;
  report.schedule_hash = schedule.hash;
  report.outcomes.resize(config.queries);
  report.per_size_latency_us.resize(mix.size());

  // Thread-per-query dispatch: admission blocks, and the pool threads
  // must stay free to run the admitted queries' map/reduce tasks —
  // parking arrivals on pool threads would deadlock the pool behind its
  // own queue. Each dispatcher sleeps to its own scheduled arrival, so a
  // stalled engine grows the admission wait, it never slows the arrival
  // clock. Admission is first come, first served within each lane, in
  // schedule order: a dispatcher waits for its lane's turn, holds the
  // turn until the controller grants it a slot, then passes it on. So no
  // query is overtaken by a later arrival of its lane however the
  // dispatcher threads wake. With no reserved slots there is one lane
  // and admission follows the schedule exactly; with two, a large query
  // held back by the reserved slots never blocks the small lane, and
  // the two lane heads race for a slot either may take.
  std::vector<int> lane_rank(config.queries);
  int lane_arrivals[2] = {0, 0};
  for (int q = 0; q < config.queries; ++q) {
    lane_rank[q] = lane_arrivals[class_small[schedule.size_class[q]]]++;
  }
  std::mutex turn_mu;
  std::condition_variable turn_cv;
  int lane_turn[2] = {0, 0};
  std::vector<double> submit_begin_us(config.queries, 0.0);
  const Clock::time_point epoch = Clock::now();
  std::vector<std::thread> dispatchers;
  dispatchers.reserve(config.queries);
  for (int q = 0; q < config.queries; ++q) {
    dispatchers.emplace_back([&, q]() {
      std::this_thread::sleep_until(
          epoch + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::micro>(
                          schedule.arrival_us[q])));
      QueryOutcome& out = report.outcomes[q];
      out.query_id = static_cast<uint64_t>(q) + 1;
      out.size_class = schedule.size_class[q];
      out.scheduled_us = schedule.arrival_us[q];

      const SizeClass& sc = mix[out.size_class];
      const Dataset& data = *class_data[out.size_class];
      QuerySpec spec = specs[out.size_class];
      spec.query.id = out.query_id;
      spec.query.deadline_ms = config.deadline_ms;
      spec.query.tag = sc.name;

      submit_begin_us[q] = NowUs(epoch);
      const bool small = class_small[out.size_class];
      {
        std::unique_lock<std::mutex> lock(turn_mu);
        turn_cv.wait(lock, [&] { return lane_turn[small] == lane_rank[q]; });
      }
      admission.Acquire(small);
      {
        std::lock_guard<std::mutex> lock(turn_mu);
        ++lane_turn[small];
      }
      turn_cv.notify_all();
      out.dispatch_us = NowUs(epoch);

      if (q == config.slow_query_index && config.slow_query_ms > 0.0) {
        // The coordinated-omission probe: a deterministic stall holding
        // this query's admission slot. The queries scheduled behind it
        // queue for the slot and inherit the stall in their own
        // arrival-anchored latency.
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            config.slow_query_ms));
      }

      SubmitInfo info;
      const auto submit = [&]() -> StatusOr<SkylineResult> {
        if (config.serve) {
          return sessions[class_session[out.size_class]]->Submit(spec,
                                                                 &info);
        }
        // Batch mode: a fresh session per query, so every query runs the
        // whole pipeline and shares nothing with its neighbours.
        auto session = Session::Open(data, session_options);
        if (!session.ok()) {
          return session.status();
        }
        return (*session)->Submit(spec, &info);
      };
      auto result_or = submit();
      admission.Release(small);
      out.done_us = NowUs(epoch);
      out.ok = result_or.ok();
      out.cache_hit = info.cache_hit;
      if (out.ok) {
        const SkylineResult& result = result_or.value();
        out.jobs = static_cast<int64_t>(result.jobs.size());
        out.skyline_size = static_cast<int64_t>(result.skyline.size());
        // Skyline-phase comparisons only (the last job): a query's count
        // must not depend on whether it happened to lead the cache's
        // single-flight — per-class sums stay deterministic even when
        // classes share a fingerprint and race for the miss. The
        // bitstring job compares no tuples, so batch mode (both jobs,
        // every query) counts the same.
        if (!result.jobs.empty()) {
          const auto& values = result.jobs.back().counters.values();
          const auto it = values.find("skymr.tuple_comparisons");
          out.comparisons = it != values.end() ? it->second : 0;
        }
      }
      const double latency_us = out.done_us - out.scheduled_us;
      out.deadline_missed =
          config.deadline_ms > 0.0 && latency_us > config.deadline_ms * 1e3;

      if (logger != nullptr && out.deadline_missed) {
        std::ostringstream msg;
        msg << "latency " << static_cast<int64_t>(latency_us)
            << " us over budget " << config.deadline_ms << " ms";
        obs::Logger::Fields fields;
        fields.query_id = out.query_id;
        fields.tag = sc.name;
        logger->Log(obs::LogSeverity::kWarn, "query.deadline", msg.str(),
                    fields);
      }
    });
  }
  for (std::thread& t : dispatchers) {
    t.join();
  }
  pool.WaitIdle();
  report.wall_seconds = NowUs(epoch) / 1e6;

  for (const QueryOutcome& out : report.outcomes) {
    const double latency_us = out.done_us - out.scheduled_us;
    report.latency_us.Add(latency_us);
    report.queue_wait_us.Add(out.dispatch_us - out.scheduled_us);
    report.per_size_latency_us[out.size_class].Add(latency_us);
    report.completed += out.ok ? 1 : 0;
    report.errors += out.ok ? 0 : 1;
    report.deadline_missed += out.deadline_missed ? 1 : 0;
  }

  // Queue depth is reconstructed from the waiting intervals
  // [submit, admission): the count of queries simultaneously parked in
  // the admission layer. Departures sort before arrivals at a tie.
  std::vector<std::pair<double, int>> events;
  events.reserve(static_cast<size_t>(config.queries) * 2);
  for (int q = 0; q < config.queries; ++q) {
    events.emplace_back(submit_begin_us[q], 1);
    events.emplace_back(report.outcomes[q].dispatch_us, -1);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second < b.second;
            });
  int64_t depth = 0;
  for (const auto& [when, delta] : events) {
    (void)when;
    depth += delta;
    report.max_queue_depth = std::max(report.max_queue_depth, depth);
  }
  report.max_inflight = admission.peak_inflight();

  for (const std::unique_ptr<Session>& session : sessions) {
    const SessionStats stats = session->stats();
    report.session_cache_hits += stats.cache_hits;
    report.bitstring_jobs += stats.cache_misses;
  }
  // Every bitstring phase that actually executed went through the cache
  // as a miss (this harness runs no external checkpoint), so misses ==
  // bitstring jobs == distinct fingerprints queried. Batch mode's
  // throwaway sessions are not summed: its artifact carries no session
  // counters.
  report.log_dropped = logger != nullptr ? logger->dropped() : 0;
  return report;
}

namespace {

/// A row's wall block summarizes its queries' latency sketch: reps is the
/// query count and the median is p50. The sketch keeps no samples, so the
/// MAD and CV stay 0.
obs::WallStats LatencyWall(const obs::QuantileSketch& latency_us) {
  obs::WallStats wall;
  wall.reps = static_cast<int>(latency_us.count());
  wall.median_seconds = latency_us.Quantile(0.5) / 1e6;
  wall.min_seconds = latency_us.min() / 1e6;
  wall.max_seconds = latency_us.max() / 1e6;
  wall.mean_seconds =
      latency_us.count() > 0
          ? latency_us.sum() / static_cast<double>(latency_us.count()) / 1e6
          : 0.0;
  return wall;
}

}  // namespace

obs::BenchArtifact BuildLoadArtifact(const LoadConfig& config,
                                     const LoadReport& report) {
  // Must resolve the empty-mix default exactly as the run did, or the
  // per-size rows would be read against the wrong class list.
  const std::vector<SizeClass> mix = ResolveMix(config);
  obs::BenchArtifact artifact("loadgen");

  // Per-size deterministic aggregates, in arrival (index) order.
  std::vector<int64_t> size_queries(mix.size(), 0);
  std::vector<int64_t> size_ok(mix.size(), 0);
  std::vector<int64_t> size_comparisons(mix.size(), 0);
  std::vector<int64_t> size_skyline(mix.size(), 0);
  std::vector<int64_t> size_cache_hits(mix.size(), 0);
  for (const QueryOutcome& out : report.outcomes) {
    ++size_queries[out.size_class];
    size_ok[out.size_class] += out.ok ? 1 : 0;
    size_comparisons[out.size_class] += out.comparisons;
    size_skyline[out.size_class] += out.skyline_size;
    size_cache_hits[out.size_class] += out.cache_hit ? 1 : 0;
  }

  // The aggregate row. Its metrics carry the run's configuration and the
  // machine-dependent load summary; the latency count and p50 are its
  // wall block's reps and median.
  obs::BenchRow aggregate;
  aggregate.name = "loadgen";
  aggregate.wall = LatencyWall(report.latency_us);
  std::map<std::string, double>& m = aggregate.metrics;
  m["seed"] = static_cast<double>(config.seed);
  m["target_qps"] = config.target_qps;
  m["admission_slots"] = config.admission_slots;
  m["threads"] = config.threads;
  m["deadline_ms"] = config.deadline_ms;
  m["chaos_enabled"] = config.chaos.enabled() ? 1.0 : 0.0;
  m["slow_query_index"] = config.slow_query_index;
  m["slow_query_ms"] = config.slow_query_ms;
  m["serve"] = config.serve ? 1.0 : 0.0;
  if (config.serve) {
    m["small_reserved_slots"] = config.small_reserved_slots;
    m["warmup"] = config.warmup ? 1.0 : 0.0;
    m["resident"] = config.resident != nullptr ? 1.0 : 0.0;
  }
  m["throughput_qps"] =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.completed) / report.wall_seconds
          : 0.0;
  m["wall_seconds"] = report.wall_seconds;
  m["latency_p95_us"] = report.latency_us.Quantile(0.95);
  m["latency_p99_us"] = report.latency_us.Quantile(0.99);
  m["queue_wait_p50_us"] = report.queue_wait_us.Quantile(0.50);
  m["queue_wait_p95_us"] = report.queue_wait_us.Quantile(0.95);
  m["queue_wait_p99_us"] = report.queue_wait_us.Quantile(0.99);
  m["queue_wait_max_us"] = report.queue_wait_us.max();
  m["queue_wait_mean_us"] =
      report.queue_wait_us.count() > 0
          ? report.queue_wait_us.sum() /
                static_cast<double>(report.queue_wait_us.count())
          : 0.0;
  m["deadline_missed"] = static_cast<double>(report.deadline_missed);
  m["max_queue_depth"] = static_cast<double>(report.max_queue_depth);
  m["max_inflight"] = static_cast<double>(report.max_inflight);
  m["log_dropped"] = static_cast<double>(report.log_dropped);
  // The schedule fingerprint is split into two 32-bit halves because JSON
  // numbers are doubles (53-bit mantissa).
  std::map<std::string, int64_t>& d = aggregate.deterministic;
  d["queries"] = config.queries;
  d["schedule_hash_hi"] = static_cast<int64_t>(report.schedule_hash >> 32);
  d["schedule_hash_lo"] =
      static_cast<int64_t>(report.schedule_hash & 0xffffffffULL);
  d["completed"] = report.completed;
  d["errors"] = report.errors;
  d["comparisons"] = 0;
  for (size_t c = 0; c < mix.size(); ++c) {
    d["comparisons"] += size_comparisons[c];
  }
  if (config.serve) {
    // Serve-only keys stay out of batch artifacts: bench_diff compares
    // the key-union of deterministic sections, so adding them
    // unconditionally would break every committed batch baseline.
    // Single-flight makes both deterministic for a fixed config; which
    // *query* led a miss is racy, so hit counts only ever appear in
    // aggregates, never per class. Every executed bitstring job was a
    // cache miss, so bitstring_jobs is also the miss count.
    d["session_cache_hits"] = report.session_cache_hits;
    d["bitstring_jobs"] = report.bitstring_jobs;
  }
  artifact.AddRow(std::move(aggregate));

  for (size_t c = 0; c < mix.size(); ++c) {
    obs::BenchRow row;
    row.name = "size:" + mix[c].name;
    row.wall = LatencyWall(report.per_size_latency_us[c]);
    row.metrics["latency_p99_us"] =
        report.per_size_latency_us[c].Quantile(0.99);
    if (config.serve) {
      // Informational (metrics are never hard-gated): without warmup the
      // class that wins a shared fingerprint's single-flight race eats
      // the miss, so the split is timing-dependent.
      row.metrics["cache_hits"] = static_cast<double>(size_cache_hits[c]);
    }
    row.deterministic["queries"] = size_queries[c];
    row.deterministic["ok"] = size_ok[c];
    row.deterministic["comparisons"] = size_comparisons[c];
    row.deterministic["skyline_size"] = size_skyline[c];
    artifact.AddRow(std::move(row));
  }
  return artifact;
}

}  // namespace skymr::loadgen

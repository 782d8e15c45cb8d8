#include "src/serve/session.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "src/baselines/mr_angle.h"
#include "src/baselines/mr_bnl.h"
#include "src/baselines/mr_skymr.h"
#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/core/checkpoint.h"
#include "src/core/gpmrs.h"
#include "src/core/gpsrs.h"
#include "src/mapreduce/chaos.h"
#include "src/mapreduce/cluster_model.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace skymr {

// Configs can arrive from untrusted bytes (fuzz_config), so every enum
// is range-checked before any job runs: an out-of-range value would
// otherwise fall through a switch or comparison chain and silently run
// something else — an unknown merge strategy packs no group onto any
// reducer and returns an empty skyline.

Status QuerySpec::Validate() const {
  switch (algorithm) {
    case Algorithm::kMrGpsrs:
    case Algorithm::kMrGpmrs:
    case Algorithm::kMrBnl:
    case Algorithm::kMrAngle:
    case Algorithm::kHybrid:
    case Algorithm::kSkyMr:
      break;
    default:
      return Status::InvalidArgument("algorithm out of range");
  }
  switch (merge) {
    case core::GroupMergeStrategy::kRoundRobin:
    case core::GroupMergeStrategy::kComputationCost:
    case core::GroupMergeStrategy::kCommunicationCost:
    case core::GroupMergeStrategy::kBalanced:
      break;
    default:
      return Status::InvalidArgument("merge out of range");
  }
  switch (local_algorithm) {
    case core::LocalAlgorithm::kBnl:
    case core::LocalAlgorithm::kSfs:
    case core::LocalAlgorithm::kBbs:
    case core::LocalAlgorithm::kAuto:
      break;
    default:
      return Status::InvalidArgument("local_algorithm out of range");
  }
  return Status::OK();
}

Status SessionOptions::Validate() const {
  SKYMR_RETURN_IF_ERROR(mr::ValidateEngineOptions(engine));
  switch (ppd.strategy) {
    case core::PpdStrategy::kPaperLiteral:
    case core::PpdStrategy::kTargetTpp:
      break;
    default:
      return Status::InvalidArgument("ppd: strategy out of range");
  }
  switch (prune_mode) {
    case core::PruneMode::kLiteral:
    case core::PruneMode::kPrefix:
      break;
    default:
      return Status::InvalidArgument("prune_mode out of range");
  }
  if (ppd.explicit_ppd == 1) {
    return Status::InvalidArgument(
        "ppd: explicit_ppd must be 0 (auto-select) or >= 2");
  }
  if (ppd.max_candidate < 2) {
    return Status::InvalidArgument(
        "ppd: max_candidate must be >= 2 (the smallest grid)");
  }
  if (!(ppd.target_tpp > 0.0 && std::isfinite(ppd.target_tpp))) {
    return Status::InvalidArgument("ppd: target_tpp must be finite and > 0");
  }
  if (ppd.max_cells < 4) {
    return Status::InvalidArgument(
        "ppd: max_cells must admit at least the 2^d grid of a 2-d space");
  }
  if (pool != nullptr && engine.num_threads > 0 &&
      static_cast<int>(pool->num_threads()) != engine.num_threads) {
    // An external pool fixes the thread count; a different explicit
    // num_threads is a contradiction, not a silent no-op.
    return Status::InvalidArgument(
        "engine.num_threads (" + std::to_string(engine.num_threads) +
        ") contradicts the external pool's " +
        std::to_string(pool->num_threads()) +
        " threads; leave num_threads 0 or match the pool");
  }
  if (admission_slots < 0 || small_reserved_slots < 0) {
    return Status::InvalidArgument(
        "admission slot counts must be >= 0");
  }
  if (admission_slots > 0 && small_reserved_slots >= admission_slots) {
    return Status::InvalidArgument(
        "small_reserved_slots must leave at least one admission slot "
        "for large queries");
  }
  return Status::OK();
}

AdmissionController::AdmissionController(const Options& options)
    : options_(options) {}

double AdmissionController::Acquire(bool small) {
  Stopwatch wait_clock;
  std::unique_lock<std::mutex> lock(mu_);
  const int large_limit = options_.slots - options_.small_reserved;
  cv_.wait(lock, [&] {
    if (options_.slots <= 0) {
      return true;
    }
    if (inflight_ >= options_.slots) {
      return false;
    }
    return small || inflight_large_ < large_limit;
  });
  ++inflight_;
  if (!small) {
    ++inflight_large_;
  }
  peak_inflight_ = std::max<int64_t>(peak_inflight_, inflight_);
  return wait_clock.ElapsedSeconds();
}

void AdmissionController::Release(bool small) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
    if (!small) {
      --inflight_large_;
    }
  }
  cv_.notify_all();
}

int64_t AdmissionController::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

int64_t AdmissionController::peak_inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_inflight_;
}

namespace {

/// Wraps a caller-owned dataset in a non-owning shared_ptr for the
/// distributed cache. The Session contract requires the dataset to
/// outlive the session.
std::shared_ptr<const Dataset> Unowned(const Dataset& data) {
  return {&data, [](const Dataset*) {}};
}

/// MR-Angle's approximate number of angular partitions.
constexpr uint32_t kAnglePartitions = 64;

/// Fills both makespan flavours from the per-job metrics.
void FillModeledTimes(SkylineResult* result) {
  result->modeled_seconds =
      mr::ClusterModel::PipelineMakespan(result->jobs, /*with_startup=*/true);
  result->modeled_compute_seconds = mr::ClusterModel::PipelineMakespan(
      result->jobs, /*with_startup=*/false);
}

/// The session-scoped prefix of the bitstring fingerprint: dataset shape
/// plus a content probe (first/middle/last tuples), PPD policy, prune
/// mode, and bounds choice. FingerprintFor extends it per query with the
/// constraint box. A session with a checkpoint store also mixes in a
/// digest of every value: the store outlives the session and may serve
/// sessions over other datasets, which can agree on the probe rows. A
/// session's own cache only ever sees its own dataset, so it skips the
/// O(n·d) pass.
uint64_t FingerprintPrefix(const Dataset& data,
                           const SessionOptions& options) {
  uint64_t h = mr::ChaosMix64(0x736b796d72636b70ULL);
  const auto mix = [&h](uint64_t v) { h = mr::ChaosMix64(h ^ v); };
  const auto mix_double = [&mix](double v) {
    mix(std::bit_cast<uint64_t>(v));
  };
  mix(data.size());
  mix(data.dim());
  if (data.size() > 0) {
    for (const size_t probe :
         {size_t{0}, data.size() / 2, data.size() - 1}) {
      for (size_t d = 0; d < data.dim(); ++d) {
        mix_double(data.RowPtr(static_cast<TupleId>(probe))[d]);
      }
    }
  }
  if (options.checkpoint != nullptr) {
    for (const double v : data.values()) {
      mix_double(v);
    }
  }
  mix(options.ppd.explicit_ppd);
  mix(static_cast<uint64_t>(options.ppd.strategy));
  mix_double(options.ppd.target_tpp);
  mix(options.ppd.max_candidate);
  mix(options.ppd.max_cells);
  mix(static_cast<uint64_t>(options.prune_mode));
  mix(options.unit_bounds ? 1 : 0);
  return h;
}

}  // namespace

/// One single-flight cache slot: kComputing while the leading query
/// runs the bitstring job (waiters block on cache_cv_), kReady once the
/// phase is stored, kFailed when the leader errored (the next query
/// takes over leadership and retries).
struct Session::CacheEntry {
  enum class State { kComputing, kReady, kFailed };
  State state = State::kComputing;
  core::BitstringBuildResult result;
};

Session::Session(const Dataset& data, const SessionOptions& options)
    : data_(&data),
      options_(options),
      admission_({options.admission_slots, options.small_reserved_slots}) {}

Session::~Session() = default;

StatusOr<std::unique_ptr<Session>> Session::Open(
    const Dataset& data, const SessionOptions& options) {
  if (const Status valid = options.Validate(); !valid.ok()) {
    return valid;
  }
  SKYMR_DCHECK(std::none_of(data.values().begin(), data.values().end(),
                            [](double v) { return std::isnan(v); }))
      << "session dataset holds a NaN value";
  std::unique_ptr<Session> session(new Session(data, options));
  // Same no-throw contract as Submit: pool construction and bounds
  // computation failures surface as Status, never as exceptions.
  try {
    session->bounds_ = options.unit_bounds ? Bounds::UnitCube(data.dim())
                                           : data.ComputeBounds();
    session->fingerprint_prefix_ = FingerprintPrefix(data, options);
    if (options.pool != nullptr) {
      session->pool_ = options.pool;
    } else {
      const int threads = options.engine.num_threads > 0
                              ? options.engine.num_threads
                              : ThreadPool::DefaultThreads();
      session->owned_pool_ = std::make_unique<ThreadPool>(threads);
      session->pool_ = session->owned_pool_.get();
    }
  } catch (const std::exception& e) {
    return Status::Internal(
        std::string("session open: unexpected exception: ") + e.what());
  }
  return session;
}

uint64_t Session::FingerprintFor(const QuerySpec& spec) const {
  uint64_t h = fingerprint_prefix_;
  const auto mix = [&h](uint64_t v) { h = mr::ChaosMix64(h ^ v); };
  const auto mix_double = [&mix](double v) {
    mix(std::bit_cast<uint64_t>(v));
  };
  if (spec.constraint.has_value()) {
    for (size_t d = 0; d < spec.constraint->lo.size(); ++d) {
      mix_double(spec.constraint->lo[d]);
      mix_double(spec.constraint->hi[d]);
    }
  }
  return h;
}

Status Session::EnsureBitstring(const QuerySpec& spec,
                                const mr::EngineOptions& engine,
                                SkylineResult* result,
                                core::BitstringBuildResult* phase,
                                SubmitInfo* info) {
  core::BitstringJobConfig bitstring_config;
  bitstring_config.bounds = bounds_;
  bitstring_config.candidates =
      core::CandidatePpds(data_->size(), data_->dim(), options_.ppd);
  if (bitstring_config.candidates.empty()) {
    return Status::InvalidArgument(
        "no feasible PPD candidate: 2^d exceeds the cell budget");
  }
  bitstring_config.ppd = options_.ppd;
  bitstring_config.cardinality = data_->size();
  bitstring_config.prune_mode = options_.prune_mode;
  bitstring_config.constraint = spec.constraint;

  const uint64_t fingerprint = FingerprintFor(spec);
  obs::MetricsRegistry* metrics = engine.metrics;

  {
    std::unique_lock<std::mutex> lock(cache_mu_);
    for (;;) {
      auto it = cache_.find(fingerprint);
      if (it == cache_.end()) {
        // This query leads: insert the kComputing entry and run below.
        cache_[fingerprint];
        break;
      }
      if (it->second.state == CacheEntry::State::kComputing) {
        // Single-flight: another query is already computing this
        // fingerprint; wait instead of duplicating the job.
        cache_cv_.wait(lock);
        continue;
      }
      if (it->second.state == CacheEntry::State::kReady) {
        *phase = it->second.result;
        lock.unlock();
        info->cache_hit = true;
        {
          std::lock_guard<std::mutex> stats_lock(stats_mu_);
          ++stats_.cache_hits;
        }
        if (metrics != nullptr) {
          metrics->counter("mr.session_cache_hits")->Add(1);
        }
        SKYMR_TRACE_INSTANT("session.cache_hit", "ppd",
                            static_cast<int64_t>(phase->ppd));
        return Status::OK();
      }
      // kFailed: the previous leader errored. Take over leadership so
      // a transient failure (chaos) does not poison the entry forever.
      it->second.state = CacheEntry::State::kComputing;
      break;
    }
  }

  // Leader path: the external checkpoint store first, then the
  // bitstring job.
  Status status = Status::OK();
  if (options_.checkpoint != nullptr &&
      options_.checkpoint->LoadBitstring(fingerprint, phase)) {
    // Resume: the whole first job is skipped; result->jobs holds only
    // the skyline job.
    result->resumed_from_checkpoint = true;
    SKYMR_TRACE_INSTANT("checkpoint.resume", "ppd",
                        static_cast<int64_t>(phase->ppd));
  } else {
    auto bitstring_or = core::RunBitstringJob(Unowned(*data_),
                                              bitstring_config, engine,
                                              pool_);
    if (bitstring_or.ok()) {
      result->jobs.push_back(std::move(bitstring_or->metrics));
      *phase = std::move(bitstring_or->result);
      if (options_.checkpoint != nullptr) {
        options_.checkpoint->StoreBitstring(fingerprint, *phase);
      }
    } else {
      status = bitstring_or.status();
    }
  }

  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    CacheEntry& entry = cache_[fingerprint];
    if (status.ok()) {
      entry.state = CacheEntry::State::kReady;
      entry.result = *phase;
      {
        std::lock_guard<std::mutex> stats_lock(stats_mu_);
        ++stats_.cache_misses;
      }
      if (metrics != nullptr) {
        metrics->counter("mr.session_cache_misses")->Add(1);
      }
    } else {
      entry.state = CacheEntry::State::kFailed;
    }
    cache_cv_.notify_all();
  }
  return status;
}

StatusOr<SkylineResult> Session::RunPipeline(const QuerySpec& spec,
                                             const mr::EngineOptions& engine_in,
                                             SubmitInfo* info) {
  Stopwatch total_clock;
  const Dataset& data = *data_;
  SKYMR_TRACE_SPAN("skyline.pipeline", "tuples",
                   static_cast<int64_t>(data.size()), "dim",
                   static_cast<int64_t>(data.dim()));
  SkylineResult result;
  if (spec.constraint.has_value()) {
    SKYMR_RETURN_IF_ERROR(spec.constraint->Validate(data.dim()));
  }
  const Bounds& bounds = bounds_;
  const std::shared_ptr<const Dataset> shared = Unowned(data);
  ThreadPool& pool = *pool_;

  // ---- Baselines: one job, no bitstring phase ----
  if (spec.algorithm == Algorithm::kMrBnl ||
      spec.algorithm == Algorithm::kMrAngle ||
      spec.algorithm == Algorithm::kSkyMr) {
    auto run_or =
        spec.algorithm == Algorithm::kMrBnl
            ? baselines::RunMrBnlJob(shared, bounds, engine_in, &pool,
                                     spec.constraint)
        : spec.algorithm == Algorithm::kMrAngle
            ? baselines::RunMrAngleJob(shared, bounds, kAnglePartitions,
                                       engine_in, &pool,
                                       spec.constraint)
            : baselines::RunSkyMrJob(shared, bounds,
                                     baselines::SkyQuadtree::Options{},
                                     engine_in, &pool,
                                     spec.constraint);
    if (!run_or.ok()) {
      return run_or.status();
    }
    result.skyline = std::move(run_or->skyline);
    result.jobs.push_back(std::move(run_or->metrics));
    result.algorithm_used = spec.algorithm;
    result.wall_seconds = total_clock.ElapsedSeconds();
    FillModeledTimes(&result);
    return result;
  }

  // ---- Grid algorithms: bitstring phase first (cache / checkpoint /
  // job, in that order) ----
  core::BitstringBuildResult phase;
  SKYMR_RETURN_IF_ERROR(
      EnsureBitstring(spec, engine_in, &result, &phase, info));
  result.ppd = phase.ppd;
  result.nonempty_partitions = phase.nonempty;
  result.pruned_partitions = phase.pruned;

  auto grid_or = core::Grid::Create(data.dim(), phase.ppd,
                                    bounds, options_.ppd.max_cells);
  if (!grid_or.ok()) {
    return grid_or.status();
  }
  const core::Grid& grid = grid_or.value();

  // ---- Decide the skyline job ----
  Algorithm algorithm = spec.algorithm;
  mr::EngineOptions engine = engine_in;
  if (algorithm == Algorithm::kHybrid) {
    result.hybrid_decision =
        core::DecideHybrid(data, grid, phase, spec.constraint);
    algorithm = result.hybrid_decision.use_multiple_reducers
                    ? Algorithm::kMrGpmrs
                    : Algorithm::kMrGpsrs;
    engine.num_reducers = result.hybrid_decision.num_reducers;
  }
  result.algorithm_used = algorithm;

  auto run_or =
      algorithm == Algorithm::kMrGpmrs
          ? core::RunGpmrsJob(shared, grid, phase.bits,
                              spec.merge, engine, &pool,
                              spec.constraint, spec.local_algorithm)
          : core::RunGpsrsJob(shared, grid, phase.bits, engine,
                              &pool, spec.constraint,
                              spec.local_algorithm);
  if (!run_or.ok() && algorithm == Algorithm::kMrGpmrs &&
      run_or.status().code() == StatusCode::kInternal) {
    // Degradation ladder: GPMRS's reducer-group merge keeps failing
    // (every retry exhausted), so fall back to the GPSRS single-reducer
    // merge over the same grid and bitstring — slower, but the skyline is
    // identical by Section 4/5 equivalence. The result is flagged
    // `degraded` and counted under mr.degraded_to_gpsrs.
    SKYMR_TRACE_INSTANT("degrade.gpsrs");
    result.degraded = true;
    result.algorithm_used = Algorithm::kMrGpsrs;
    run_or = core::RunGpsrsJob(shared, grid, phase.bits, engine, &pool,
                               spec.constraint, spec.local_algorithm);
  }
  if (!run_or.ok()) {
    return run_or.status();
  }
  result.skyline = std::move(run_or->skyline);
  result.jobs.push_back(std::move(run_or->metrics));
  if (result.degraded) {
    result.jobs.back().counters.Add("mr.degraded_to_gpsrs", 1);
  }
  result.wall_seconds = total_clock.ElapsedSeconds();
  FillModeledTimes(&result);
  return result;
}

StatusOr<SkylineResult> Session::Submit(const QuerySpec& spec,
                                        SubmitInfo* info) {
  SubmitInfo local_info;
  if (info == nullptr) {
    info = &local_info;
  }
  *info = SubmitInfo{};
  if (const Status valid = spec.Validate(); !valid.ok()) {
    return valid;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.submitted;
  }

  mr::EngineOptions engine = options_.engine;
  engine.query = spec.query;
  obs::Logger* log = engine.log;
  if (log != nullptr) {
    log->LogQuery(obs::LogSeverity::kInfo, engine.query,
                  "query.start",
                  std::string(AlgorithmName(spec.algorithm)) + ", " +
                      std::to_string(data_->size()) + " tuples, dim " +
                      std::to_string(data_->dim()));
  }

  const bool small = options_.SmallLane(data_->size());
  info->small_lane = small;
  info->queue_wait_seconds = admission_.Acquire(small);
  obs::MetricsRegistry* metrics = engine.metrics;
  obs::ScopedGaugeDelta inflight_gauge(
      metrics != nullptr ? metrics->gauge("mr.session_inflight") : nullptr,
      1);
  if (metrics != nullptr) {
    metrics->sketch("mr.session_queue_wait_us")
        ->Record(info->queue_wait_seconds * 1e6);
  }

  // API hardening: nothing escapes this boundary as an exception. Task
  // failures inside the engine already surface as Status; this catch is
  // the backstop for anything unexpected (user functors, OOM, bugs).
  StatusOr<SkylineResult> result = [&]() -> StatusOr<SkylineResult> {
    try {
      return RunPipeline(spec, engine, info);
    } catch (const std::exception& e) {
      return Status::Internal(
          std::string("skyline pipeline: unexpected exception: ") + e.what());
    }
  }();
  admission_.Release(small);

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (result.ok()) {
      ++stats_.completed;
    } else {
      ++stats_.errors;
    }
  }
  if (log != nullptr) {
    if (result.ok()) {
      log->LogQuery(
          obs::LogSeverity::kInfo, engine.query, "query.finish",
          "skyline " + std::to_string(result->skyline.size()) + " of " +
              std::to_string(data_->size()) + " tuples, " +
              std::to_string(
                  static_cast<int64_t>(result->wall_seconds * 1e6)) +
              " us" + (result->degraded ? ", degraded" : ""));
    } else {
      // Permanent task failures already NotifyFatal'ed inside the
      // scheduler; this records the query-level outcome with the same id
      // so the post-mortem dump names the query that died.
      log->LogQuery(obs::LogSeverity::kError, engine.query,
                    "query.error", result.status().message());
    }
  }
  return result;
}

Status Session::Warmup(const QuerySpec& spec) {
  if (const Status valid = spec.Validate(); !valid.ok()) {
    return valid;
  }
  if (spec.algorithm == Algorithm::kMrBnl ||
      spec.algorithm == Algorithm::kMrAngle ||
      spec.algorithm == Algorithm::kSkyMr) {
    return Status::OK();  // baselines have no bitstring phase
  }
  if (spec.constraint.has_value()) {
    SKYMR_RETURN_IF_ERROR(spec.constraint->Validate(data_->dim()));
  }
  mr::EngineOptions engine = options_.engine;
  engine.query = spec.query;
  SkylineResult scratch;
  core::BitstringBuildResult phase;
  SubmitInfo info;
  try {
    return EnsureBitstring(spec, engine, &scratch, &phase, &info);
  } catch (const std::exception& e) {
    return Status::Internal(
        std::string("session warmup: unexpected exception: ") + e.what());
  }
}

SessionStats Session::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  SessionStats snapshot = stats_;
  snapshot.peak_inflight = admission_.peak_inflight();
  return snapshot;
}

}  // namespace skymr

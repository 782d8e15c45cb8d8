// Skyline-as-a-service: a dataset-resident session (DESIGN.md §17).
//
// A Session holds everything that depends only on the dataset — the
// loaded tuples, the grid domain bounds, the worker pool, and a
// fingerprint-keyed cache of bitstring/PPD-selection phases — and
// answers many concurrent Submit(QuerySpec) calls over it. This is the
// resident query server the paper's machinery wants to be: PPD
// selection and the Equation-2 pruned bitstrings depend on the dataset,
// bounds, grid policy, and constraint box, never on which skyline job
// answers the query, so one bitstring phase serves every algorithm and
// every later query with the same fingerprint skips that job entirely.
//
// Three layers:
//
//  * Admission — a two-lane slot layer (AdmissionController). At most
//    `slots` queries run at once; `small_reserved` of those slots are
//    off-limits to large queries, so a burst of heavy queries cannot
//    starve cheap ones. A session's lane is fixed by its dataset's size
//    (SessionOptions::SmallLane).
//
//  * Cross-query cache — single-flight per fingerprint: the first query
//    to need a bitstring phase computes it while later arrivals with
//    the same fingerprint block on the entry and reuse the result, so
//    concurrent identical queries cost one bitstring job, not N, and
//    hit/miss counts are deterministic (exactly one miss per distinct
//    fingerprint regardless of timing). Counted in SessionStats and,
//    when a MetricsRegistry is attached, mr.session_* (§13.5).
//
//  * The pipeline — the paper's two jobs: the bitstring/PPD job
//    (Section 3), then MR-GPSRS or MR-GPMRS (Sections 4-5); baselines
//    run one job. A one-off computation opens a Session, submits one
//    query, and drops the session.
//
// Thread-safety: Submit may be called from any number of threads. The
// dataset must outlive the session; borrowed pointers in SessionOptions
// (pool, checkpoint, engine.metrics/log) must too.

#ifndef SKYMR_SERVE_SESSION_H_
#define SKYMR_SERVE_SESSION_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "src/common/thread_pool.h"
#include "src/core/bitstring_job.h"
#include "src/core/runner.h"
#include "src/serve/query_spec.h"

namespace skymr {

namespace core {
class PipelineCheckpoint;  // checkpoint.h
}  // namespace core

/// The two-lane admission slot layer. Every session owns one sized by
/// SessionOptions; a caller spreading traffic over several sessions can
/// run its own in front of them to bound the whole server.
class AdmissionController {
 public:
  struct Options {
    /// Queries running at once across every user of this controller;
    /// 0 = unbounded (no queueing, still counts inflight).
    int slots = 0;
    /// Slots large queries may not occupy. Must leave at least one
    /// slot for large queries when slots > 0.
    int small_reserved = 0;
  };

  explicit AdmissionController(const Options& options);

  /// Blocks until a slot is free for the lane; returns seconds waited.
  double Acquire(bool small);
  void Release(bool small);

  int64_t inflight() const;
  int64_t peak_inflight() const;

 private:
  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int inflight_ = 0;
  int inflight_large_ = 0;
  int64_t peak_inflight_ = 0;
};

/// The dataset-scoped half of the session API split: everything that
/// stays fixed while a dataset is resident, shared by every query the
/// session answers.
struct SessionOptions {
  /// Engine defaults for every query (task counts, chaos, metrics/log
  /// hooks). engine.query is ignored — each Submit installs its own
  /// QuerySpec::query.
  mr::EngineOptions engine;
  /// Grid resolution policy (Section 3.3).
  core::PpdOptions ppd;
  /// How Equation 2 pruning is computed.
  core::PruneMode prune_mode = core::PruneMode::kPrefix;
  /// Unit hypercube vs tight data bounds as the grid domain.
  bool unit_bounds = true;
  /// Worker pool shared by every query. When null the session owns a
  /// pool of engine.num_threads (0 = hardware concurrency). Setting an
  /// explicit nonzero engine.num_threads that contradicts an external
  /// pool's size is an InvalidArgument (Validate).
  ThreadPool* pool = nullptr;
  /// External persistent checkpoint store (checkpoint.h), consulted
  /// before running a bitstring phase and updated after; a resumed
  /// query skips the whole first job. Distinct from the in-session
  /// cache, which lives and dies with the session: the checkpoint
  /// persists across processes via SaveFile/LoadFile. Keyed by a
  /// fingerprint that includes a digest of every dataset value (one
  /// O(n·d) pass at Open), so a config or dataset change misses. Null
  /// disables it.
  core::PipelineCheckpoint* checkpoint = nullptr;
  /// Admission sizing: concurrent queries (0 = unbounded) and the
  /// slots reserved for the small lane.
  int admission_slots = 0;
  int small_reserved_slots = 0;
  /// Lane split: queries over a dataset of at most this many tuples ride
  /// the small lane.
  // lint:allow(config-field-set) ROADMAP item 4's benchmark PR deletes it.
  size_t small_query_max_tuples = 1000;

  /// The lane rule: whether queries over a dataset of `tuples` tuples
  /// ride the small admission lane.
  bool SmallLane(size_t tuples) const {
    return tuples <= small_query_max_tuples;
  }

  /// Rejects contradictory options before the session opens: engine
  /// validation, PPD policy or prune-mode values out of range, a
  /// num_threads/pool contradiction, and a small-lane reservation that
  /// leaves no slot for large queries. Called by Session::Open.
  Status Validate() const;
};

/// Monotone counters of one session's lifetime.
struct SessionStats {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t errors = 0;
  /// Bitstring phases served from the in-session cache / computed.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  /// High-water mark of concurrently admitted queries.
  int64_t peak_inflight = 0;
};

/// Per-Submit serving diagnostics (optional out-param).
struct SubmitInfo {
  /// The bitstring phase came from the in-session cache; the result
  /// holds only the skyline job.
  bool cache_hit = false;
  /// The query rode the small admission lane.
  bool small_lane = false;
  /// Seconds spent waiting for an admission slot.
  double queue_wait_seconds = 0.0;
};

class Session {
 public:
  /// Opens a session over `data` (which must outlive it): validates
  /// options, computes the grid domain bounds once, and spins up the
  /// owned pool when none is borrowed. Precondition: no value of `data`
  /// is NaN. A NaN tuple dominates nothing, yet the grid would file it
  /// in the all-low cell, which prunes cells it does not dominate.
  /// data::LoadCsv rejects NaN; an in-memory dataset is checked only by
  /// SKYMR_DCHECK.
  static StatusOr<std::unique_ptr<Session>> Open(
      const Dataset& data, const SessionOptions& options);

  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Answers one query. Thread-safe; blocks on admission when the slot
  /// layer is saturated. Never throws: invalid specs come back as
  /// InvalidArgument, permanent task failures as Internal.
  StatusOr<SkylineResult> Submit(const QuerySpec& spec,
                                 SubmitInfo* info = nullptr);

  /// Precomputes the bitstring phase for `spec`'s fingerprint so the
  /// first real query is already a cache hit. No-op for baseline
  /// algorithms (they have no bitstring phase).
  Status Warmup(const QuerySpec& spec = QuerySpec{});

  SessionStats stats() const;
  const Dataset& data() const { return *data_; }
  const SessionOptions& options() const { return options_; }

 private:
  struct CacheEntry;

  Session(const Dataset& data, const SessionOptions& options);

  StatusOr<SkylineResult> RunPipeline(const QuerySpec& spec,
                                      const mr::EngineOptions& engine,
                                      SubmitInfo* info);
  /// Produces the bitstring phase for `spec`: in-session cache first
  /// (single-flight), then the external checkpoint, then the job. On a
  /// job run, appends its metrics to `result`.
  Status EnsureBitstring(const QuerySpec& spec,
                         const mr::EngineOptions& engine,
                         SkylineResult* result,
                         core::BitstringBuildResult* phase,
                         SubmitInfo* info);
  uint64_t FingerprintFor(const QuerySpec& spec) const;

  const Dataset* data_;
  const SessionOptions options_;
  Bounds bounds_;
  /// BitstringFingerprint chain prefix: dataset + session-scoped fields,
  /// extended per query with the constraint box (FingerprintFor).
  uint64_t fingerprint_prefix_ = 0;

  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
  AdmissionController admission_;

  mutable std::mutex cache_mu_;
  std::condition_variable cache_cv_;
  std::map<uint64_t, CacheEntry> cache_;

  mutable std::mutex stats_mu_;
  SessionStats stats_;
};

}  // namespace skymr

#endif  // SKYMR_SERVE_SESSION_H_

// Open-loop workload driver for query-level observability: the traffic
// harness a resident skyline server would face, run against the
// in-process engine.
//
// Open-loop means arrivals are scheduled ahead of time from a seeded
// Poisson process at the configured QPS and never wait for the system:
// if the engine stalls, queries pile up in the admission queue instead
// of silently slowing the generator down. Latency is measured from each
// query's *scheduled arrival*, not from when it was dispatched — the
// coordinated-omission-safe convention (Tene, "How NOT to measure
// latency"): a 300 ms stall does not just make one query slow, it makes
// every query scheduled behind it slow, and the percentiles must say so.
//
// Determinism: the arrival schedule, size-class assignment, datasets,
// and every per-query comparison counter depend only on LoadConfig
// (seed, qps, query count, mix) — never on wall-clock timing — so the
// `deterministic` sections of the emitted skymr-bench-v1 artifact are
// bit-identical across same-seed runs and are hard-gated by
// tools/bench_diff.py in CI. Latency/throughput numbers are
// machine-dependent and informational.

#ifndef SKYMR_BENCH_LOADGEN_LOADGEN_H_
#define SKYMR_BENCH_LOADGEN_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/runner.h"
#include "src/data/generator.h"
#include "src/mapreduce/chaos.h"
#include "src/obs/bench_artifact.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"

namespace skymr::loadgen {

/// Which admission lane a size class rides when
/// LoadConfig::small_reserved_slots splits the slots into two lanes.
enum class AdmissionClass {
  kAuto,   // by the class dataset's size (SessionOptions::SmallLane)
  kSmall,  // may use any slot, including the reserved ones
  kLarge,  // may not occupy the reserved slots
};

/// One query flavour in the traffic mix: a dataset shape plus the
/// algorithm/variant answering it. Weighted random assignment per query.
/// Over a resident dataset (LoadConfig::resident) the dataset-shape
/// fields are ignored — classes differ only by algorithm/constraint/lane.
struct SizeClass {
  std::string name;
  size_t cardinality = 1000;
  size_t dim = 3;
  data::Distribution distribution = data::Distribution::kIndependent;
  Algorithm algorithm = Algorithm::kMrGpmrs;
  /// Constrained-skyline variant: query only the [0, 0.6]^d corner box.
  bool constrained = false;
  /// Relative weight in the mix (0 drops the class).
  uint32_t weight = 1;
  /// Admission lane (only with LoadConfig::small_reserved_slots > 0).
  AdmissionClass lane = AdmissionClass::kAuto;
};

/// The default small/medium/large/constrained mix, with cardinalities
/// multiplied by `scale` (floored at 200 tuples).
std::vector<SizeClass> DefaultMix(double scale);

/// The serve-mode mix over one resident dataset: the same tuples asked
/// different questions (GPSRS, GPMRS, a constrained box). The
/// unconstrained classes share one bitstring fingerprint, so the
/// cross-query cache turns all but the first of their bitstring phases
/// into hits — the cross-algorithm sharing the session API exists for.
std::vector<SizeClass> ResidentServeMix();

struct LoadConfig {
  /// Seeds the arrival schedule and size assignment (not the datasets,
  /// which are seeded per size class so every run shares them).
  uint64_t seed = 1;
  /// Open-loop arrival rate, queries per second.
  double target_qps = 40.0;
  /// Total queries in the schedule.
  int queries = 48;
  /// Admission: queries running concurrently; arrivals beyond this wait
  /// for a slot in the shared AdmissionController.
  int admission_slots = 2;
  /// Worker threads of the shared ThreadPool all queries run on
  /// (0 = hardware concurrency).
  int threads = 0;
  /// Latency budget per query; > 0 counts query.deadline_missed.
  double deadline_ms = 0.0;
  /// The traffic mix (empty = ResidentServeMix() over a resident
  /// dataset, else DefaultMix(1.0)).
  std::vector<SizeClass> mix;
  /// Fault injection applied to every query's engine (storm profile +
  /// max_task_attempts=1 makes queries fail permanently, firing the
  /// flight-recorder crash dump).
  mr::ChaosSchedule chaos;
  int max_task_attempts = 1;
  /// Deterministic stall injected into query index `slow_query_index`
  /// (0-based arrival order) while it holds an admission slot: the
  /// coordinated-omission probe. Queries scheduled behind it must show
  /// the stall in their own latency.
  int slow_query_index = -1;
  double slow_query_ms = 0.0;
  /// Map tasks per query job (small jobs; keep the default modest).
  int num_map_tasks = 4;
  int num_reducers = 2;
  /// Batch mode (false) answers every query on a fresh Session, so each
  /// runs the whole two-job pipeline and nothing is shared between
  /// queries. Serve mode (true) keeps the session(s) resident for the
  /// whole run — one over `resident`, else one per size class — so
  /// queries share the cross-query bitstring cache.
  bool serve = false;
  /// Resident dataset shared by every size class; when null each class
  /// generates its own dataset. Must outlive the run.
  const Dataset* resident = nullptr;
  /// Admission slots large queries may not occupy. Above 0 the queries
  /// split into a small and a large lane (SizeClass::lane); at 0 every
  /// query waits in one lane, admitted strictly in arrival order.
  int small_reserved_slots = 0;
  /// Serve mode: prime the session cache(s) before the open-loop clock
  /// starts, so even the first arrival of each fingerprint is a hit.
  bool warmup = false;
};

/// Outcome of one query, indexes parallel to the arrival schedule.
struct QueryOutcome {
  uint64_t query_id = 0;       // 1-based stable id
  int size_class = 0;          // index into config.mix
  double scheduled_us = 0.0;   // arrival offset from harness epoch
  double dispatch_us = 0.0;    // when a slot started executing it
  double done_us = 0.0;        // completion offset
  bool ok = false;
  bool deadline_missed = false;
  /// Deterministic per-query signal: the skyline job's
  /// skymr.tuple_comparisons, and the skyline cardinality.
  int64_t comparisons = 0;
  int64_t skyline_size = 0;
  /// Jobs the query ran (grid cache hits run 1, misses 2) and whether
  /// its bitstring phase came from the session cache (never in batch
  /// mode).
  int64_t jobs = 0;
  bool cache_hit = false;
};

struct LoadReport {
  std::vector<QueryOutcome> outcomes;
  /// End-to-end latency from scheduled arrival (CO-safe) and the
  /// arrival→dispatch queueing wait, microseconds.
  obs::QuantileSketch latency_us;
  obs::QuantileSketch queue_wait_us;
  /// Per size class latency sketches (parallel to config.mix).
  std::vector<obs::QuantileSketch> per_size_latency_us;
  uint64_t schedule_hash = 0;
  int64_t completed = 0;
  int64_t errors = 0;
  int64_t deadline_missed = 0;
  int64_t max_queue_depth = 0;
  int64_t max_inflight = 0;
  double wall_seconds = 0.0;
  /// Logger drop count at the end of the run (mr.log_dropped).
  int64_t log_dropped = 0;
  /// Serve mode: session cache hits summed over every resident session,
  /// and the bitstring jobs that actually executed. Every executed job
  /// was a cache miss (the harness runs no checkpoint store), so
  /// bitstring_jobs is also the miss count. Deterministic for a fixed
  /// config: single-flight guarantees exactly one miss per distinct
  /// fingerprint no matter how queries interleave.
  int64_t session_cache_hits = 0;
  int64_t bitstring_jobs = 0;
};

/// The precomputed open-loop schedule: arrival offsets (us, ascending)
/// and size-class assignment per query (indexing the resolved mix, see
/// LoadConfig::mix), plus the mix fingerprint. Pure function of (seed,
/// qps, queries, mix weights).
struct ArrivalSchedule {
  std::vector<double> arrival_us;
  std::vector<int> size_class;
  uint64_t hash = 0;
};
ArrivalSchedule BuildSchedule(const LoadConfig& config);

/// Runs the workload — the one load driver. Each arrival dispatches on
/// its own thread, takes a slot from one two-lane AdmissionController
/// (first come, first served within each lane, in schedule order), and
/// goes through Session::Submit; config.serve picks a fresh session per
/// query (batch) or resident ones (serve). All sessions share one
/// ThreadPool, whose threads stay free to run the admitted queries'
/// map/reduce tasks. `metrics` (optional) is handed to every query's
/// engine, so it accumulates every job's totals; the per-query numbers
/// are the LoadReport's. `logger` (optional) receives per-query
/// structured events and is handed to every query's engine — configure
/// its crash_dump_path to get flight-recorder dumps on chaos faults.
StatusOr<LoadReport> RunLoad(const LoadConfig& config,
                             obs::MetricsRegistry* metrics,
                             obs::Logger* logger);

/// The run's skymr-bench-v1 artifact, bench "loadgen" (DESIGN.md §16.2):
/// an aggregate `loadgen` row, then one `size:<class>` row per size class
/// of the resolved mix. Each row's wall block summarizes its queries'
/// latency.
obs::BenchArtifact BuildLoadArtifact(const LoadConfig& config,
                                     const LoadReport& report);

}  // namespace skymr::loadgen

#endif  // SKYMR_BENCH_LOADGEN_LOADGEN_H_

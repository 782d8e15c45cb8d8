// The MapReduce engine: a faithful in-process implementation of the
// programming model the paper targets (Section 2.1).
//
//   Map(k1, v1)        -> list(k2, v2)
//   Reduce(k2, [v2])   -> list(k3, v3)
//
// Semantics reproduced from Hadoop 1.x:
//  * the input is any sized random-access range (a vector of records, or
//    a lazy std::views::iota of row ids into a broadcast dataset); it is
//    split into `num_map_tasks` contiguous splits, one mapper task per
//    split, with Setup/Map/Cleanup lifecycle, and each task reads its
//    split in place;
//  * every emitted (k2, v2) is routed to a reducer (by key hash, or by
//    `key % r` for integral keys) and *serialized* at the map side —
//    values physically cross the "network" as bytes, so no shared
//    in-memory state can leak between tasks and the shuffle byte counts
//    are exact;
//  * each reducer task receives its bucket grouped by key in sorted key
//    order, with values ordered by (mapper id, emit order);
//  * a DistributedCache broadcasts immutable side data to all tasks;
//  * tasks may fail (throw TaskFailure) and are retried up to
//    `max_task_attempts` times with exponential backoff — see
//    task_scheduler.h for the scheduling policy and chaos.h for
//    deterministic fault injection;
//  * per-task busy times, record counts, byte counts, and Counters are
//    captured so a ClusterModel can compute a modeled cluster makespan.
//
// Map and reduce tasks run concurrently on a ThreadPool.
//
// Shuffle storage is allocation-lean and exact: each map task owns one
// contiguous byte arena per reducer bucket into which Emit serializes key
// and value back to back (one write doubles as the byte-count
// measurement), plus a small offset/length record index. A bucket's first
// record sizes its arena exactly (counted, not encoded, beforehand), so a
// bucket holding one payload — every skyline job's — carries no growth
// slack. The shuffle moves whole arenas to the reducer side — never
// per-record buffers — and each reducer's merge and sort runs as its own
// pool task. Reducers consume values through a streaming ValueIterator
// that deserializes one value at a time straight out of the arena, so a
// key group is never materialized as a std::vector<V2>. A reducer's
// arenas and index are freed as soon as its reduce attempt returns: a
// returning attempt is its task's last, so nothing re-reads them.

#ifndef SKYMR_MAPREDUCE_JOB_H_
#define SKYMR_MAPREDUCE_JOB_H_

#include <algorithm>
#include <concepts>
#include <functional>
#include <map>
#include <memory>
#include <ranges>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/serde.h"
#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/mapreduce/chaos.h"
#include "src/mapreduce/counters.h"
#include "src/mapreduce/distributed_cache.h"
#include "src/mapreduce/task_metrics.h"
#include "src/mapreduce/task_scheduler.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace skymr::mr {

/// How emitted keys are routed to reducers: plain enum cases, so
/// MapContext::Emit dispatches with an inlineable switch.
enum class PartitionerKind {
  kSingleReducer,  ///< One reducer: every record goes to bucket 0.
  kHash,           ///< std::hash(key) % num_reducers (the default).
  kModulo,         ///< key % num_reducers for integral keys.
};

/// Streams one key group's values out of the shuffle arena, deserializing
/// lazily: Next() decodes exactly one value, so a reducer that keeps only
/// a running aggregate never materializes the group.
template <typename V2>
class ValueIterator {
 public:
  /// One serialized value inside a shuffle arena.
  struct Slice {
    const uint8_t* data;
    size_t size;
  };

  ValueIterator(const Slice* slices, size_t count)
      : slices_(slices), count_(count) {}

  bool HasNext() const { return next_ < count_; }
  size_t remaining() const { return count_ - next_; }

  /// Deserializes and returns the next value. Requires HasNext().
  V2 Next() {
    SKYMR_DCHECK(HasNext()) << "Next() past the last shuffle value";
    const Slice& slice = slices_[next_++];
    ByteSource source(slice.data, slice.size);
    return Serde<V2>::Read(&source);
  }

 private:
  const Slice* slices_;
  size_t count_;
  size_t next_ = 0;
};

/// The interface map tasks use to emit records and report statistics.
template <typename K2, typename V2>
class MapContext {
 public:
  MapContext(int task_id, int num_reducers, const DistributedCache* cache,
             PartitionerKind partitioner_kind)
      : task_id_(task_id),
        num_reducers_(num_reducers),
        cache_(cache),
        partitioner_kind_(partitioner_kind),
        buckets_(static_cast<size_t>(num_reducers)) {}

  /// Emits one intermediate record. Key and value are serialized once,
  /// back to back, into the destination bucket's arena; the arena growth
  /// is the byte count, so nothing is encoded twice. A bucket's first
  /// record reserves exactly its own bytes.
  void Emit(const K2& key, const V2& value) {
    const int bucket_index = Route(key);
    Bucket& bucket = buckets_[static_cast<size_t>(bucket_index)];
    if (bucket.records.empty()) {
      bucket.arena.Reserve(SerializedByteSize(key) +
                           SerializedByteSize(value));
    }
    const size_t key_begin = bucket.arena.size();
    Serde<K2>::Write(key, &bucket.arena);
    const size_t value_begin = bucket.arena.size();
    Serde<V2>::Write(value, &bucket.arena);
    Record record;
    record.key = key;
    record.value_offset = value_begin;
    record.key_bytes = value_begin - key_begin;
    record.value_bytes = bucket.arena.size() - value_begin;
    bucket.records.push_back(std::move(record));
    ++output_records_;
  }

  int task_id() const { return task_id_; }
  int num_reducers() const { return num_reducers_; }
  const DistributedCache& cache() const { return *cache_; }
  Counters& counters() { return counters_; }
  std::map<std::string, obs::QuantileSketch>& sketches() { return sketches_; }

 private:
  template <typename In, typename KK, typename VV, typename Out>
  friend class Job;

  struct Record {
    K2 key;
    size_t value_offset = 0;  // Of the value bytes within the arena.
    size_t key_bytes = 0;
    size_t value_bytes = 0;
  };

  /// One reducer bucket: a contiguous serialization arena plus the record
  /// index into it.
  struct Bucket {
    ByteSink arena;
    std::vector<Record> records;
  };

  int Route(const K2& key) {
    switch (partitioner_kind_) {
      case PartitionerKind::kSingleReducer:
        return 0;
      case PartitionerKind::kHash:
        return static_cast<int>(std::hash<K2>{}(key) %
                                static_cast<size_t>(num_reducers_));
      case PartitionerKind::kModulo:
        if constexpr (std::is_integral_v<K2>) {
          return static_cast<int>(static_cast<uint64_t>(key) %
                                  static_cast<uint64_t>(num_reducers_));
        } else {
          return 0;  // Unreachable: UseModuloPartitioner is static_asserted.
        }
    }
    return 0;
  }

  int task_id_;
  int num_reducers_;
  const DistributedCache* cache_;
  PartitionerKind partitioner_kind_;
  std::vector<Bucket> buckets_;
  uint64_t output_records_ = 0;
  Counters counters_;
  std::map<std::string, obs::QuantileSketch> sketches_;
};

/// The interface reduce tasks use to emit output records.
template <typename Out>
class ReduceContext {
 public:
  ReduceContext(int task_id, const DistributedCache* cache)
      : task_id_(task_id), cache_(cache) {}

  /// Emits one output record.
  void Emit(Out value) {
    output_bytes_ += SerializedByteSize(value);
    outputs_.push_back(std::move(value));
  }

  int task_id() const { return task_id_; }
  const DistributedCache& cache() const { return *cache_; }
  Counters& counters() { return counters_; }

 private:
  template <typename In, typename KK, typename VV, typename OO>
  friend class Job;

  int task_id_;
  const DistributedCache* cache_;
  std::vector<Out> outputs_;
  uint64_t output_bytes_ = 0;
  Counters counters_;
};

/// User map task: one instance per task attempt.
template <typename In, typename K2, typename V2>
class Mapper {
 public:
  virtual ~Mapper() = default;
  /// Called once before the first record.
  virtual void Setup(MapContext<K2, V2>& ctx) { (void)ctx; }
  /// Called once per input record.
  virtual void Map(const In& record, MapContext<K2, V2>& ctx) = 0;
  /// Called once after the last record. Batch algorithms (like the
  /// skyline mappers) emit their results here.
  virtual void Cleanup(MapContext<K2, V2>& ctx) { (void)ctx; }
};

/// User reduce task: one instance per task attempt.
template <typename K2, typename V2, typename Out>
class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void Setup(ReduceContext<Out>& ctx) { (void)ctx; }
  /// Called once per distinct key, with that key's values as a stream in
  /// (mapper id, emit order). Values not pulled are never deserialized.
  virtual void Reduce(const K2& key, ValueIterator<V2>& values,
                      ReduceContext<Out>& ctx) = 0;
  virtual void Cleanup(ReduceContext<Out>& ctx) { (void)ctx; }
};

/// Result of running a job: outputs in reducer-id order plus metrics.
template <typename Out>
struct JobResult {
  Status status;
  std::vector<Out> outputs;
  JobMetrics metrics;

  bool ok() const { return status.ok(); }
};

/// A configured MapReduce job. K2 must be copyable, LessThanComparable and
/// Serde-serializable; V2 and Out must be Serde-serializable.
template <typename In, typename K2, typename V2, typename Out>
class Job {
 public:
  using MapperFactory =
      std::function<std::unique_ptr<Mapper<In, K2, V2>>()>;
  using ReducerFactory =
      std::function<std::unique_ptr<Reducer<K2, V2, Out>>()>;

  Job(std::string name, MapperFactory mapper_factory,
      ReducerFactory reducer_factory)
      : name_(std::move(name)),
        mapper_factory_(std::move(mapper_factory)),
        reducer_factory_(std::move(reducer_factory)) {}

  const std::string& name() const { return name_; }

  /// Routes integral keys as `key % num_reducers` (treating the key as
  /// unsigned) instead of by hash.
  void UseModuloPartitioner() {
    static_assert(std::is_integral_v<K2>,
                  "modulo partitioning requires an integral key type");
    partitioner_kind_ = PartitionerKind::kModulo;
  }

  /// Runs the job over `input` with side data from `cache`. The input is
  /// any sized random-access range whose elements bind to `const In&`: a
  /// vector, a span, or a lazy `std::views::iota` of row ids, which no
  /// one materializes. Each map task reads its contiguous split of it in
  /// place. When `pool` is null a private pool of options.num_threads is
  /// used.
  template <typename Input>
    requires std::ranges::random_access_range<const Input> &&
             std::ranges::sized_range<const Input> &&
             std::convertible_to<std::ranges::range_reference_t<const Input>,
                                 const In&>
  JobResult<Out> Run(const Input& input, const EngineOptions& options,
                     const DistributedCache& cache,
                     ThreadPool* pool = nullptr) {
    JobResult<Out> result;
    if (const Status valid = ValidateEngineOptions(options); !valid.ok()) {
      result.status = Status::InvalidArgument("job '" + name_ +
                                              "': " + valid.message());
      return result;
    }
    result.metrics.name = name_;
    SKYMR_TRACE_SPAN(std::string("job.") + name_, "mappers",
                     options.num_map_tasks, "reducers", options.num_reducers);
    if (options.query.id != 0) {
      // Correlation spine: stamp the owning query's id into the trace
      // stream under the job span, mirroring the id every log record of
      // this job carries.
      SKYMR_TRACE_INSTANT("query.job", "query",
                          static_cast<int64_t>(options.query.id));
    }
    if (options.log != nullptr) {
      options.log->LogQuery(
          obs::LogSeverity::kInfo, options.query, "job.start",
          std::to_string(options.num_map_tasks) + " mappers, " +
              std::to_string(options.num_reducers) + " reducers, " +
              std::to_string(std::ranges::size(input)) + " input records",
          name_);
    }
    // Cache traffic is reported per job as the delta of the cache's
    // lifetime hit/miss totals across this run.
    const uint64_t cache_hits_before = cache.hits();
    const uint64_t cache_misses_before = cache.misses();
    Stopwatch job_clock;
    std::unique_ptr<ThreadPool> owned_pool;
    if (pool == nullptr) {
      const int threads = options.num_threads > 0
                              ? options.num_threads
                              : ThreadPool::DefaultThreads();
      owned_pool = std::make_unique<ThreadPool>(threads);
      pool = owned_pool.get();
    }

    const int m = options.num_map_tasks;
    const int r = options.num_reducers;

    // One scheduler per run: its chaos engine and cancel flag span both
    // waves.
    TaskScheduler scheduler(options, name_);
    WaveStats wave_stats;

    // ---- Map wave ----
    // Task isolation contract: a task's attempts run one after another on
    // one runner and touch only their own task's slot of these per-task
    // vectors, writing it only when the attempt returns normally; a
    // failing attempt throws before it writes anything. The merge passes
    // below run on the caller's thread after the wave completes.
    std::vector<MapTaskOutput> map_outputs(static_cast<size_t>(m));
    Status wave_status;
    {
      SKYMR_TRACE_SPAN("map.wave", "tasks", m);
      wave_status = scheduler.RunWave(
          pool, TaskKind::kMap, m,
          [&](const TaskAttempt& attempt) {
            return RunMapAttempt(
                attempt, SplitOf(input, attempt.task_id, m), r, cache,
                &map_outputs[static_cast<size_t>(attempt.task_id)]);
          },
          &wave_stats);
    }
    if (!wave_status.ok()) {
      if (options.log != nullptr) {
        options.log->LogQuery(obs::LogSeverity::kError, options.query,
                              "job.fail", wave_status.message(), name_);
      }
      result.status = wave_status;
      return result;
    }
    for (int task = 0; task < m; ++task) {
      // Every successful map task hands exactly one context (with one
      // bucket per reducer) to the shuffle.
      SKYMR_DCHECK(map_outputs[static_cast<size_t>(task)].context !=
                   nullptr)
          << "map task " << task << " succeeded without a shuffle context";
      SKYMR_DCHECK(map_outputs[static_cast<size_t>(task)]
                       .context->buckets_.size() == static_cast<size_t>(r))
          << "map task " << task << " bucket count != reducer count " << r;
    }

    // ---- Shuffle + reduce wave ----
    // The shuffle moves arenas out of the map contexts, so it runs exactly
    // once per reducer, outside the retry scheduler; every reduce attempt
    // of a task then reads the same immutable ReducerInput. That is what
    // makes a retry after a mid-iteration failure safe: the re-run
    // streams the identical sorted slice index, never re-sorted or
    // partially consumed state.
    std::vector<ReducerInput> reducer_inputs(static_cast<size_t>(r));
    std::vector<ReduceTaskOutput> reduce_outputs(static_cast<size_t>(r));
    {
      SKYMR_TRACE_SPAN("reduce.wave", "tasks", r);
      ParallelFor(pool, r, [&](int task) {
        SKYMR_TRACE_SPAN("shuffle.bucket", "reducer", task);
        Stopwatch shuffle_clock;
        BuildReducerInput(map_outputs, task,
                          &reducer_inputs[static_cast<size_t>(task)]);
        reducer_inputs[static_cast<size_t>(task)].build_seconds =
            shuffle_clock.ElapsedSeconds();
      });
      wave_status = scheduler.RunWave(
          pool, TaskKind::kReduce, r,
          [&](const TaskAttempt& attempt) {
            ReducerInput& in =
                reducer_inputs[static_cast<size_t>(attempt.task_id)];
            const Status status = RunReduceAttempt(
                attempt, in, scheduler.chaos(), cache,
                &reduce_outputs[static_cast<size_t>(attempt.task_id)]);
            // A failing attempt throws past this line, so the retry
            // re-reads intact bytes; a returning one is the task's last.
            in.Release();
            return status;
          },
          &wave_stats);
    }

    result.metrics.map_tasks.reserve(static_cast<size_t>(m));
    for (int task = 0; task < m; ++task) {
      MapTaskOutput& out = map_outputs[static_cast<size_t>(task)];
      result.metrics.map_tasks.push_back(std::move(out.metrics));
      out.context.reset();
    }
    uint64_t shuffle_bytes = 0;
    for (const ReducerInput& in : reducer_inputs) {
      shuffle_bytes += in.input_bytes;
    }
    result.metrics.shuffle_bytes = shuffle_bytes;

    if (!wave_status.ok()) {
      if (options.log != nullptr) {
        options.log->LogQuery(obs::LogSeverity::kError, options.query,
                              "job.fail", wave_status.message(), name_);
      }
      result.status = wave_status;
      return result;
    }

    for (int task = 0; task < r; ++task) {
      ReduceTaskOutput& out = reduce_outputs[static_cast<size_t>(task)];
      result.metrics.reduce_tasks.push_back(std::move(out.metrics));
      for (Out& value : out.outputs) {
        result.outputs.push_back(std::move(value));
      }
    }

    int64_t map_input_records = 0;
    int64_t map_output_records = 0;
    int64_t reduce_output_records = 0;
    for (const TaskMetrics& t : result.metrics.map_tasks) {
      result.metrics.counters.Merge(t.counters);
      for (const auto& [name, sketch] : t.sketches) {
        result.metrics.sketches[name].Merge(sketch);
      }
      map_input_records += static_cast<int64_t>(t.input_records);
      map_output_records += static_cast<int64_t>(t.output_records);
    }
    for (const TaskMetrics& t : result.metrics.reduce_tasks) {
      result.metrics.counters.Merge(t.counters);
      reduce_output_records += static_cast<int64_t>(t.output_records);
    }
    // Structural export for the bench artifacts (skymr-bench-v1): task
    // and wave counts plus record totals are reproducible bit-for-bit
    // for a fixed workload, unlike the timing-derived metrics, so they
    // feed the deterministic regression gate.
    result.metrics.counters.Add("mr.map_tasks", m);
    result.metrics.counters.Add("mr.reduce_tasks", r);
    result.metrics.counters.Add("mr.map_waves", 1);
    result.metrics.counters.Add("mr.reduce_waves", 1);
    result.metrics.counters.Add("mr.map_input_records", map_input_records);
    result.metrics.counters.Add("mr.map_output_records",
                                map_output_records);
    result.metrics.counters.Add("mr.reduce_output_records",
                                reduce_output_records);
    result.metrics.counters.Add("mr.task_retries", wave_stats.retries);
    // Fault-tolerance counters are added only when their machinery fired
    // (or, for chaos, was enabled), so chaos-free runs keep the exact
    // counter set the committed bench baselines were recorded with.
    if (wave_stats.backoff_waits > 0) {
      result.metrics.counters.Add("mr.backoff_waits",
                                  wave_stats.backoff_waits);
      result.metrics.counters.Add("mr.backoff_total_ms",
                                  wave_stats.backoff_total_ms);
    }
    if (const ChaosEngine* chaos = scheduler.chaos(); chaos != nullptr) {
      result.metrics.counters.Add("mr.chaos_crashes_injected",
                                  chaos->crashes_injected());
      result.metrics.counters.Add("mr.chaos_slow_injected",
                                  chaos->slow_injected());
      result.metrics.counters.Add("mr.chaos_corruptions_injected",
                                  chaos->corruptions_injected());
      result.metrics.counters.Add("mr.chaos_cache_faults_injected",
                                  chaos->cache_faults_injected());
    }
    result.metrics.counters.Add(
        "mr.cache_hits",
        static_cast<int64_t>(cache.hits() - cache_hits_before));
    result.metrics.counters.Add(
        "mr.cache_misses",
        static_cast<int64_t>(cache.misses() - cache_misses_before));
    result.metrics.wall_seconds = job_clock.ElapsedSeconds();
    if (options.metrics != nullptr) {
      RecordJobTotals(options.metrics, result.metrics, reducer_inputs);
    }
    if (options.log != nullptr) {
      options.log->LogQuery(
          obs::LogSeverity::kInfo, options.query, "job.finish",
          std::to_string(result.outputs.size()) + " outputs, " +
              std::to_string(shuffle_bytes) + " shuffle bytes, " +
              std::to_string(static_cast<int64_t>(
                  result.metrics.wall_seconds * 1e6)) +
              " us",
          name_);
    }
    result.status = Status::OK();
    return result;
  }

 private:
  using Slice = typename ValueIterator<V2>::Slice;

  struct MapTaskOutput {
    std::unique_ptr<MapContext<K2, V2>> context;
    TaskMetrics metrics;
  };

  struct ReduceTaskOutput {
    std::vector<Out> outputs;
    TaskMetrics metrics;
  };

  /// One record after the shuffle: the key plus a view of the serialized
  /// value inside one of the owned arena segments.
  struct ShuffleEntry {
    K2 key;
    const uint8_t* value_data;
    size_t value_size;
  };

  /// Everything one reduce task consumes: the arena segments moved over
  /// from the map side (which own the bytes the entries point into) and
  /// the merged, key-sorted record index.
  struct ReducerInput {
    std::vector<std::vector<uint8_t>> segments;
    std::vector<ShuffleEntry> entries;
    std::vector<Slice> slices;
    uint64_t input_bytes = 0;
    /// Wall time BuildReducerInput took for this bucket — the shuffle
    /// edge weight the critical-path analyzer consumes.
    double build_seconds = 0.0;

    /// Frees the bytes and the index; input_bytes and build_seconds stay
    /// for the job's metrics.
    void Release() {
      std::vector<std::vector<uint8_t>>().swap(segments);
      std::vector<ShuffleEntry>().swap(entries);
      std::vector<Slice>().swap(slices);
    }
  };

  /// Adds one finished job to the metrics registry (its only writer):
  /// the job count, the job's wall time, every task's busy time and every
  /// reducer's shuffle bucket bytes. Repeated jobs accumulate under the
  /// same names.
  static void RecordJobTotals(
      obs::MetricsRegistry* metrics, const JobMetrics& job,
      const std::vector<ReducerInput>& reducer_inputs) {
    const auto busy_us = [](const std::vector<TaskMetrics>& tasks) {
      std::vector<double> us;
      us.reserve(tasks.size());
      for (const TaskMetrics& t : tasks) {
        us.push_back(t.busy_seconds * 1e6);
      }
      return us;
    };
    std::vector<double> bucket_bytes;
    bucket_bytes.reserve(reducer_inputs.size());
    for (const ReducerInput& in : reducer_inputs) {
      bucket_bytes.push_back(static_cast<double>(in.input_bytes));
    }
    const double wall_us[] = {job.wall_seconds * 1e6};
    metrics->Add("mr.jobs_completed", 1);
    metrics->Record("mr.job_wall_us", wall_us);
    metrics->Record("mr.map_task_busy_us", busy_us(job.map_tasks));
    metrics->Record("mr.reduce_task_busy_us", busy_us(job.reduce_tasks));
    metrics->Record("mr.shuffle_bucket_bytes", bucket_bytes);
  }

  /// Task `task`'s split of `input`: a view of a contiguous slice, so the
  /// task reads its records in place.
  template <typename Input>
  static auto SplitOf(const Input& input, int task, int m) {
    // Contiguous splits; the first (n % m) splits get one extra record.
    const size_t n = std::ranges::size(input);
    const size_t base = n / static_cast<size_t>(m);
    const size_t extra = n % static_cast<size_t>(m);
    const auto t = static_cast<size_t>(task);
    const size_t begin = t * base + std::min(t, extra);
    const size_t size = base + (t < extra ? 1 : 0);
    SKYMR_DCHECK(begin + size <= n)
        << "split [" << begin << ", " << begin + size
        << ") overruns input size " << n;
    using Difference = std::ranges::range_difference_t<const Input>;
    const auto first =
        std::ranges::begin(input) + static_cast<Difference>(begin);
    return std::ranges::subrange(first, first + static_cast<Difference>(size));
  }

  /// One map task attempt, run under the TaskScheduler. Retry isolation:
  /// every attempt gets a fresh context and a fresh mapper instance, and
  /// `out` (the task's metrics/output slot shared with the job) is written
  /// only once the mapper has finished — a failed attempt throws first,
  /// so it can never leak partial state into the shuffle or metrics.
  template <typename Split>
  Status RunMapAttempt(const TaskAttempt& attempt, const Split& split,
                       int num_reducers, const DistributedCache& cache,
                       MapTaskOutput* out) {
    const PartitionerKind kind = num_reducers == 1
                                     ? PartitionerKind::kSingleReducer
                                     : partitioner_kind_;
    auto context = std::make_unique<MapContext<K2, V2>>(
        attempt.task_id, num_reducers, &cache, kind);
    SKYMR_TRACE_SPAN("map.task", "task", attempt.task_id, "attempt",
                     attempt.attempt);
    Stopwatch clock;
    std::unique_ptr<Mapper<In, K2, V2>> mapper = mapper_factory_();
    mapper->Setup(*context);
    size_t i = 0;
    for (auto&& record : split) {
      if ((i++ & 1023u) == 0u && attempt.Cancelled()) {
        throw TaskCancelled();
      }
      mapper->Map(record, *context);
    }
    mapper->Cleanup(*context);
    out->metrics.busy_seconds = clock.ElapsedSeconds();
    out->metrics.input_records = std::ranges::size(split);
    out->metrics.output_records = context->output_records_;
    uint64_t bytes = 0;
    for (const auto& bucket : context->buckets_) {
      for (const auto& record : bucket.records) {
        bytes += record.key_bytes + record.value_bytes;
      }
    }
    out->metrics.output_bytes = bytes;
    out->metrics.attempts = attempt.attempt;
    out->metrics.counters = context->counters_;
    out->metrics.sketches = std::move(context->sketches_);
    out->context = std::move(context);
    return Status::OK();
  }

  /// Moves reducer `reducer`'s bucket out of every map context: arenas are
  /// taken whole (the bytes never move again), record indexes are merged
  /// in task order and stable-sorted by key, preserving (mapper, emit)
  /// order within each key as Hadoop's merge sort does.
  void BuildReducerInput(std::vector<MapTaskOutput>& map_outputs, int reducer,
                         ReducerInput* in) {
    const auto bucket_index = static_cast<size_t>(reducer);
    size_t total_records = 0;
    for (const MapTaskOutput& out : map_outputs) {
      total_records += out.context->buckets_[bucket_index].records.size();
    }
    in->segments.reserve(map_outputs.size());
    in->entries.reserve(total_records);
    for (MapTaskOutput& out : map_outputs) {
      auto& bucket = out.context->buckets_[bucket_index];
      in->segments.push_back(bucket.arena.TakeBuffer());
      const uint8_t* base = in->segments.back().data();
      for (auto& record : bucket.records) {
        in->input_bytes += record.key_bytes + record.value_bytes;
        in->entries.push_back(ShuffleEntry{std::move(record.key),
                                           base + record.value_offset,
                                           record.value_bytes});
      }
    }
    {
      SKYMR_TRACE_SPAN("shuffle.sort", "reducer", reducer, "records",
                       static_cast<int64_t>(in->entries.size()));
      std::stable_sort(
          in->entries.begin(), in->entries.end(),
          [](const ShuffleEntry& a, const ShuffleEntry& b) {
            return a.key < b.key;
          });
    }
    in->slices.reserve(in->entries.size());
    for (const ShuffleEntry& entry : in->entries) {
      in->slices.push_back(Slice{entry.value_data, entry.value_size});
    }
  }

  /// One reduce task attempt, run under the TaskScheduler. The shared
  /// ReducerInput is read-only here: retries re-stream the same sorted
  /// slice index, and chaos corruption truncates a value only in an
  /// attempt-local copy of the slices, so a retried attempt reads clean
  /// bytes.
  Status RunReduceAttempt(const TaskAttempt& attempt, const ReducerInput& in,
                          ChaosEngine* chaos, const DistributedCache& cache,
                          ReduceTaskOutput* out) {
    const std::vector<ShuffleEntry>& entries = in.entries;
    ReduceContext<Out> context(attempt.task_id, &cache);
    SKYMR_TRACE_SPAN("reduce.task", "task", attempt.task_id, "attempt",
                     attempt.attempt);
    Stopwatch clock;
    const Slice* slices = in.slices.data();
    std::vector<Slice> corrupted;
    if (chaos != nullptr && !in.slices.empty() &&
        chaos->ShouldCorruptShuffle(attempt.task_id, attempt.attempt)) {
      corrupted = in.slices;
      Slice& victim = corrupted[chaos->CorruptIndex(
          attempt.task_id, attempt.attempt, corrupted.size())];
      if (victim.size > 0) {
        --victim.size;  // Truncated value => SerdeUnderflow on read.
      }
      slices = corrupted.data();
    }
    std::unique_ptr<Reducer<K2, V2, Out>> reducer = reducer_factory_();
    reducer->Setup(context);
    size_t i = 0;
    while (i < entries.size()) {
      if (attempt.Cancelled()) {
        throw TaskCancelled();
      }
      size_t j = i;
      while (j < entries.size() && !(entries[i].key < entries[j].key)) {
        ++j;
      }
      // Values stream out of the arena; nothing is deserialized until
      // the reducer pulls it.
      ValueIterator<V2> values(slices + i, j - i);
      reducer->Reduce(entries[i].key, values, context);
      i = j;
    }
    reducer->Cleanup(context);
    out->metrics.busy_seconds = clock.ElapsedSeconds();
    out->metrics.input_records = entries.size();
    out->metrics.input_bytes = in.input_bytes;
    out->metrics.shuffle_seconds = in.build_seconds;
    out->metrics.output_records = context.outputs_.size();
    out->metrics.output_bytes = context.output_bytes_;
    out->metrics.attempts = attempt.attempt;
    out->metrics.counters = context.counters_;
    out->outputs = std::move(context.outputs_);
    return Status::OK();
  }

  std::string name_;
  MapperFactory mapper_factory_;
  ReducerFactory reducer_factory_;
  PartitionerKind partitioner_kind_ = PartitionerKind::kHash;
};

}  // namespace skymr::mr

#endif  // SKYMR_MAPREDUCE_JOB_H_

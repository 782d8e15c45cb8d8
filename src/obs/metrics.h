// Live runtime metrics: a lock-free registry of gauges, rate counters,
// and streaming quantile sketches, plus a periodic sampler thread and a
// JSON snapshot exporter (schema skymr-metrics-v1).
//
// This is the per-query observability substrate the resident query
// server (ROADMAP item 1) plugs into: unlike the post-hoc JobReport,
// handles here are updated while work is running, and the sketch keeps
// p50/p95/p99 over an unbounded stream in constant memory.
//
// Concurrency model:
//  * Handle registration (gauge()/counter()/sketch()) takes a mutex —
//    the cold path, once per metric name. Handles are stable pointers
//    that live as long as the registry.
//  * Recording through a handle (Set/Add/Record) is lock-free: plain
//    relaxed atomics for gauges and counters, one relaxed atomic
//    fetch_add per sketch bucket. Any thread may record concurrently
//    with any other and with Snapshot().
//  * Snapshot()/WriteJson() take the registration mutex only to walk the
//    name -> handle maps; the values they read are racy-by-design
//    point-in-time reads, exactly what a sampler wants.
//
// The quantile sketch is a DDSketch-style log-bucket sketch: a value v
// lands in bucket ceil(log_gamma(v)) with gamma = (1+a)/(1-a), so every
// quantile estimate is within relative error a (kRelativeError) of the
// true value for values inside the representable range. Merging is
// bucket-wise addition — exactly associative and commutative, so sketches
// merged across tasks/jobs in any order agree bit-for-bit (see the
// merge-associativity tests).

#ifndef SKYMR_OBS_METRICS_H_
#define SKYMR_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/status.h"

namespace skymr::obs {

/// Schema identifier stamped into every exported metrics snapshot.
inline constexpr const char* kMetricsSchemaVersion = "skymr-metrics-v1";

/// Streaming quantile sketch over non-negative values (durations, byte
/// counts). Constant memory, mergeable, deterministic: estimates depend
/// only on the multiset of bucket counts, never on insertion order.
class QuantileSketch {
 public:
  /// Relative accuracy a: Quantile(q) is within a * true_value of the
  /// true q-quantile for values in [BucketValue(kMinIndex),
  /// BucketValue(kMaxIndex)]. Values below the range floor land in the
  /// zero bucket (estimated 0); values above are clamped to the top
  /// bucket, losing the relative-error bound there.
  static constexpr double kRelativeError = 0.01;
  /// Fixed log-bucket index range. With a = 1% the bucket base is
  /// gamma = 1.0202..., so the range covers ~3.6e-5 .. ~2.8e9 — enough
  /// for microsecond latencies up to ~45 minutes and byte counts to 2 GiB.
  static constexpr int kMinIndex = -512;
  static constexpr int kMaxIndex = 1087;
  /// Bucket array size: one zero bucket (slot 0) plus the index range.
  static constexpr size_t kNumBuckets =
      static_cast<size_t>(kMaxIndex - kMinIndex + 2);

  QuantileSketch();

  /// Adds one value. Non-positive (and NaN) values count in the zero
  /// bucket and do not affect min/max/sum.
  void Add(double value);

  /// Adds `other`'s population bucket-wise. Exactly associative: any
  /// merge tree over the same sketches yields identical buckets, counts,
  /// min/max, and therefore identical quantile estimates.
  void Merge(const QuantileSketch& other);

  /// Estimated q-quantile (q in [0, 1]) of everything added, clamped to
  /// the observed [min, max]. Returns 0 when empty.
  double Quantile(double q) const;

  uint64_t count() const { return count_; }
  uint64_t zero_count() const { return buckets_[0]; }
  double sum() const { return sum_; }
  /// Smallest value added: 0 once the zero bucket holds any value,
  /// otherwise the smallest positive value (0 when empty).
  double min() const;
  /// Largest positive value added (0 when none).
  double max() const;
  /// Raw bucket counts (slot 0 = zero bucket) — exposed for the
  /// associativity tests and the registry's atomic mirror.
  const std::vector<uint64_t>& buckets() const { return buckets_; }

  /// Structural equality: buckets, count, min, max. `sum` is excluded —
  /// floating-point addition is not associative, so sums from different
  /// merge orders may differ in the last ulp.
  bool operator==(const QuantileSketch& other) const;
  bool operator!=(const QuantileSketch& other) const {
    return !(*this == other);
  }

  /// Bucket slot for a value (0 = zero bucket; otherwise
  /// index - kMinIndex + 1 with the index clamped to the range).
  static size_t BucketSlot(double value);
  /// Midpoint estimate of bucket slot `slot` (> 0); slot 0 estimates 0.
  static double SlotValue(size_t slot);
  /// Rebuilds a sketch from raw parts (registry snapshot plumbing).
  /// `buckets` must have kNumBuckets entries.
  static QuantileSketch FromParts(std::vector<uint64_t> buckets,
                                  uint64_t count, double sum, double min_pos,
                                  double max_pos);

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_pos_;  // +inf when no positive value yet.
  double max_pos_;  // 0 when no positive value yet.
};

/// Exact median of `values` (the mean of the middle two for an even
/// count); 0 when empty. The sketch estimates quantiles of unbounded
/// streams; this is for the short lists obs/ summarizes exactly — one
/// wave's task costs, one bench row's repetitions.
double Median(std::vector<double> values);

class JsonWriter;  // json.h

/// Writes `sketch` as one JSON object: count, sum, min, max, p50, p95,
/// p99 and relative_error. Every sketch in a metrics snapshot and in a
/// job report has this shape.
void WriteSketchJson(const QuantileSketch& sketch, JsonWriter* w);

/// Point-in-time copy of every registered metric.
struct MetricsSnapshot {
  double uptime_seconds = 0.0;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, int64_t> counters;
  std::map<std::string, QuantileSketch> sketches;
};

/// One periodic sampler observation (gauge/counter values only; sketches
/// are cumulative and exported once, in the final snapshot).
struct MetricsSample {
  double uptime_seconds = 0.0;
  /// Wall time this sample itself took — the sampler's own overhead,
  /// also accumulated into the mr.sampler_sample_us sketch so the
  /// doctor's sampler-overhead check can read it from the export.
  double sample_cost_us = 0.0;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, int64_t> counters;
};

/// The registry. See the file comment for the concurrency model.
class MetricsRegistry {
 public:
  /// A settable instantaneous value (queue depth, in-flight jobs).
  class Gauge {
   public:
    void Set(int64_t value) {
      value_.store(value, std::memory_order_relaxed);
    }
    void Add(int64_t delta) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    }
    int64_t Value() const { return value_.load(std::memory_order_relaxed); }

   private:
    std::atomic<int64_t> value_{0};
  };

  /// A monotone event count; the exporter derives rate_per_s from it.
  class Counter {
   public:
    void Add(int64_t delta) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    }
    int64_t Value() const { return value_.load(std::memory_order_relaxed); }

   private:
    std::atomic<int64_t> value_{0};
  };

  /// Concurrent mirror of QuantileSketch: one atomic per bucket, so
  /// Record() is lock-free and Snapshot() is a racy-but-consistent-enough
  /// point-in-time read.
  class Sketch {
   public:
    Sketch();
    void Record(double value);
    QuantileSketch Snapshot() const;

   private:
    std::vector<std::atomic<uint64_t>> buckets_;
    std::atomic<uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_pos_;
    std::atomic<double> max_pos_{0.0};
  };

  MetricsRegistry();

  /// Returns the handle registered under `name`, creating it on first
  /// use. The pointer stays valid for the registry's lifetime. A name
  /// holds exactly one metric kind; reusing it with a different kind is
  /// a programming error (checked).
  Gauge* gauge(std::string_view name);
  Counter* counter(std::string_view name);
  Sketch* sketch(std::string_view name);

  /// Seconds since the registry was constructed.
  double UptimeSeconds() const;

  /// Point-in-time copy of everything registered.
  MetricsSnapshot Snapshot() const;

  /// Writes the skymr-metrics-v1 JSON document: the final snapshot plus
  /// the sampler's time series (pass {} when no sampler ran).
  void WriteJson(std::ostream& os,
                 const std::vector<MetricsSample>& samples) const;
  Status WriteJsonFile(const std::string& path,
                       const std::vector<MetricsSample>& samples) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Sketch>, std::less<>> sketches_;
  std::chrono::steady_clock::time_point epoch_;
};

/// Background thread that samples a registry's gauges and counters every
/// `period_ms` into a bounded ring (oldest samples dropped past
/// `max_samples`). Records its own per-sample cost into the registry's
/// mr.sampler_sample_us sketch so the overhead is visible in the export.
/// The registry must outlive the sampler.
class MetricsSampler {
 public:
  explicit MetricsSampler(MetricsRegistry* registry, int period_ms = 10,
                          size_t max_samples = 512);
  ~MetricsSampler();

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Stops the thread after taking one final sample. Idempotent.
  void Stop();

  /// The collected time series, oldest first. Call after Stop() for a
  /// stable result (sampling continues until then).
  std::vector<MetricsSample> Samples() const;

  /// Total samples taken (may exceed Samples().size() once the ring
  /// wrapped).
  uint64_t samples_taken() const {
    return samples_taken_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();
  void TakeSample();

  MetricsRegistry* registry_;
  const int period_ms_;
  const size_t max_samples_;
  MetricsRegistry::Sketch* cost_sketch_ = nullptr;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::once_flag stop_once_;
  bool stop_ = false;
  std::deque<MetricsSample> samples_;
  std::atomic<uint64_t> samples_taken_{0};
  std::thread thread_;
};

/// RAII +delta/-delta around a scope for a gauge; tolerates a null gauge
/// (metrics disabled) so call sites need no branching.
class ScopedGaugeDelta {
 public:
  ScopedGaugeDelta(MetricsRegistry::Gauge* gauge, int64_t delta)
      : gauge_(gauge), delta_(delta) {
    if (gauge_ != nullptr) {
      gauge_->Add(delta_);
    }
  }
  ~ScopedGaugeDelta() {
    if (gauge_ != nullptr) {
      gauge_->Add(-delta_);
    }
  }
  ScopedGaugeDelta(const ScopedGaugeDelta&) = delete;
  ScopedGaugeDelta& operator=(const ScopedGaugeDelta&) = delete;

 private:
  MetricsRegistry::Gauge* gauge_;
  int64_t delta_;
};

}  // namespace skymr::obs

#endif  // SKYMR_OBS_METRICS_H_

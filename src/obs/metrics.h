// The metrics registry: named counters and QuantileSketch distributions
// that hold the engine's per-job totals across every job a process runs
// (all the queries of a `compare` or `serve` run), exported as one JSON
// snapshot (schema skymr-metrics-v2).
//
// Job::Run is the only writer. When a job finishes it adds one to
// mr.jobs_completed and records its wall time, every task's busy time
// and every reducer's shuffle bucket bytes (DESIGN.md §15.1). One job's
// numbers live in its JobMetrics and the job report; the registry keeps
// only their distribution across jobs.
//
// Concurrency: one mutex guards every value. A finished job takes it
// once per name it records, and nothing on the per-record or per-task
// path touches it, so concurrent queries sharing one registry lose no
// update.
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

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace skymr::obs {

/// Schema identifier stamped into every exported metrics snapshot.
inline constexpr const char* kMetricsSchemaVersion = "skymr-metrics-v2";

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

  /// Structural equality: buckets, count, min, max. `sum` is excluded —
  /// floating-point addition is not associative, so sums from different
  /// merge orders may differ in the last ulp.
  bool operator==(const QuantileSketch& other) const;
  bool operator!=(const QuantileSketch& other) const {
    return !(*this == other);
  }

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

/// Point-in-time copy of the registry.
struct MetricsSnapshot {
  double uptime_seconds = 0.0;
  std::map<std::string, int64_t, std::less<>> counters;
  std::map<std::string, QuantileSketch, std::less<>> sketches;
};

/// The registry. See the file comment for who writes it and when.
class MetricsRegistry {
 public:
  MetricsRegistry();

  /// Adds `delta` to the counter `name`, created at 0 on first use.
  void Add(std::string_view name, int64_t delta);
  /// Adds every value in `values` to the sketch `name`, created empty on
  /// first use, under one lock.
  void Record(std::string_view name, std::span<const double> values);

  /// Copy of every counter and sketch, plus the seconds since the
  /// registry was constructed.
  MetricsSnapshot Snapshot() const;

  /// Writes the skymr-metrics-v2 JSON document: schema, uptime_seconds,
  /// counters (name -> value) and sketches (name -> WriteSketchJson).
  void WriteJson(std::ostream& os) const;
  Status WriteJsonFile(const std::string& path) const;

 private:
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::map<std::string, int64_t, std::less<>> counters_
      SKYMR_GUARDED_BY(mutex_);
  std::map<std::string, QuantileSketch, std::less<>> sketches_
      SKYMR_GUARDED_BY(mutex_);
};

}  // namespace skymr::obs

#endif  // SKYMR_OBS_METRICS_H_

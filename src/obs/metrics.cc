#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>

#include "src/obs/json.h"

namespace skymr::obs {
namespace {

// gamma = (1 + a) / (1 - a): the log-bucket base that makes every bucket
// midpoint a relative-error-a estimate for the whole bucket.
const double kGamma = (1.0 + QuantileSketch::kRelativeError) /
                      (1.0 - QuantileSketch::kRelativeError);
const double kLogGamma = std::log(kGamma);
// Midpoint factor: the estimate for bucket (gamma^(i-1), gamma^i] is
// 2 * gamma^i / (gamma + 1).
const double kMidpointFactor = 2.0 / (kGamma + 1.0);
constexpr int kMinIndex = QuantileSketch::kMinIndex;
constexpr int kMaxIndex = QuantileSketch::kMaxIndex;

// Bucket slot for a value: 0 is the zero bucket; otherwise
// index - kMinIndex + 1 with the index clamped to the range.
size_t BucketSlot(double value) {
  if (!(value > 0.0)) {  // Also catches NaN.
    return 0;
  }
  double index = std::ceil(std::log(value) / kLogGamma);
  index = std::max(index, static_cast<double>(kMinIndex));
  index = std::min(index, static_cast<double>(kMaxIndex));
  return static_cast<size_t>(static_cast<int>(index) - kMinIndex + 1);
}

// Midpoint estimate of bucket slot `slot` (> 0); slot 0 estimates 0.
double SlotValue(size_t slot) {
  if (slot == 0) {
    return 0.0;
  }
  const int index = static_cast<int>(slot) - 1 + kMinIndex;
  return kMidpointFactor * std::exp(static_cast<double>(index) * kLogGamma);
}

}  // namespace

// ---------------------------------------------------------------------------
// QuantileSketch

QuantileSketch::QuantileSketch()
    : buckets_(kNumBuckets, 0),
      min_pos_(std::numeric_limits<double>::infinity()),
      max_pos_(0.0) {}

void QuantileSketch::Add(double value) {
  const size_t slot = BucketSlot(value);
  ++buckets_[slot];
  ++count_;
  if (slot != 0) {
    sum_ += value;
    min_pos_ = std::min(min_pos_, value);
    max_pos_ = std::max(max_pos_, value);
  }
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  for (size_t i = 0; i < kNumBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_pos_ = std::min(min_pos_, other.min_pos_);
  max_pos_ = std::max(max_pos_, other.max_pos_);
}

double QuantileSketch::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::min(std::max(q, 0.0), 1.0);
  // 0-based target rank in the sorted population.
  const double rank = q * static_cast<double>(count_ - 1);
  uint64_t cumulative = 0;
  for (size_t slot = 0; slot < kNumBuckets; ++slot) {
    cumulative += buckets_[slot];
    if (static_cast<double>(cumulative) > rank) {
      if (slot == 0) {
        return 0.0;
      }
      const double estimate = SlotValue(slot);
      return std::min(std::max(estimate, min()), max());
    }
  }
  return max();
}

double QuantileSketch::min() const {
  return buckets_[0] == 0 && std::isfinite(min_pos_) ? min_pos_ : 0.0;
}

double QuantileSketch::max() const { return max_pos_; }

bool QuantileSketch::operator==(const QuantileSketch& other) const {
  return count_ == other.count_ && min() == other.min() &&
         max() == other.max() && buckets_ == other.buckets_;
}

double Median(std::vector<double> values) {
  const size_t n = values.size();
  if (n == 0) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void WriteSketchJson(const QuantileSketch& sketch, JsonWriter* w) {
  w->BeginObject();
  w->Key("count");
  w->Uint(sketch.count());
  w->Key("sum");
  w->Double(sketch.sum());
  w->Key("min");
  w->Double(sketch.min());
  w->Key("max");
  w->Double(sketch.max());
  w->Key("p50");
  w->Double(sketch.Quantile(0.50));
  w->Key("p95");
  w->Double(sketch.Quantile(0.95));
  w->Key("p99");
  w->Double(sketch.Quantile(0.99));
  w->Key("relative_error");
  w->Double(QuantileSketch::kRelativeError);
  w->EndObject();
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry::MetricsRegistry()
    : epoch_(std::chrono::steady_clock::now()) {}

void MetricsRegistry::Add(std::string_view name, int64_t delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), 0).first;
  }
  it->second += delta;
}

void MetricsRegistry::Record(std::string_view name,
                             std::span<const double> values) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sketches_.find(name);
  if (it == sketches_.end()) {
    it = sketches_.emplace(std::string(name), QuantileSketch()).first;
  }
  for (const double value : values) {
    it->second.Add(value);
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  snap.uptime_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - epoch_)
                            .count();
  std::lock_guard<std::mutex> lock(mutex_);
  snap.counters = counters_;
  snap.sketches = sketches_;
  return snap;
}

void MetricsRegistry::WriteJson(std::ostream& os) const {
  const MetricsSnapshot snap = Snapshot();
  JsonWriter w(os);
  w.BeginObject();
  w.Key("schema");
  w.String(kMetricsSchemaVersion);
  w.Key("uptime_seconds");
  w.Double(snap.uptime_seconds);
  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, value] : snap.counters) {
    w.Key(name);
    w.Int(value);
  }
  w.EndObject();
  w.Key("sketches");
  w.BeginObject();
  for (const auto& [name, sketch] : snap.sketches) {
    w.Key(name);
    WriteSketchJson(sketch, &w);
  }
  w.EndObject();
  w.EndObject();
  os << '\n';
}

Status MetricsRegistry::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open metrics output: " + path);
  }
  WriteJson(out);
  out.flush();
  if (!out) {
    return Status::IoError("failed writing metrics: " + path);
  }
  return Status::OK();
}

}  // namespace skymr::obs

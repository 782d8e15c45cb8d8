#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>

#include "src/common/logging.h"
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

void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMinDouble(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// QuantileSketch

QuantileSketch::QuantileSketch()
    : buckets_(kNumBuckets, 0),
      min_pos_(std::numeric_limits<double>::infinity()),
      max_pos_(0.0) {}

size_t QuantileSketch::BucketSlot(double value) {
  if (!(value > 0.0)) {  // Also catches NaN.
    return 0;
  }
  double index = std::ceil(std::log(value) / kLogGamma);
  index = std::max(index, static_cast<double>(kMinIndex));
  index = std::min(index, static_cast<double>(kMaxIndex));
  return static_cast<size_t>(static_cast<int>(index) - kMinIndex + 1);
}

double QuantileSketch::SlotValue(size_t slot) {
  if (slot == 0) {
    return 0.0;
  }
  const int index = static_cast<int>(slot) - 1 + kMinIndex;
  return kMidpointFactor * std::exp(static_cast<double>(index) * kLogGamma);
}

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

QuantileSketch QuantileSketch::FromParts(std::vector<uint64_t> buckets,
                                         uint64_t count, double sum,
                                         double min_pos, double max_pos) {
  QuantileSketch sketch;
  SKYMR_DCHECK(buckets.size() == kNumBuckets)
      << "sketch parts have " << buckets.size() << " buckets, expected "
      << kNumBuckets;
  sketch.buckets_ = std::move(buckets);
  sketch.count_ = count;
  sketch.sum_ = sum;
  sketch.min_pos_ = min_pos;
  sketch.max_pos_ = max_pos;
  return sketch;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry::Sketch::Sketch() : buckets_(QuantileSketch::kNumBuckets) {
  min_pos_.store(std::numeric_limits<double>::infinity(),
                 std::memory_order_relaxed);
}

void MetricsRegistry::Sketch::Record(double value) {
  const size_t slot = QuantileSketch::BucketSlot(value);
  buckets_[slot].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  if (slot != 0) {
    AtomicAddDouble(&sum_, value);
    AtomicMinDouble(&min_pos_, value);
    AtomicMaxDouble(&max_pos_, value);
  }
}

QuantileSketch MetricsRegistry::Sketch::Snapshot() const {
  std::vector<uint64_t> buckets(QuantileSketch::kNumBuckets);
  for (size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return QuantileSketch::FromParts(
      std::move(buckets), count_.load(std::memory_order_relaxed),
      sum_.load(std::memory_order_relaxed),
      min_pos_.load(std::memory_order_relaxed),
      max_pos_.load(std::memory_order_relaxed));
}

MetricsRegistry::MetricsRegistry()
    : epoch_(std::chrono::steady_clock::now()) {}

MetricsRegistry::Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  SKYMR_DCHECK(counters_.find(name) == counters_.end() &&
               sketches_.find(name) == sketches_.end())
      << "metric '" << std::string(name)
      << "' already registered with a different kind";
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

MetricsRegistry::Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  SKYMR_DCHECK(gauges_.find(name) == gauges_.end() &&
               sketches_.find(name) == sketches_.end())
      << "metric '" << std::string(name)
      << "' already registered with a different kind";
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

MetricsRegistry::Sketch* MetricsRegistry::sketch(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  SKYMR_DCHECK(gauges_.find(name) == gauges_.end() &&
               counters_.find(name) == counters_.end())
      << "metric '" << std::string(name)
      << "' already registered with a different kind";
  auto it = sketches_.find(name);
  if (it == sketches_.end()) {
    it = sketches_.emplace(std::string(name), std::make_unique<Sketch>())
             .first;
  }
  return it->second.get();
}

double MetricsRegistry::UptimeSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  snap.uptime_seconds = UptimeSeconds();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, gauge->Value());
  }
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->Value());
  }
  for (const auto& [name, sketch] : sketches_) {
    snap.sketches.emplace(name, sketch->Snapshot());
  }
  return snap;
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

namespace {

void WriteIntMapJson(const std::map<std::string, int64_t>& values,
                     JsonWriter* w) {
  w->BeginObject();
  for (const auto& [name, value] : values) {
    w->Key(name);
    w->Int(value);
  }
  w->EndObject();
}

}  // namespace

void MetricsRegistry::WriteJson(
    std::ostream& os, const std::vector<MetricsSample>& samples) const {
  const MetricsSnapshot snap = Snapshot();
  JsonWriter w(os);
  w.BeginObject();
  w.Key("schema");
  w.String(kMetricsSchemaVersion);
  w.Key("uptime_seconds");
  w.Double(snap.uptime_seconds);
  w.Key("gauges");
  WriteIntMapJson(snap.gauges, &w);
  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, value] : snap.counters) {
    w.Key(name);
    w.BeginObject();
    w.Key("value");
    w.Int(value);
    w.Key("rate_per_s");
    w.Double(snap.uptime_seconds > 0.0
                 ? static_cast<double>(value) / snap.uptime_seconds
                 : 0.0);
    w.EndObject();
  }
  w.EndObject();
  w.Key("sketches");
  w.BeginObject();
  for (const auto& [name, sketch] : snap.sketches) {
    w.Key(name);
    WriteSketchJson(sketch, &w);
  }
  w.EndObject();
  w.Key("samples");
  w.BeginArray();
  for (const MetricsSample& sample : samples) {
    w.BeginObject();
    w.Key("uptime_seconds");
    w.Double(sample.uptime_seconds);
    w.Key("sample_cost_us");
    w.Double(sample.sample_cost_us);
    w.Key("gauges");
    WriteIntMapJson(sample.gauges, &w);
    w.Key("counters");
    WriteIntMapJson(sample.counters, &w);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << '\n';
}

Status MetricsRegistry::WriteJsonFile(
    const std::string& path,
    const std::vector<MetricsSample>& samples) const {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open metrics output: " + path);
  }
  WriteJson(out, samples);
  out.flush();
  if (!out) {
    return Status::IoError("failed writing metrics: " + path);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// MetricsSampler

MetricsSampler::MetricsSampler(MetricsRegistry* registry, int period_ms,
                               size_t max_samples)
    : registry_(registry),
      period_ms_(period_ms > 0 ? period_ms : 1),
      max_samples_(max_samples > 0 ? max_samples : 1) {
  // Register the self-cost sketch up front so the hot sampling loop never
  // touches the registration mutex for it.
  cost_sketch_ = registry_->sketch("mr.sampler_sample_us");
  thread_ = std::thread([this] { Loop(); });
}

MetricsSampler::~MetricsSampler() { Stop(); }

void MetricsSampler::Stop() {
  std::call_once(stop_once_, [this] {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
    // One final sample so even a run shorter than the period exports a
    // non-empty time series.
    TakeSample();
  });
}

std::vector<MetricsSample> MetricsSampler::Samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<MetricsSample>(samples_.begin(), samples_.end());
}

void MetricsSampler::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    wake_.wait_for(lock, std::chrono::milliseconds(period_ms_),
                   [this] { return stop_; });
    if (stop_) {
      break;
    }
    lock.unlock();
    TakeSample();
    lock.lock();
  }
}

void MetricsSampler::TakeSample() {
  const auto start = std::chrono::steady_clock::now();
  const MetricsSnapshot snap = registry_->Snapshot();
  MetricsSample sample;
  sample.uptime_seconds = snap.uptime_seconds;
  sample.gauges = snap.gauges;
  sample.counters = snap.counters;
  sample.sample_cost_us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  cost_sketch_->Record(sample.sample_cost_us);
  samples_taken_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.push_back(std::move(sample));
  while (samples_.size() > max_samples_) {
    samples_.pop_front();
  }
}

}  // namespace skymr::obs

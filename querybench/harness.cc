#include "querybench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "src/baselines/centralized.h"

namespace querybench {

size_t NearestRank(size_t n, int percent) {
  const size_t rank = (static_cast<size_t>(percent) * n + 99) / 100;
  return std::max<size_t>(rank, 1);
}

size_t SamplesBeyond(size_t n, int percent) {
  return n == 0 ? 0 : n - NearestRank(n, percent);
}

size_t MinSamplesFor(int percent) {
  size_t n = 1;
  while (SamplesBeyond(n, percent) < kMinSamplesBeyond) {
    ++n;
  }
  return n;
}

double Percentile(std::vector<double> samples, int percent) {
  if (samples.empty()) {
    return 0.0;
  }
  const size_t rank = NearestRank(samples.size(), percent);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::vector<skymr::TupleId> OracleSkylineIds(
    const skymr::Dataset& data, const std::optional<skymr::Box>& box) {
  const size_t dim = data.dim();
  skymr::Dataset rows(dim);
  std::vector<skymr::TupleId> original;
  for (size_t i = 0; i < data.size(); ++i) {
    const auto id = static_cast<skymr::TupleId>(i);
    const double* row = data.RowPtr(id);
    if (box.has_value() && !box->Contains(row, dim)) {
      continue;
    }
    rows.Append(std::span<const double>(row, dim));
    original.push_back(id);
  }
  const skymr::baselines::CentralizedRun run = skymr::baselines::RunCentralized(
      rows, skymr::baselines::CentralizedAlgorithm::kSfs);
  std::vector<skymr::TupleId> ids;
  ids.reserve(run.skyline.size());
  for (const skymr::TupleId local : run.skyline.ids()) {
    ids.push_back(original[local]);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool AnswerMatches(std::vector<skymr::TupleId> answer,
                   const std::vector<skymr::TupleId>& expected) {
  std::sort(answer.begin(), answer.end());
  return answer == expected;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

/// Innermost open span of the calling thread (0 = none).
thread_local uint64_t current_span = 0;

}  // namespace

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void SpanRecorder::Add(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, std::string_view name,
                           int64_t query)
    : recorder_(recorder) {
  record_.name = std::string(name);
  record_.id = recorder_->next_id_.fetch_add(1, std::memory_order_relaxed);
  record_.parent = current_span;
  record_.query = query;
  saved_parent_ = current_span;
  current_span = record_.id;
  record_.start_s = recorder_->Now();
}

SpanRecorder::Scope::~Scope() {
  record_.end_s = recorder_->Now();
  current_span = saved_parent_;
  recorder_->Add(std::move(record_));
}

double SpanRecorder::Scope::elapsed_s() const {
  return recorder_->Now() - record_.start_s;
}

std::vector<double> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) {
    index.emplace(spans[i].id, i);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_s();
  }
  for (const SpanRecord& span : spans) {
    const auto it = index.find(span.parent);
    if (span.parent != 0 && it != index.end()) {
      self[it->second] -= span.duration_s();
    }
  }
  return self;
}

skymr::Status SpanRecorder::WriteJson(const std::string& path) const {
  const std::vector<SpanRecord> spans = Snapshot();
  const std::vector<double> self = SelfTimes(spans);
  std::ofstream out(path);
  if (!out) {
    return skymr::Status::IoError("cannot write spans to " + path);
  }
  out << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                  "\"query\": %lld, \"start_us\": %.1f, \"end_us\": %.1f, "
                  "\"self_us\": %.1f}%s\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<long long>(s.query), s.start_s * 1e6,
                  s.end_s * 1e6, self[i] * 1e6,
                  i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  out.close();
  if (!out) {
    return skymr::Status::IoError("failed writing spans to " + path);
  }
  return skymr::Status::OK();
}

}  // namespace querybench

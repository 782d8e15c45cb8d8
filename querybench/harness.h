// Helpers of the query benchmark that carry its correctness and statistics
// rules, kept apart from the workload code so the self-test can check
// them: nearest-rank percentiles with the "ten samples beyond" rule, the
// single-node skyline oracle and the answer gate, peak-RSS sampling, and
// the in-memory span recorder the traced run writes out at exit.

#ifndef QUERYBENCH_HARNESS_H_
#define QUERYBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/skymr.h"

namespace querybench {

// ---- Percentiles ----------------------------------------------------------

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of the `percent`-th percentile of `n` samples:
/// ceil(percent * n / 100), at least 1. Integer arithmetic, so rank 90 of
/// 100 samples is exactly 90.
size_t NearestRank(size_t n, int percent);

/// Samples strictly above the nearest-rank percentile: n - rank.
size_t SamplesBeyond(size_t n, int percent);

/// Smallest sample count whose `percent`-th percentile has at least
/// kMinSamplesBeyond samples beyond it (100 for p90).
size_t MinSamplesFor(int percent);

/// Nearest-rank percentile of `samples` (taken by value and sorted).
/// Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, int percent);

// ---- Correctness gate -----------------------------------------------------

/// Sorted ids of the skyline of the rows of `data` inside `box` (every row
/// when `box` is empty), computed single-node by baselines::RunCentralized
/// over a copy of those rows, with the copy's ids mapped back to `data`.
std::vector<skymr::TupleId> OracleSkylineIds(
    const skymr::Dataset& data, const std::optional<skymr::Box>& box);

/// True when `answer` (any order) holds exactly the ids in `expected`
/// (sorted ascending, as OracleSkylineIds returns them).
bool AnswerMatches(std::vector<skymr::TupleId> answer,
                   const std::vector<skymr::TupleId>& expected);

/// Attempted / failed tally of one run. A query fails when it returned an
/// error status or an answer that does not match the oracle.
struct GateTally {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
    }
  }
};

// ---- Process memory -------------------------------------------------------

/// High-water mark of this process's resident set, in MiB.
double PeakRssMb();

// ---- Spans ----------------------------------------------------------------

/// One closed span: a timed call the benchmark made into a layer.
struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  /// Enclosing span on the same thread (0 = root).
  uint64_t parent = 0;
  /// Query sequence index the span belongs to (-1 = none).
  int64_t query = -1;
  double start_s = 0.0;  // seconds since the recorder was created
  double end_s = 0.0;

  double duration_s() const { return end_s - start_s; }
};

/// Thread-safe in-memory span store. Spans nest per thread: a span opened
/// while another is open on the same thread becomes its child.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// RAII span: opened on construction, recorded on destruction.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string_view name, int64_t query);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Seconds since the span opened.
    double elapsed_s() const;

   private:
    SpanRecorder* recorder_;
    SpanRecord record_;
    uint64_t saved_parent_ = 0;
  };

  std::vector<SpanRecord> Snapshot() const;

  /// Writes every span as a JSON array of {name,id,parent,query,start_us,
  /// end_us,self_us}.
  skymr::Status WriteJson(const std::string& path) const;

 private:
  double Now() const;
  void Add(SpanRecord record);

  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::atomic<uint64_t> next_id_{1};
};

/// Self time of every span: its duration minus the durations of its
/// direct children (which nest on the same thread, so never overlap).
/// Indexed like `spans`.
std::vector<double> SelfTimes(const std::vector<SpanRecord>& spans);

}  // namespace querybench

#endif  // QUERYBENCH_HARNESS_H_

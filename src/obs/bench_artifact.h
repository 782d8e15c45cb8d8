// Machine-readable bench artifacts, schema skymr-bench-v1: the document
// every bench binary (the nine figure/ablation benches and
// bench_hotpath) and the load harness (bench/loadgen) write so CI can
// diff runs over time.
//
// The schema splits every row into three sections with different trust
// levels:
//
//   "wall"          wall-time statistics over the run's repetitions
//                   (median/MAD/CV/min/max/mean) — machine-dependent and
//                   noisy, so regressions only soft-warn;
//   "metrics"       derived floating-point metrics (modeled seconds,
//                   speedups) — same trust level as wall time;
//   "deterministic" integer counters harvested from the engine's
//                   JobReport telemetry (tuple/partition comparisons,
//                   partitions pruned, shuffle bytes, tasks and waves
//                   run) — bit-identical across runs and machines for a
//                   fixed workload, so any drift is a real behavior
//                   change CI hard-gates on (tools/bench_diff.py).
//
// Document layout:
//
//   { "schema": "skymr-bench-v1",
//     "bench": "bench_fig7_dim_independent",
//     "environment": { "git_sha": ..., "compiler": ..., "build_type": ...,
//                      "cxx_flags": ..., "cpu": ..., "kernel_backend": ...,
//                      "tracing_compiled": ..., "threads": ...,
//                      "scale_env": ..., "full_env": ..., "reps": ... },
//     "rows": [ { "name": ...,
//                 "wall": { "reps", "median_seconds", "mad_seconds", "cv",
//                           "min_seconds", "max_seconds", "mean_seconds" },
//                 "metrics": { name: double, ... },
//                 "deterministic": { name: int64, ... } } ] }
//
// "environment" and "wall"/"metrics" are informational; only "rows[].name"
// and "rows[].deterministic" participate in the regression gate.

#ifndef SKYMR_OBS_BENCH_ARTIFACT_H_
#define SKYMR_OBS_BENCH_ARTIFACT_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/runner.h"

namespace skymr::obs {

/// Schema identifier stamped into every bench artifact.
inline constexpr const char* kBenchSchemaVersion = "skymr-bench-v1";

/// Robust summary statistics of the wall-time samples of one row.
struct WallStats {
  int reps = 0;
  double median_seconds = 0.0;
  /// Median absolute deviation from the median: a robust spread measure
  /// that one straggler repetition cannot inflate.
  double mad_seconds = 0.0;
  /// Coefficient of variation (population stddev / mean); 0 for a single
  /// repetition.
  double cv = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  double mean_seconds = 0.0;

  /// Computes the statistics of `samples` (empty input -> all zeros).
  static WallStats FromSamples(std::vector<double> samples);
};

/// One bench-artifact row: a single benchmark configuration.
struct BenchRow {
  std::string name;
  WallStats wall;
  /// Machine-dependent derived metrics (modeled seconds, speedups, ...).
  std::map<std::string, double> metrics;
  /// The noise-free regression signal; see the header comment.
  std::map<std::string, int64_t> deterministic;
};

/// Build/host facts stamped into the artifact so a reader can tell two
/// artifacts apart without external context. Never part of the diff gate.
struct BenchEnvironment {
  std::string git_sha;
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
  std::string cpu;
  std::string kernel_backend;
  bool tracing_compiled = false;
  int threads = 0;
  /// Raw SKYMR_SCALE / SKYMR_FULL environment values ("" when unset).
  std::string scale_env;
  std::string full_env;
  int reps = 1;
};

/// Captures the compiled-in build facts plus the host CPU and the
/// SKYMR_SCALE / SKYMR_FULL / SKYMR_BENCH_REPS environment.
BenchEnvironment CaptureBenchEnvironment();

/// Repetitions per bench row: SKYMR_BENCH_REPS clamped to [1, 100],
/// default 1.
int BenchRepsFromEnv();

/// Harvests the deterministic counter section from a finished pipeline:
/// structural outcomes (skyline size, ppd, partition counts, jobs) plus
/// the skymr.* and mr.* integer counters summed across jobs, and the
/// total shuffle bytes. Everything returned is reproducible bit-for-bit
/// for a fixed dataset, SessionOptions and QuerySpec.
///
/// `include_fault_injection` adds the seeded-chaos signal — mr.task_retries,
/// the mr.chaos_*_injected totals, mr.backoff_waits and the planned
/// mr.backoff_total_ms — which is bit-identical for a fixed ChaosSchedule
/// seed; the CI chaos-smoke gate diffs two same-seed runs with this on,
/// and against its committed baselines. The scheduling-dependent cache
/// hit/miss counters are always excluded.
std::map<std::string, int64_t> DeterministicCounters(
    const SkylineResult& result, uint64_t input_tuples,
    bool include_fault_injection = false);

/// One artifact document under construction.
class BenchArtifact {
 public:
  /// `bench_name` is the binary's identity (e.g. "bench_fig7"); the
  /// environment is captured at construction.
  explicit BenchArtifact(std::string bench_name);

  void AddRow(BenchRow row) { rows_.push_back(std::move(row)); }
  size_t row_count() const { return rows_.size(); }
  BenchEnvironment& environment() { return environment_; }

  /// Writes the skymr-bench-v1 JSON document.
  void Write(std::ostream& os) const;
  Status WriteFile(const std::string& path) const;

 private:
  std::string bench_name_;
  BenchEnvironment environment_;
  std::vector<BenchRow> rows_;
};

}  // namespace skymr::obs

#endif  // SKYMR_OBS_BENCH_ARTIFACT_H_

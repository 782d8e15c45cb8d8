// Shared infrastructure for the figure-reproduction benchmarks.
//
// Every bench binary regenerates one figure of the paper's Section 7 on a
// scaled-down workload (the paper's largest runs need cluster-hours; see
// EXPERIMENTS.md). Scaling is controlled by environment variables:
//
//   SKYMR_SCALE       multiplier on the per-figure default cardinality
//                     scale (default 1.0; e.g. SKYMR_SCALE=5 runs 5x more
//                     data); anything but a finite number > 0 exits 2
//   SKYMR_FULL        when set to 1, uses the paper's full cardinalities
//                     (several hours per figure on one machine)
//   SKYMR_BENCH_REPS  pipeline repetitions per reported row (default 1;
//                     an integer in [1, 100], anything else exits 2);
//                     more repetitions tighten the wall-time statistics
//                     in the bench artifact
//   SKYMR_BENCH_OUT   path of the skymr-bench-v1 artifact (default
//                     BENCH_<bench>.json in the working directory)
//   SKYMR_BENCH_CACHE_MB
//                     dataset-cache budget in MiB (default 1024, a finite
//                     number > 0); a sweep evicts least-recently-used
//                     datasets beyond it
//
// Each benchmark runs `SKYMR_BENCH_REPS` pipeline executions per reported
// row and exposes the paper's y-axes as counters:
//   modeled_s   modeled 13-node cluster makespan (paper "Runtime [s]")
//   skyline     skyline cardinality
//   shuffleKB   total shuffle traffic
//   ppd         selected grid resolution
//
// Besides the console table, every bench binary writes a machine-readable
// skymr-bench-v1 artifact (src/obs/bench_artifact.h): per-row wall-time
// statistics plus the deterministic counters CI diffs against the
// committed baselines under bench/baselines/ (tools/bench_diff.py).

#ifndef SKYMR_BENCH_BENCH_COMMON_H_
#define SKYMR_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/stopwatch.h"
#include "src/obs/bench_artifact.h"
#include "src/skymr.h"
#include "tools/flags.h"

namespace skymr::bench {

/// Effective cardinality for a paper cardinality under the figure's
/// default scale and the SKYMR_SCALE / SKYMR_FULL environment overrides.
/// Never below 500 tuples.
inline size_t ScaledCardinality(size_t paper_cardinality,
                                double figure_scale) {
  return tools::BenchScaledCount(paper_cardinality, figure_scale, 500);
}

/// Memoized dataset generation: figures sweep algorithms over the same
/// dataset, so generate each (distribution, cardinality, dim) once. The
/// cache is bounded (SKYMR_BENCH_CACHE_MB, default 1 GiB): once a sweep
/// moves on, least-recently-used datasets are evicted instead of pinning
/// every cardinality of the sweep in memory for the process lifetime.
/// The returned reference stays valid until the second-next CachedDataset
/// call (the most recently returned dataset is never evicted), which
/// covers the benchmark pattern of one dataset per row.
inline const Dataset& CachedDataset(data::Distribution distribution,
                                    size_t cardinality, size_t dim) {
  using Key = std::tuple<int, size_t, size_t>;
  struct Entry {
    std::unique_ptr<Dataset> data;
    uint64_t last_used = 0;
  };
  static std::map<Key, Entry> cache;
  static uint64_t tick = 0;
  static uint64_t cached_bytes = 0;

  const double budget_mb =
      tools::PositiveEnvDouble("SKYMR_BENCH_CACHE_MB", 1024.0);
  const uint64_t budget_bytes =
      budget_mb < 1.0 ? 1ull << 20
                      : static_cast<uint64_t>(budget_mb * (1ull << 20));

  ++tick;
  const Key key{static_cast<int>(distribution), cardinality, dim};
  auto it = cache.find(key);
  if (it == cache.end()) {
    // Make room for the incoming dataset first, so the sweep's peak RSS
    // stays near the budget instead of budget + one dataset. Keep the
    // most recently used entry: the caller of the previous row may hold
    // a reference to it until this call returns.
    const uint64_t incoming = static_cast<uint64_t>(cardinality) * dim *
                              sizeof(double);
    while (cached_bytes + incoming > budget_bytes && cache.size() > 1) {
      auto victim = cache.end();
      uint64_t newest = 0;
      for (auto probe = cache.begin(); probe != cache.end(); ++probe) {
        newest = std::max(newest, probe->second.last_used);
        if (victim == cache.end() ||
            probe->second.last_used < victim->second.last_used) {
          victim = probe;
        }
      }
      if (victim == cache.end() || victim->second.last_used == newest) {
        break;
      }
      cached_bytes -= victim->second.data->size() *
                      victim->second.data->dim() * sizeof(double);
      cache.erase(victim);
    }
    data::GeneratorConfig config;
    config.distribution = distribution;
    config.cardinality = cardinality;
    config.dim = dim;
    config.seed = 20140324;  // EDBT'14 conference date.
    it = cache
             .emplace(key,
                      Entry{std::make_unique<Dataset>(std::move(
                                data::Generate(config)).value()),
                            tick})
             .first;
    cached_bytes += incoming;
  }
  it->second.last_used = tick;
  return *it->second.data;
}

/// The paper's experimental configuration: 13 nodes, one mapper split per
/// node, MR-GPMRS defaults to one reducer per node (Section 7.1), and the
/// grid chosen by Section 3.3's occupancy rule as printed.
inline SessionOptions PaperOptions(int reducers = 13) {
  SessionOptions options;
  options.engine.num_map_tasks = 13;
  options.engine.num_reducers = reducers;
  options.ppd.strategy = core::PpdStrategy::kPaperLiteral;
  return options;
}

/// A query for `algorithm` with every other QuerySpec default.
inline QuerySpec PaperQuery(Algorithm algorithm) {
  QuerySpec query;
  query.algorithm = algorithm;
  return query;
}

/// One worker pool for the whole bench binary: every pipeline iteration
/// reuses it instead of spawning threads per session.
inline ThreadPool& SharedBenchPool() {
  static ThreadPool pool(ThreadPool::DefaultThreads());
  return pool;
}

/// Artifact rows accumulated by RunAndReport across the whole binary;
/// BenchMain writes them out at exit.
inline std::vector<obs::BenchRow>& CollectedRows() {
  static std::vector<obs::BenchRow> rows;
  return rows;
}

/// Name of the row currently executing, stashed by RegisterRow's wrapper.
/// Benchmarks run sequentially on one thread, so a single slot suffices.
inline std::string& CurrentRowName() {
  static std::string name;
  return name;
}

/// Registers a benchmark whose artifact row is labeled `name`. Drop-in for
/// benchmark::RegisterBenchmark; the wrapper records the name where
/// RunAndReport can pick it up (the installed google-benchmark has no
/// State::name accessor).
template <typename Fn>
benchmark::internal::Benchmark* RegisterRow(const std::string& name, Fn fn) {
  return benchmark::RegisterBenchmark(
      name.c_str(), [name, fn](benchmark::State& state) {
        CurrentRowName() = name;
        fn(state);
      });
}

/// Bench-specific extra metrics: called once per repetition with the
/// finished pipeline; values land in both the benchmark's console
/// counters and the artifact row's "metrics" section.
using RowAnnotator =
    std::function<void(const SkylineResult&, std::map<std::string, double>*)>;

/// Runs SKYMR_BENCH_REPS pipeline executions, reports the paper's
/// metrics on the benchmark state, and collects one skymr-bench-v1
/// artifact row: wall-time statistics over the repetitions plus the
/// deterministic counters harvested from the per-job telemetry. Each
/// repetition opens a fresh Session, so every one runs both jobs (a
/// reused session would serve the bitstring phase from its cache).
/// Aborts the benchmark on error, on a wrong skyline, and when the
/// deterministic counters disagree across repetitions.
inline void RunAndReport(benchmark::State& state, const Dataset& data,
                         const SessionOptions& options,
                         const QuerySpec& query,
                         const RowAnnotator& annotate = nullptr) {
  SessionOptions pooled = options;
  if (pooled.pool == nullptr) {
    pooled.pool = &SharedBenchPool();
  }
  const int reps = tools::BenchEnvReps();
  for (auto _ : state) {
    std::vector<double> wall_samples;
    wall_samples.reserve(static_cast<size_t>(reps));
    std::map<std::string, int64_t> deterministic;
    std::map<std::string, double> extra_metrics;
    double modeled_s = 0.0;
    double compute_s = 0.0;
    double skyline_size = 0.0;
    double shuffle_kb = 0.0;
    double ppd = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      auto session = Session::Open(data, pooled);
      if (!session.ok()) {
        state.SkipWithError(session.status().ToString().c_str());
        return;
      }
      auto result = (*session)->Submit(query);
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      wall_samples.push_back(result->wall_seconds);
      auto rep_counters = obs::DeterministicCounters(*result, data.size());
      if (rep == 0) {
        deterministic = std::move(rep_counters);
      } else if (rep_counters != deterministic) {
        // The regression gate relies on these being bit-identical; a
        // mismatch within one process is a bug worth failing loudly on.
        state.SkipWithError(
            "deterministic counters differ across repetitions");
        return;
      }
      uint64_t shuffle = 0;
      for (const auto& job : result->jobs) {
        shuffle += job.shuffle_bytes;
      }
      modeled_s = result->modeled_seconds;
      compute_s = result->modeled_compute_seconds;
      skyline_size = static_cast<double>(result->skyline.size());
      shuffle_kb = static_cast<double>(shuffle) / 1024.0;
      ppd = static_cast<double>(result->ppd);
      if (annotate) {
        annotate(*result, &extra_metrics);
      }
      benchmark::DoNotOptimize(result->skyline.size());
    }
    state.counters["modeled_s"] = modeled_s;
    state.counters["compute_s"] = compute_s;
    state.counters["skyline"] = skyline_size;
    state.counters["shuffleKB"] = shuffle_kb;
    state.counters["ppd"] = ppd;

    obs::BenchRow row;
    row.name = CurrentRowName();
    row.wall = obs::WallStats::FromSamples(wall_samples);
    row.metrics["modeled_s"] = modeled_s;
    row.metrics["compute_s"] = compute_s;
    row.metrics["shuffle_kb"] = shuffle_kb;
    for (const auto& [name, value] : extra_metrics) {
      state.counters[name] = value;
      row.metrics[name] = value;
    }
    row.deterministic = std::move(deterministic);
    CollectedRows().push_back(std::move(row));
  }
}

/// Shared main for the figure benches: runs the registered benchmarks,
/// then writes the skymr-bench-v1 artifact to SKYMR_BENCH_OUT (default
/// BENCH_<bench>.json).
inline int BenchMain(int argc, char** argv, const std::string& bench_name) {
  // Read before any row runs, so a malformed value stops the bench first.
  const int reps = tools::BenchEnvReps();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // The framework may invoke a benchmark several times while calibrating
  // the iteration count; keep only the final (measured) row per name.
  obs::BenchArtifact artifact(bench_name);
  artifact.environment().reps = reps;
  std::map<std::string, size_t> last_by_name;
  for (size_t i = 0; i < CollectedRows().size(); ++i) {
    last_by_name.insert_or_assign(CollectedRows()[i].name, i);
  }
  for (size_t i = 0; i < CollectedRows().size(); ++i) {
    if (last_by_name.at(CollectedRows()[i].name) == i) {
      artifact.AddRow(std::move(CollectedRows()[i]));
    }
  }
  CollectedRows().clear();
  std::string out_path = "BENCH_" + bench_name + ".json";
  if (const char* env = std::getenv("SKYMR_BENCH_OUT"); env != nullptr) {
    out_path = env;
  }
  if (const Status s = artifact.WriteFile(out_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu bench rows to %s\n", artifact.row_count(),
               out_path.c_str());
  return 0;
}

}  // namespace skymr::bench

#endif  // SKYMR_BENCH_BENCH_COMMON_H_

// bench_hotpath: microbenchmarks for the hot paths this library
// optimizes — block dominance kernels, the allocation-lean shuffle,
// ComparePartitions, the MR-GPMRS reducer filter and the map-side scan of
// a constrained query — reported as a machine-readable JSON file
// (BENCH_hotpath.json).
//
//   bench_hotpath [--out=BENCH_hotpath.json] [--scale=1.0] [--reps=3]
//
// Nine benchmarks:
//
//   dominance_kernel  block FirstDominatorIndex over an anti-correlated
//                     row block vs the scalar CompareDominance loop
//   window_insert     SkylineWindow::Insert over 10^6 * scale
//                     anti-correlated 6-d tuples vs a scalar reference
//                     window (the pre-kernel implementation, retained
//                     below verbatim)
//   shuffle_roundtrip one MapReduce job shuffling 5*10^5 * scale records
//                     map -> sort -> reduce, end to end
//   metrics_overhead  the shuffle_roundtrip job in alternating pairs on
//                     one shared thread pool — engine metrics off vs a
//                     MetricsRegistry attached — reporting the median
//                     per-pair overhead fraction (budget: < 2%)
//   compare_partitions CompareAllPartitions (the ADR walk, which skips
//                     empty windows) over the mapper windows of
//                     10^5 * scale independent 6-d tuples in 13
//                     contiguous splits at PPD 4, vs the all-pairs loop
//                     it replaced (retained below verbatim)
//   gpmrs_reduce      the busiest MR-GPMRS reducer of one query over
//                     10^5 * scale anti-correlated 6-d tuples (13 splits,
//                     13 reducers, PPD 2): MergeParts + CompareAllPartitions
//                     over the responsible cells only vs over every
//                     received cell (the full-group filter it replaced)
//   csv_load          data::SaveCsv of 10^6 * scale independent 4-d
//                     tuples, then data::LoadCsv of the file vs the
//                     string-table loader it replaced (retained below
//                     verbatim); both must load bit-identical values
//   constrained_scan  Box::Contains over 10^6 * scale independent 4-d
//                     tuples and one serve-boxes-shaped box (0.6 wide per
//                     axis) vs the early-exit loop it replaced (retained
//                     below verbatim); both must keep the same rows
//   bitstring_sweep   the bitstring mapper's binning of that box's rows
//                     into every candidate grid of the series (Section
//                     3.3): one GridSweep pass vs one Grid::CellOf per
//                     candidate; both must set identical bitstrings
//
// Speedups are computed from best-of-`reps` wall time; every benchmark
// validates its result against the reference before reporting. The
// output is a skymr-bench-v1 artifact (src/obs/bench_artifact.h): one
// row per benchmark with wall-time statistics over the repetitions,
// derived metrics (speedups, throughputs), and the deterministic
// counters (row counts, skyline size, shuffle bytes) that
// tools/bench_diff.py hard-gates against a committed baseline.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/csv.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/compare_partitions.h"
#include "src/core/grid.h"
#include "src/core/independent_groups.h"
#include "src/core/partition_bitstring.h"
#include "src/core/ppd.h"
#include "src/data/dataset_io.h"
#include "src/data/generator.h"
#include "src/local/skyline_window.h"
#include "src/mapreduce/job.h"
#include "src/obs/bench_artifact.h"
#include "src/obs/metrics.h"
#include "src/relation/box.h"
#include "src/relation/dominance.h"
#include "src/relation/dominance_kernel.h"
#include "tools/flags.h"

namespace skymr {
namespace {

/// Keeps a computed value alive without letting the optimizer see it.
volatile uint64_t g_sink = 0;

/// Tuples for a row of `full_tuples` at full scale: --scale times
/// SKYMR_SCALE, SKYMR_FULL=1 for the full workload, never below 1000.
/// Keeps the heaviest row (window_insert: ~10.7 s at full scale, ~75 s
/// for its scalar reference) shrinkable without flag plumbing.
size_t EnvScaledTuples(size_t full_tuples, double scale) {
  return tools::BenchScaledCount(full_tuples, scale, 1000);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall time of each of `reps` executions of `fn`, in run order.
template <typename Fn>
std::vector<double> RepSeconds(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const double start = Now();
    fn();
    samples.push_back(Now() - start);
  }
  return samples;
}

double BestOf(const std::vector<double>& samples) {
  double best = 1e300;
  for (const double s : samples) {
    best = s < best ? s : best;
  }
  return best;
}

double MedianOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// ---------------------------------------------------------------------
// The retained scalar reference: the tuple-at-a-time SkylineWindow
// insert this PR replaced, kept verbatim so the speedup claim in
// BENCH_hotpath.json is always measured against the real baseline.
// ---------------------------------------------------------------------
class ScalarReferenceWindow {
 public:
  explicit ScalarReferenceWindow(size_t dim) : dim_(dim) {}

  size_t size() const { return ids_.size(); }
  const double* RowAt(size_t i) const { return &values_[i * dim_]; }
  const std::vector<TupleId>& ids() const { return ids_; }

  bool Insert(const double* row, TupleId id) {
    size_t i = 0;
    bool keep = true;
    while (i < size()) {
      const DominanceResult cmp = CompareDominance(RowAt(i), row, dim_);
      if (cmp == DominanceResult::kADominatesB) {
        keep = false;
        break;
      }
      if (cmp == DominanceResult::kBDominatesA) {
        SwapRemove(i);
        continue;
      }
      ++i;
    }
    if (keep) {
      ids_.push_back(id);
      values_.insert(values_.end(), row, row + dim_);
    }
    return keep;
  }

 private:
  void SwapRemove(size_t i) {
    const size_t last = size() - 1;
    if (i != last) {
      ids_[i] = ids_[last];
      for (size_t k = 0; k < dim_; ++k) {
        values_[i * dim_ + k] = values_[last * dim_ + k];
      }
    }
    ids_.pop_back();
    values_.resize(values_.size() - dim_);
  }

  size_t dim_;
  std::vector<TupleId> ids_;
  std::vector<double> values_;
};

// ---------------------------------------------------------------------
// Benchmark 1: raw kernel throughput.
// ---------------------------------------------------------------------
struct KernelResult {
  size_t rows = 0;
  size_t candidates = 0;
  uint64_t dominator_index_sum = 0;
  std::vector<double> kernel_samples;
  double kernel_seconds = 0.0;
  double scalar_seconds = 0.0;
  double speedup = 0.0;
  double kernel_mcomparisons_per_s = 0.0;
};

KernelResult BenchDominanceKernel(double scale, int reps) {
  KernelResult out;
  const size_t dim = 6;
  out.rows = static_cast<size_t>(4096 * (scale < 1.0 ? scale : 1.0));
  out.rows = out.rows < 64 ? 64 : out.rows;
  out.candidates = 512;

  data::GeneratorConfig config;
  config.distribution = data::Distribution::kAntiCorrelated;
  config.cardinality = out.rows + out.candidates;
  config.dim = dim;
  config.seed = 20140324;
  const Dataset data = std::move(data::Generate(config)).value();
  const double* rows = data.RowPtr(0);
  const double* candidates = data.RowPtr(out.rows);

  uint64_t kernel_hits = 0;
  out.kernel_samples = RepSeconds(reps, [&] {
    uint64_t hits = 0;
    for (size_t c = 0; c < out.candidates; ++c) {
      hits += FirstDominatorIndex(candidates + c * dim, 0.0, rows,
                                  /*sums=*/nullptr, out.rows, dim);
    }
    g_sink = kernel_hits = hits;
  });
  out.kernel_seconds = BestOf(out.kernel_samples);

  uint64_t scalar_hits = 0;
  out.scalar_seconds = BestOf(RepSeconds(reps, [&] {
    uint64_t hits = 0;
    for (size_t c = 0; c < out.candidates; ++c) {
      size_t first = out.rows;
      for (size_t i = 0; i < out.rows; ++i) {
        if (CompareDominance(rows + i * dim, candidates + c * dim, dim) ==
            DominanceResult::kADominatesB) {
          first = i;
          break;
        }
      }
      hits += first;
    }
    g_sink = scalar_hits = hits;
  }));

  if (kernel_hits != scalar_hits) {
    std::fprintf(stderr, "dominance_kernel: kernel/scalar disagree\n");
    std::exit(1);
  }
  out.dominator_index_sum = kernel_hits;
  out.speedup = out.scalar_seconds / out.kernel_seconds;
  out.kernel_mcomparisons_per_s =
      static_cast<double>(out.rows) * static_cast<double>(out.candidates) /
      out.kernel_seconds / 1e6;
  return out;
}

// ---------------------------------------------------------------------
// Benchmark 2: SkylineWindow::Insert vs the scalar reference.
// ---------------------------------------------------------------------
struct InsertResult {
  size_t tuples = 0;
  size_t dim = 6;
  size_t skyline_size = 0;
  std::vector<double> kernel_samples;
  double kernel_seconds = 0.0;
  double scalar_seconds = 0.0;
  double speedup = 0.0;
  double kernel_tuples_per_s = 0.0;
};

InsertResult BenchWindowInsert(double scale, int reps) {
  InsertResult out;
  out.tuples = EnvScaledTuples(1000000, scale);
  out.dim = 6;

  data::GeneratorConfig config;
  config.distribution = data::Distribution::kAntiCorrelated;
  config.cardinality = out.tuples;
  config.dim = out.dim;
  config.seed = 20140324;
  const Dataset data = std::move(data::Generate(config)).value();

  size_t kernel_size = 0;
  out.kernel_samples = RepSeconds(reps, [&] {
    SkylineWindow window(out.dim);
    for (size_t i = 0; i < out.tuples; ++i) {
      window.Insert(data.RowPtr(i), static_cast<TupleId>(i), nullptr);
    }
    g_sink = kernel_size = window.size();
  });
  out.kernel_seconds = BestOf(out.kernel_samples);

  size_t scalar_size = 0;
  out.scalar_seconds = BestOf(RepSeconds(reps, [&] {
    ScalarReferenceWindow window(out.dim);
    for (size_t i = 0; i < out.tuples; ++i) {
      window.Insert(data.RowPtr(i), static_cast<TupleId>(i));
    }
    g_sink = scalar_size = window.size();
  }));

  if (kernel_size != scalar_size) {
    std::fprintf(stderr, "window_insert: kernel/scalar skyline differ\n");
    std::exit(1);
  }
  out.skyline_size = kernel_size;
  out.speedup = out.scalar_seconds / out.kernel_seconds;
  out.kernel_tuples_per_s =
      static_cast<double>(out.tuples) / out.kernel_seconds;
  return out;
}

// ---------------------------------------------------------------------
// Benchmark 3: one full map -> shuffle -> reduce round trip.
// ---------------------------------------------------------------------
struct ShuffleResult {
  size_t records = 0;
  uint64_t shuffle_bytes = 0;
  std::vector<double> samples;
  double seconds = 0.0;
  double records_per_s = 0.0;
  double mb_per_s = 0.0;
};

/// Emits (seed % kKeys, 4-double payload) per input record.
class PayloadMapper : public mr::Mapper<int, int, std::vector<double>> {
 public:
  static constexpr int kKeys = 512;
  void Map(const int& value,
           mr::MapContext<int, std::vector<double>>& ctx) override {
    const double v = static_cast<double>(value);
    ctx.Emit(value % kKeys, {v, v * 0.5, v * 0.25, v * 0.125});
  }
};

class PayloadReducer
    : public mr::Reducer<int, std::vector<double>, double> {
 public:
  void Reduce(const int& key, mr::ValueIterator<std::vector<double>>& values,
              mr::ReduceContext<double>& ctx) override {
    (void)key;
    double total = 0.0;
    while (values.HasNext()) {
      for (const double v : values.Next()) {
        total += v;
      }
    }
    ctx.Emit(total);
  }
};

ShuffleResult BenchShuffleRoundTrip(double scale, int reps) {
  ShuffleResult out;
  out.records = static_cast<size_t>(5e5 * scale);
  out.records = out.records < 1000 ? 1000 : out.records;

  std::vector<int> inputs(out.records);
  Rng rng(7);
  for (int& v : inputs) {
    v = static_cast<int>(rng.NextBounded(1 << 20));
  }

  mr::EngineOptions options;
  options.num_map_tasks = 8;
  options.num_reducers = 4;
  mr::DistributedCache cache;

  double expected = -1.0;
  out.samples = RepSeconds(reps, [&] {
    mr::Job<int, int, std::vector<double>, double> job(
        "hotpath-shuffle", [] { return std::make_unique<PayloadMapper>(); },
        [] { return std::make_unique<PayloadReducer>(); });
    auto result = job.Run(inputs, options, cache);
    if (!result.ok()) {
      std::fprintf(stderr, "shuffle_roundtrip: %s\n",
                   result.status.ToString().c_str());
      std::exit(1);
    }
    double total = 0.0;
    for (const double v : result.outputs) {
      total += v;
    }
    if (expected < 0.0) {
      expected = total;
    } else if (expected != total) {
      std::fprintf(stderr, "shuffle_roundtrip: nondeterministic result\n");
      std::exit(1);
    }
    out.shuffle_bytes = result.metrics.shuffle_bytes;
    g_sink = static_cast<uint64_t>(total);
  });
  out.seconds = BestOf(out.samples);

  out.records_per_s = static_cast<double>(out.records) / out.seconds;
  out.mb_per_s =
      static_cast<double>(out.shuffle_bytes) / out.seconds / 1e6;
  return out;
}

// ---------------------------------------------------------------------
// Benchmark 4: live-metrics cost on the same shuffle workload.
// ---------------------------------------------------------------------
struct MetricsOverheadResult {
  size_t records = 0;
  double plain_seconds = 0.0;
  double metrics_seconds = 0.0;
  /// Median over the rep pairs of metrics / plain, minus 1; negative
  /// values mean noise, not a win.
  double overhead_fraction = 0.0;
  std::vector<double> samples;
};

MetricsOverheadResult BenchMetricsOverhead(double scale, int reps) {
  MetricsOverheadResult out;
  out.records = static_cast<size_t>(5e5 * scale);
  out.records = out.records < 1000 ? 1000 : out.records;

  std::vector<int> inputs(out.records);
  Rng rng(7);
  for (int& v : inputs) {
    v = static_cast<int>(rng.NextBounded(1 << 20));
  }
  mr::DistributedCache cache;
  // One pool serves both sides, so neither pays for starting threads.
  ThreadPool pool(ThreadPool::DefaultThreads());

  const auto run_job = [&](const mr::EngineOptions& options) {
    mr::Job<int, int, std::vector<double>, double> job(
        "hotpath-metrics", [] { return std::make_unique<PayloadMapper>(); },
        [] { return std::make_unique<PayloadReducer>(); });
    auto result = job.Run(inputs, options, cache, &pool);
    if (!result.ok()) {
      std::fprintf(stderr, "metrics_overhead: %s\n",
                   result.status.ToString().c_str());
      std::exit(1);
    }
    g_sink = result.metrics.shuffle_bytes;
  };

  mr::EngineOptions plain;
  plain.num_map_tasks = 8;
  plain.num_reducers = 4;
  const auto time_plain = [&] {
    const double start = Now();
    run_job(plain);
    return Now() - start;
  };

  // Metrics rep: the job records its totals into a registry at its end,
  // exactly what `stats --metrics-out` wires up. One registry serves
  // every rep.
  obs::MetricsRegistry registry;
  mr::EngineOptions with_metrics = plain;
  with_metrics.metrics = &registry;
  const auto time_metrics = [&] {
    const double start = Now();
    run_job(with_metrics);
    return Now() - start;
  };

  // One untimed run per side first: the first jobs of the loop pay for
  // cold caches and first-touch page faults, which would otherwise land
  // whole in the first pair's ratio.
  time_plain();
  time_metrics();

  // Plain and metrics reps alternate, and every other pair runs the
  // metrics rep first, so host drift reaches both sides of a pair instead
  // of landing whole in the ratio. At least five pairs, so one host
  // hiccup cannot move the median.
  const int pairs = std::max(reps, 5);
  std::vector<double> plain_samples;
  std::vector<double> ratios;
  for (int r = 0; r < pairs; ++r) {
    double plain_seconds = 0.0;
    double metrics_seconds = 0.0;
    if (r % 2 == 0) {
      plain_seconds = time_plain();
      metrics_seconds = time_metrics();
    } else {
      metrics_seconds = time_metrics();
      plain_seconds = time_plain();
    }
    plain_samples.push_back(plain_seconds);
    out.samples.push_back(metrics_seconds);
    ratios.push_back(metrics_seconds / plain_seconds);
  }
  out.plain_seconds = BestOf(plain_samples);
  out.metrics_seconds = BestOf(out.samples);
  out.overhead_fraction = MedianOf(ratios) - 1.0;
  return out;
}

// ---------------------------------------------------------------------
// Benchmark 5: ComparePartitions over mapper-side windows.
// ---------------------------------------------------------------------

// The retained all-pairs reference: the CompareAllPartitions loop the ADR
// walk replaced, kept verbatim (with the coordinate ADR test it called)
// so the speedup is always measured against the real baseline.
bool InAdrOfCoords(size_t dim, const uint32_t* p, const uint32_t* q) {
  bool same = true;
  for (size_t k = 0; k < dim; ++k) {
    if (q[k] > p[k]) {
      return false;
    }
    same = same && q[k] == p[k];
  }
  return !same;
}

uint64_t AllPairsComparePartitions(const core::Grid& grid,
                                   core::CellWindowMap* windows,
                                   DominanceCounter* tuple_counter) {
  const size_t d = grid.dim();
  // Decode every partition's coordinates once.
  std::vector<core::CellId> cells;
  cells.reserve(windows->size());
  for (const auto& [cell, window] : *windows) {
    cells.push_back(cell);
  }
  std::vector<uint32_t> coords(cells.size() * d);
  for (size_t i = 0; i < cells.size(); ++i) {
    grid.CoordsOf(cells[i], &coords[i * d]);
  }

  uint64_t partition_comparisons = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    SkylineWindow& target = (*windows)[cells[i]];
    for (size_t j = 0; j < cells.size(); ++j) {
      if (i == j) {
        continue;
      }
      // Algorithm 5, line 2: only partitions in p.ADR can hold dominators.
      if (!InAdrOfCoords(d, &coords[i * d], &coords[j * d])) {
        continue;
      }
      ++partition_comparisons;
      target.RemoveDominatedBy((*windows)[cells[j]], tuple_counter);
    }
  }
  return partition_comparisons;
}

struct CompareResult {
  size_t tuples = 0;
  size_t partitions = 0;
  uint64_t partition_comparisons = 0;  // The walk's: non-empty pairs.
  uint64_t adr_pairs = 0;              // The all-pairs loop's.
  uint64_t tuple_comparisons = 0;
  std::vector<double> walk_samples;
  double walk_seconds = 0.0;
  double all_pairs_seconds = 0.0;
  double speedup = 0.0;
};

CompareResult BenchComparePartitions(double scale, int reps) {
  constexpr size_t kDim = 6;
  constexpr size_t kSplits = 13;
  constexpr uint32_t kPpd = 4;
  CompareResult out;
  out.tuples = EnvScaledTuples(100000, scale);
  const Dataset data =
      data::GenerateIndependent(out.tuples, kDim, /*seed=*/20140324);
  const core::Grid grid = std::move(core::Grid::Create(
                                        kDim, kPpd, Bounds::UnitCube(kDim)))
                              .value();

  // Each split's per-cell BNL windows, as a mapper holds them before
  // ComparePartitions.
  std::vector<core::CellWindowMap> splits(kSplits);
  for (size_t s = 0; s < kSplits; ++s) {
    for (size_t i = s * out.tuples / kSplits;
         i < (s + 1) * out.tuples / kSplits; ++i) {
      const auto id = static_cast<TupleId>(i);
      auto [it, inserted] = splits[s].try_emplace(
          grid.CellOf(data.RowPtr(id)), SkylineWindow(kDim));
      it->second.Insert(data.RowPtr(id), id, nullptr);
    }
    out.partitions += splits[s].size();
  }

  // Times `compare` over fresh copies of every split (the copies are made
  // outside the timed region); returns the last rep's results.
  struct Pass {
    std::vector<core::CellWindowMap> windows;
    uint64_t partition_comparisons = 0;
    uint64_t tuple_comparisons = 0;
  };
  const auto time_passes = [&](auto compare, std::vector<double>* samples) {
    Pass pass;
    for (int r = 0; r < reps; ++r) {
      pass.windows = splits;
      DominanceCounter counter;
      uint64_t partition_comparisons = 0;
      const double start = Now();
      for (core::CellWindowMap& windows : pass.windows) {
        partition_comparisons += compare(grid, &windows, &counter);
      }
      samples->push_back(Now() - start);
      pass.partition_comparisons = partition_comparisons;
      pass.tuple_comparisons = counter.count();
    }
    return pass;
  };
  const Pass walk = time_passes(
      [](const core::Grid& g, core::CellWindowMap* windows,
         DominanceCounter* counter) {
        return core::CompareAllPartitions(g, windows, counter);
      },
      &out.walk_samples);
  std::vector<double> all_pairs_samples;
  const Pass all_pairs =
      time_passes(AllPairsComparePartitions, &all_pairs_samples);

  // The walk skips comparisons with empty windows, so it may count fewer
  // partition comparisons than the loop, but never leaves other rows or
  // tests other tuples.
  if (walk.windows != all_pairs.windows ||
      walk.partition_comparisons > all_pairs.partition_comparisons ||
      walk.tuple_comparisons != all_pairs.tuple_comparisons) {
    std::fprintf(stderr,
                 "compare_partitions: ADR walk and all-pairs loop differ\n");
    std::exit(1);
  }
  out.partition_comparisons = walk.partition_comparisons;
  out.adr_pairs = all_pairs.partition_comparisons;
  out.tuple_comparisons = walk.tuple_comparisons;
  out.walk_seconds = BestOf(out.walk_samples);
  out.all_pairs_seconds = BestOf(all_pairs_samples);
  out.speedup = out.all_pairs_seconds / out.walk_seconds;
  return out;
}

// ---------------------------------------------------------------------
// Benchmark 6: the MR-GPMRS reduce-side filter.
// ---------------------------------------------------------------------

struct GpmrsReduceResult {
  size_t tuples = 0;
  size_t received_tuples = 0;  // Decoded rows the busiest reducer holds.
  size_t group_cells = 0;
  size_t responsible_cells = 0;
  size_t output_tuples = 0;
  uint64_t full_tuple_comparisons = 0;
  uint64_t responsible_tuple_comparisons = 0;
  std::vector<double> responsible_samples;
  double full_seconds = 0.0;
  double responsible_seconds = 0.0;
  double speedup = 0.0;
};

GpmrsReduceResult BenchGpmrsReduce(double scale, int reps) {
  constexpr size_t kDim = 6;
  constexpr size_t kSplits = 13;
  constexpr int kReducers = 13;
  // The PPD the session's default policy picks for this input at scale 1.
  constexpr uint32_t kPpd = 2;
  GpmrsReduceResult out;
  out.tuples = EnvScaledTuples(100000, scale);
  const Dataset data =
      data::GenerateAntiCorrelated(out.tuples, kDim, /*seed=*/20140324);
  const core::Grid grid = std::move(core::Grid::Create(
                                        kDim, kPpd, Bounds::UnitCube(kDim)))
                              .value();
  DynamicBitset bits = core::BuildLocalBitstring(
      grid, data, 0, static_cast<TupleId>(out.tuples));
  core::PruneDominated(grid, &bits);
  const std::vector<core::ReducerGroup> groups = core::AssignGroupsToReducers(
      grid, core::GenerateIndependentGroups(grid, bits), kReducers,
      core::GroupMergeStrategy::kComputationCost);

  // Algorithm 8 per split: BNL windows of the unpruned cells,
  // ComparePartitions, then one LocalSkylineSet per reducer group holding
  // the group's non-empty windows, decoded from its wire bytes as a
  // reducer receives it.
  std::vector<std::vector<core::LocalSkylineSet>> inboxes(groups.size());
  for (size_t s = 0; s < kSplits; ++s) {
    core::CellWindowMap windows;
    for (size_t i = s * out.tuples / kSplits;
         i < (s + 1) * out.tuples / kSplits; ++i) {
      const auto id = static_cast<TupleId>(i);
      const core::CellId cell = grid.CellOf(data.RowPtr(id));
      if (!bits.Test(cell)) {
        continue;
      }
      auto [it, inserted] = windows.try_emplace(cell, SkylineWindow(kDim));
      it->second.Insert(data.RowPtr(id), id, nullptr);
    }
    core::CompareAllPartitions(grid, &windows, nullptr);
    for (size_t g = 0; g < groups.size(); ++g) {
      core::LocalSkylineSet payload;
      for (const core::CellId cell : groups[g].cells) {
        const auto it = windows.find(cell);
        if (it != windows.end() && !it->second.empty()) {
          payload.parts.push_back(core::PartitionSkyline{cell, it->second});
        }
      }
      ByteSink sink;
      Serde<core::LocalSkylineSet>::Write(payload, &sink);
      ByteSource source(sink.data(), sink.size());
      inboxes[g].push_back(Serde<core::LocalSkylineSet>::Read(&source));
    }
  }

  // The busiest reducer: the one receiving the most rows.
  size_t busiest = 0;
  for (size_t g = 0; g < inboxes.size(); ++g) {
    size_t received = 0;
    for (const core::LocalSkylineSet& payload : inboxes[g]) {
      for (const core::PartitionSkyline& part : payload.parts) {
        received += part.window.size();
      }
    }
    if (received > out.received_tuples) {
      out.received_tuples = received;
      busiest = g;
    }
  }
  const std::vector<core::LocalSkylineSet>& inbox = inboxes[busiest];
  const std::vector<core::CellId>& responsible = groups[busiest].responsible;
  out.group_cells = groups[busiest].cells.size();
  out.responsible_cells = responsible.size();

  // Times the reducer's filter with `targets` (null: every received cell)
  // and returns the sorted ids of its responsible cells.
  const auto time_filter = [&](const std::vector<core::CellId>* targets,
                               std::vector<double>* samples,
                               uint64_t* tuple_comparisons) {
    std::vector<TupleId> ids;
    for (int r = 0; r < reps; ++r) {
      DominanceCounter counter;
      core::CellWindowMap windows;
      const double start = Now();
      for (const core::LocalSkylineSet& payload : inbox) {
        core::MergeParts(payload.parts, kDim, &windows, &counter, targets);
      }
      core::CompareAllPartitions(grid, &windows, &counter, targets);
      samples->push_back(Now() - start);
      *tuple_comparisons = counter.count();
      ids.clear();
      for (const core::CellId cell : responsible) {
        const auto it = windows.find(cell);
        if (it != windows.end()) {
          ids.insert(ids.end(), it->second.ids().begin(),
                     it->second.ids().end());
        }
      }
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  std::vector<double> full_samples;
  const std::vector<TupleId> full =
      time_filter(nullptr, &full_samples, &out.full_tuple_comparisons);
  const std::vector<TupleId> responsible_only =
      time_filter(&responsible, &out.responsible_samples,
                  &out.responsible_tuple_comparisons);
  if (full != responsible_only) {
    std::fprintf(stderr,
                 "gpmrs_reduce: responsible-only and full-group filters "
                 "differ\n");
    std::exit(1);
  }
  out.output_tuples = full.size();
  out.full_seconds = BestOf(full_samples);
  out.responsible_seconds = BestOf(out.responsible_samples);
  out.speedup = out.full_seconds / out.responsible_seconds;
  return out;
}

// ---------------------------------------------------------------------
// Benchmark 7: CSV input. The string-table loader data::LoadCsv replaced
// (whole file into one string, one std::string per field, then strtod),
// retained verbatim so the speedup is measured against the real baseline.
// ---------------------------------------------------------------------

StatusOr<std::vector<std::vector<std::string>>> ParseCsvText(
    std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) {
      if (begin == text.size()) {
        break;  // No trailing fragment after the last newline.
      }
      end = text.size();
    }
    const std::string line(text.substr(begin, end - begin));
    begin = end + 1;
    if (line.empty() || (line.size() == 1 && line[0] == '\r')) {
      continue;
    }
    rows.push_back(ParseCsvLine(line));
  }
  return rows;
}

StatusOr<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("failed reading " + path);
  }
  return ParseCsvText(buffer.str());
}

StatusOr<Dataset> DatasetFromRows(
    const std::vector<std::vector<std::string>>& rows, bool has_header,
    const std::string& origin) {
  const size_t start = has_header ? 1 : 0;
  if (rows.size() <= start) {
    return Status::InvalidArgument("CSV has no data rows: " + origin);
  }
  const size_t dim = rows[start].size();
  if (dim == 0) {
    return Status::InvalidArgument("CSV has empty rows: " + origin);
  }
  Dataset out(dim);
  out.Reserve(rows.size() - start);
  std::vector<double> row(dim);
  for (size_t i = start; i < rows.size(); ++i) {
    if (rows[i].size() != dim) {
      return Status::InvalidArgument("CSV row width mismatch at line " +
                                     std::to_string(i + 1));
    }
    for (size_t k = 0; k < dim; ++k) {
      const std::string& field = rows[i][k];
      char* end = nullptr;
      row[k] = std::strtod(field.c_str(), &end);
      if (end == field.c_str() || (end != nullptr && *end != '\0')) {
        return Status::InvalidArgument("CSV field is not a number: '" +
                                       field + "' at line " +
                                       std::to_string(i + 1));
      }
    }
    out.Append(row);
  }
  return out;
}

StatusOr<Dataset> StringTableLoadCsv(const std::string& path,
                                     bool has_header) {
  auto rows_or = ReadCsvFile(path);
  if (!rows_or.ok()) {
    return rows_or.status();
  }
  return DatasetFromRows(rows_or.value(), has_header, path);
}

struct CsvLoadResult {
  size_t rows = 0;
  size_t dim = 4;
  uint64_t file_bytes = 0;
  uint64_t value_checksum = 0;  // FNV-1a over the value bits, 53 bits.
  std::vector<double> load_samples;
  double save_seconds = 0.0;
  double load_seconds = 0.0;
  double string_table_load_seconds = 0.0;
  double speedup = 0.0;
};

bool SameBits(const Dataset& a, const Dataset& b) {
  return a.dim() == b.dim() && a.size() == b.size() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(double)) == 0;
}

CsvLoadResult BenchCsvLoad(double scale, int reps) {
  CsvLoadResult out;
  out.rows = EnvScaledTuples(1000000, scale);
  const Dataset data =
      data::GenerateIndependent(out.rows, out.dim, /*seed=*/20140324);
  const std::string path =
      (std::filesystem::temp_directory_path() / "skymr_bench_csv_load.csv")
          .string();
  out.save_seconds = BestOf(RepSeconds(reps, [&] {
    if (const Status s = data::SaveCsv(data, path); !s.ok()) {
      std::fprintf(stderr, "csv_load: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }));
  out.file_bytes = std::filesystem::file_size(path);

  // Loads `path` with `load` once per rep; every load must reproduce the
  // generated values bit for bit.
  const auto time_load = [&](auto&& load, std::vector<double>* samples) {
    for (int r = 0; r < reps; ++r) {
      const double start = Now();
      StatusOr<Dataset> loaded = load(path, false);
      samples->push_back(Now() - start);
      if (!loaded.ok() || !SameBits(*loaded, data)) {
        std::fprintf(stderr, "csv_load: loaders differ from the data\n");
        std::exit(1);
      }
    }
  };
  time_load(data::LoadCsv, &out.load_samples);
  std::vector<double> string_table_samples;
  time_load(StringTableLoadCsv, &string_table_samples);
  std::remove(path.c_str());

  uint64_t hash = 1469598103934665603ULL;
  for (const double v : data.values()) {
    hash = (hash ^ std::bit_cast<uint64_t>(v)) * 1099511628211ULL;
  }
  out.value_checksum = hash & ((uint64_t{1} << 53) - 1);
  out.load_seconds = BestOf(out.load_samples);
  out.string_table_load_seconds = BestOf(string_table_samples);
  out.speedup = out.string_table_load_seconds / out.load_seconds;
  return out;
}

// ---------------------------------------------------------------------
// Benchmarks 8 and 9: the map-side scan of a constrained query. The
// early-exit box test and the per-candidate CellOf loop they replaced are
// retained verbatim so the speedups are measured against the real
// baselines.
// ---------------------------------------------------------------------

bool EarlyExitContains(const Box& box, const double* row, size_t dim) {
  for (size_t k = 0; k < dim; ++k) {
    if (row[k] < box.lo[k] || row[k] > box.hi[k]) {
      return false;
    }
  }
  return true;
}

/// Independent 4-d rows (serve-boxes' shape at 10^6 * scale) and one box
/// drawn as serve-boxes draws them: 0.6 wide, lower corner in [0, 0.4).
struct ScanInput {
  static constexpr size_t kDim = 4;
  Dataset data;
  Box box;
};

ScanInput MakeScanInput(double scale) {
  ScanInput in{data::GenerateIndependent(EnvScaledTuples(1000000, scale),
                                         ScanInput::kDim,
                                         /*seed=*/20140324),
               Box{}};
  in.box.lo = {0.1, 0.35, 0.2, 0.05};
  for (const double lo : in.box.lo) {
    in.box.hi.push_back(lo + 0.6);
  }
  return in;
}

struct ScanResult {
  size_t rows = 0;
  size_t in_box_rows = 0;
  std::vector<double> samples;
  double seconds = 0.0;
  double early_exit_seconds = 0.0;
  double speedup = 0.0;
  double rows_per_s = 0.0;
};

ScanResult BenchConstrainedScan(const ScanInput& in, int reps) {
  ScanResult out;
  out.rows = in.data.size();
  // Counts the rows `contains` keeps, one call per row as a mapper makes.
  const auto time_scan = [&](auto&& contains, std::vector<double>* samples) {
    size_t kept = 0;
    *samples = RepSeconds(reps, [&] {
      size_t count = 0;
      for (size_t i = 0; i < in.data.size(); ++i) {
        count += contains(in.data.RowPtr(static_cast<TupleId>(i))) ? 1 : 0;
      }
      g_sink = kept = count;
    });
    return kept;
  };
  const size_t kept = time_scan(
      [&](const double* row) { return in.box.Contains(row, ScanInput::kDim); },
      &out.samples);
  std::vector<double> early_exit_samples;
  const size_t early_exit_kept = time_scan(
      [&](const double* row) {
        return EarlyExitContains(in.box, row, ScanInput::kDim);
      },
      &early_exit_samples);
  if (kept != early_exit_kept) {
    std::fprintf(stderr, "constrained_scan: box tests keep different rows\n");
    std::exit(1);
  }
  out.in_box_rows = kept;
  out.seconds = BestOf(out.samples);
  out.early_exit_seconds = BestOf(early_exit_samples);
  out.speedup = out.early_exit_seconds / out.seconds;
  out.rows_per_s = static_cast<double>(out.rows) / out.seconds;
  return out;
}

struct SweepResult {
  size_t rows = 0;
  size_t candidates = 0;
  uint64_t occupancy_sum = 0;
  std::vector<double> samples;
  double seconds = 0.0;
  double per_grid_seconds = 0.0;
  double speedup = 0.0;
};

SweepResult BenchBitstringSweep(const ScanInput& in, int reps) {
  SweepResult out;
  std::vector<TupleId> in_scope;
  for (size_t i = 0; i < in.data.size(); ++i) {
    const auto id = static_cast<TupleId>(i);
    if (in.box.Contains(in.data.RowPtr(id), ScanInput::kDim)) {
      in_scope.push_back(id);
    }
  }
  out.rows = in_scope.size();
  // The series the bitstring job sweeps for this box: c is the in-box
  // row count, as the Session estimates it.
  std::vector<core::Grid> grids;
  for (const uint32_t ppd :
       core::CandidatePpds(out.rows, ScanInput::kDim, core::PpdOptions{})) {
    grids.push_back(std::move(core::Grid::Create(ScanInput::kDim, ppd,
                                                 Bounds::UnitCube(
                                                     ScanInput::kDim)))
                        .value());
  }
  out.candidates = grids.size();

  // Times `bin` (which marks one row in every bitstring) over the in-scope
  // rows; returns the last rep's bitstrings.
  const auto time_bins = [&](auto&& bin, std::vector<double>* samples) {
    std::vector<DynamicBitset> bits;
    *samples = RepSeconds(reps, [&] {
      bits.clear();
      for (const core::Grid& grid : grids) {
        bits.emplace_back(grid.num_cells());
      }
      for (const TupleId id : in_scope) {
        bin(in.data.RowPtr(id), &bits);
      }
      g_sink = bits.front().Count();
    });
    return bits;
  };
  core::GridSweep sweep(grids);
  const std::vector<DynamicBitset> swept = time_bins(
      [&](const double* row, std::vector<DynamicBitset>* bits) {
        const std::span<const uint32_t> cells = sweep.Bin(row);
        for (size_t i = 0; i < cells.size(); ++i) {
          (*bits)[i].Set(cells[i]);
        }
      },
      &out.samples);
  std::vector<double> per_grid_samples;
  const std::vector<DynamicBitset> per_grid = time_bins(
      [&](const double* row, std::vector<DynamicBitset>* bits) {
        for (size_t i = 0; i < grids.size(); ++i) {
          (*bits)[i].Set(grids[i].CellOf(row));
        }
      },
      &per_grid_samples);
  if (swept != per_grid) {
    std::fprintf(stderr, "bitstring_sweep: sweep and CellOf differ\n");
    std::exit(1);
  }
  for (const DynamicBitset& bits : swept) {
    out.occupancy_sum += bits.Count();
  }
  out.seconds = BestOf(out.samples);
  out.per_grid_seconds = BestOf(per_grid_samples);
  out.speedup = out.per_grid_seconds / out.seconds;
  return out;
}

int Run(int argc, char** argv) {
  const auto args = tools::Flags::Parse(
      std::vector<std::string>(argv + 1, argv + argc),
      {{"out", tools::FlagKind::kString},
       {"scale", tools::FlagKind::kDouble},
       {"reps", tools::FlagKind::kInt}});
  if (!args.ok()) {
    std::fprintf(stderr,
                 "%s\nusage: bench_hotpath [--out=FILE] [--scale=F] "
                 "[--reps=N]\n",
                 args.status().ToString().c_str());
    return 2;
  }
  const std::string out_path = args->GetString("out", "BENCH_hotpath.json");
  const double scale = args->GetDouble("scale", 1.0);
  const int64_t reps64 = args->GetInt("reps", 3);
  if (scale <= 0.0 || reps64 < 1 || reps64 > INT32_MAX) {
    std::fprintf(stderr, "bad --scale or --reps\n");
    return 2;
  }
  const int reps = static_cast<int>(reps64);

  std::fprintf(stderr, "backend: %s\n", DominanceKernelBackend());
  std::fprintf(stderr, "dominance_kernel...\n");
  const KernelResult kernel = BenchDominanceKernel(scale, reps);
  std::fprintf(stderr, "  %.2fx vs scalar (%.0f Mcmp/s)\n", kernel.speedup,
               kernel.kernel_mcomparisons_per_s);
  std::fprintf(stderr, "window_insert...\n");
  const InsertResult insert = BenchWindowInsert(scale, reps);
  std::fprintf(stderr, "  %.2fx vs scalar (%zu tuples -> %zu skyline)\n",
               insert.speedup, insert.tuples, insert.skyline_size);
  std::fprintf(stderr, "shuffle_roundtrip...\n");
  const ShuffleResult shuffle = BenchShuffleRoundTrip(scale, reps);
  std::fprintf(stderr, "  %.0f records/s, %.1f MB/s\n",
               shuffle.records_per_s, shuffle.mb_per_s);
  std::fprintf(stderr, "metrics_overhead...\n");
  const MetricsOverheadResult metrics = BenchMetricsOverhead(scale, reps);
  std::fprintf(stderr, "  %+.2f%% vs metrics-off\n",
               metrics.overhead_fraction * 100.0);

  std::fprintf(stderr, "compare_partitions...\n");
  const CompareResult compare = BenchComparePartitions(scale, reps);
  std::fprintf(stderr,
               "  %.2fx vs all-pairs (%zu partitions, %llu of %llu ADR "
               "pairs compared)\n",
               compare.speedup, compare.partitions,
               static_cast<unsigned long long>(compare.partition_comparisons),
               static_cast<unsigned long long>(compare.adr_pairs));

  std::fprintf(stderr, "gpmrs_reduce...\n");
  const GpmrsReduceResult reduce = BenchGpmrsReduce(scale, reps);
  std::fprintf(stderr,
               "  %.2fx vs full group (%zu of %zu cells, %llu vs %llu "
               "tuple tests)\n",
               reduce.speedup, reduce.responsible_cells, reduce.group_cells,
               static_cast<unsigned long long>(
                   reduce.responsible_tuple_comparisons),
               static_cast<unsigned long long>(reduce.full_tuple_comparisons));

  std::fprintf(stderr, "csv_load...\n");
  const CsvLoadResult csv = BenchCsvLoad(scale, reps);
  std::fprintf(stderr,
               "  %.2fx vs string table (%zu rows, %.1f MB, save %.3f s)\n",
               csv.speedup, csv.rows,
               static_cast<double>(csv.file_bytes) / 1e6, csv.save_seconds);

  const ScanInput scan_input = MakeScanInput(scale);
  std::fprintf(stderr, "constrained_scan...\n");
  const ScanResult scan = BenchConstrainedScan(scan_input, reps);
  std::fprintf(stderr, "  %.2fx vs early exit (%zu of %zu rows in the box)\n",
               scan.speedup, scan.in_box_rows, scan.rows);
  std::fprintf(stderr, "bitstring_sweep...\n");
  const SweepResult sweep = BenchBitstringSweep(scan_input, reps);
  std::fprintf(stderr, "  %.2fx vs per-grid CellOf (%zu rows, %zu grids)\n",
               sweep.speedup, sweep.rows, sweep.candidates);

  obs::BenchArtifact artifact("bench_hotpath");
  artifact.environment().reps = reps;

  {
    obs::BenchRow row;
    row.name = "dominance_kernel";
    row.wall = obs::WallStats::FromSamples(kernel.kernel_samples);
    row.metrics["scale"] = scale;
    row.metrics["kernel_seconds"] = kernel.kernel_seconds;
    row.metrics["scalar_seconds"] = kernel.scalar_seconds;
    row.metrics["kernel_mcomparisons_per_s"] =
        kernel.kernel_mcomparisons_per_s;
    row.metrics["speedup_vs_scalar"] = kernel.speedup;
    row.deterministic["rows"] = static_cast<int64_t>(kernel.rows);
    row.deterministic["candidates"] =
        static_cast<int64_t>(kernel.candidates);
    row.deterministic["dominator_index_sum"] =
        static_cast<int64_t>(kernel.dominator_index_sum);
    artifact.AddRow(std::move(row));
  }
  {
    obs::BenchRow row;
    row.name = "window_insert";
    row.wall = obs::WallStats::FromSamples(insert.kernel_samples);
    row.metrics["scale"] = scale;
    row.metrics["kernel_seconds"] = insert.kernel_seconds;
    row.metrics["scalar_seconds"] = insert.scalar_seconds;
    row.metrics["kernel_tuples_per_s"] = insert.kernel_tuples_per_s;
    row.metrics["speedup_vs_scalar"] = insert.speedup;
    row.deterministic["tuples"] = static_cast<int64_t>(insert.tuples);
    row.deterministic["dim"] = static_cast<int64_t>(insert.dim);
    row.deterministic["skyline_size"] =
        static_cast<int64_t>(insert.skyline_size);
    artifact.AddRow(std::move(row));
  }
  {
    obs::BenchRow row;
    row.name = "shuffle_roundtrip";
    row.wall = obs::WallStats::FromSamples(shuffle.samples);
    row.metrics["scale"] = scale;
    row.metrics["seconds"] = shuffle.seconds;
    row.metrics["records_per_s"] = shuffle.records_per_s;
    row.metrics["mb_per_s"] = shuffle.mb_per_s;
    row.deterministic["records"] = static_cast<int64_t>(shuffle.records);
    row.deterministic["shuffle_bytes"] =
        static_cast<int64_t>(shuffle.shuffle_bytes);
    artifact.AddRow(std::move(row));
  }
  {
    obs::BenchRow row;
    row.name = "metrics_overhead";
    row.wall = obs::WallStats::FromSamples(metrics.samples);
    row.metrics["scale"] = scale;
    row.metrics["plain_seconds"] = metrics.plain_seconds;
    row.metrics["metrics_seconds"] = metrics.metrics_seconds;
    row.metrics["overhead_fraction"] = metrics.overhead_fraction;
    row.deterministic["records"] = static_cast<int64_t>(metrics.records);
    artifact.AddRow(std::move(row));
  }
  {
    obs::BenchRow row;
    row.name = "compare_partitions";
    row.wall = obs::WallStats::FromSamples(compare.walk_samples);
    row.metrics["scale"] = scale;
    row.metrics["walk_seconds"] = compare.walk_seconds;
    row.metrics["all_pairs_seconds"] = compare.all_pairs_seconds;
    row.metrics["speedup_vs_all_pairs"] = compare.speedup;
    row.deterministic["tuples"] = static_cast<int64_t>(compare.tuples);
    row.deterministic["partitions"] =
        static_cast<int64_t>(compare.partitions);
    row.deterministic["partition_comparisons"] =
        static_cast<int64_t>(compare.partition_comparisons);
    row.deterministic["adr_pairs"] = static_cast<int64_t>(compare.adr_pairs);
    row.deterministic["tuple_comparisons"] =
        static_cast<int64_t>(compare.tuple_comparisons);
    artifact.AddRow(std::move(row));
  }
  {
    obs::BenchRow row;
    row.name = "gpmrs_reduce";
    row.wall = obs::WallStats::FromSamples(reduce.responsible_samples);
    row.metrics["scale"] = scale;
    row.metrics["responsible_seconds"] = reduce.responsible_seconds;
    row.metrics["full_group_seconds"] = reduce.full_seconds;
    row.metrics["speedup_vs_full_group"] = reduce.speedup;
    row.deterministic["tuples"] = static_cast<int64_t>(reduce.tuples);
    row.deterministic["received_tuples"] =
        static_cast<int64_t>(reduce.received_tuples);
    row.deterministic["group_cells"] =
        static_cast<int64_t>(reduce.group_cells);
    row.deterministic["responsible_cells"] =
        static_cast<int64_t>(reduce.responsible_cells);
    row.deterministic["output_tuples"] =
        static_cast<int64_t>(reduce.output_tuples);
    row.deterministic["responsible_tuple_comparisons"] =
        static_cast<int64_t>(reduce.responsible_tuple_comparisons);
    row.deterministic["full_group_tuple_comparisons"] =
        static_cast<int64_t>(reduce.full_tuple_comparisons);
    artifact.AddRow(std::move(row));
  }

  {
    obs::BenchRow row;
    row.name = "csv_load";
    row.wall = obs::WallStats::FromSamples(csv.load_samples);
    row.metrics["scale"] = scale;
    row.metrics["save_seconds"] = csv.save_seconds;
    row.metrics["load_seconds"] = csv.load_seconds;
    row.metrics["string_table_load_seconds"] = csv.string_table_load_seconds;
    row.metrics["speedup_vs_string_table"] = csv.speedup;
    row.deterministic["rows"] = static_cast<int64_t>(csv.rows);
    row.deterministic["dim"] = static_cast<int64_t>(csv.dim);
    row.deterministic["file_bytes"] = static_cast<int64_t>(csv.file_bytes);
    row.deterministic["value_checksum"] =
        static_cast<int64_t>(csv.value_checksum);
    artifact.AddRow(std::move(row));
  }

  {
    obs::BenchRow row;
    row.name = "constrained_scan";
    row.wall = obs::WallStats::FromSamples(scan.samples);
    row.metrics["scale"] = scale;
    row.metrics["seconds"] = scan.seconds;
    row.metrics["early_exit_seconds"] = scan.early_exit_seconds;
    row.metrics["rows_per_s"] = scan.rows_per_s;
    row.metrics["speedup_vs_early_exit"] = scan.speedup;
    row.deterministic["rows"] = static_cast<int64_t>(scan.rows);
    row.deterministic["in_box_rows"] = static_cast<int64_t>(scan.in_box_rows);
    artifact.AddRow(std::move(row));
  }
  {
    obs::BenchRow row;
    row.name = "bitstring_sweep";
    row.wall = obs::WallStats::FromSamples(sweep.samples);
    row.metrics["scale"] = scale;
    row.metrics["sweep_seconds"] = sweep.seconds;
    row.metrics["per_grid_seconds"] = sweep.per_grid_seconds;
    row.metrics["speedup_vs_per_grid"] = sweep.speedup;
    row.deterministic["candidates"] = static_cast<int64_t>(sweep.candidates);
    row.deterministic["rows"] = static_cast<int64_t>(sweep.rows);
    row.deterministic["occupancy_sum"] =
        static_cast<int64_t>(sweep.occupancy_sum);
    artifact.AddRow(std::move(row));
  }

  if (const Status s = artifact.WriteFile(out_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace skymr

int main(int argc, char** argv) { return skymr::Run(argc, argv); }

// bench_kernel_crossover: charts the local skyline kernels — BNL, SFS,
// and the R-tree BBS — against each other across (distribution x
// dimensionality x cardinality), as wall time and as the deterministic
// dominance-work counters, and records which side kAuto picks per cell.
//
//   bench_kernel_crossover [--out=BENCH_kernel_crossover.json]
//                          [--scale=1.0] [--reps=3]
//
// Every cell validates that all kernels return the same skyline id set
// before reporting. The output is a skymr-bench-v1 artifact whose
// deterministic section (comparison units, skymr.bbs.* stats, skyline
// size, kAuto's choice) tools/bench_diff.py hard-gates against
// bench/baselines/BENCH_kernel_crossover.json; wall times only warn.
// This is the artifact behind the kAuto thresholds in
// core::ResolveAutoKernel and DESIGN.md §14's crossover discussion.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/skyline_job_common.h"
#include "src/data/generator.h"
#include "src/local/bbs.h"
#include "src/local/bnl.h"
#include "src/local/sfs.h"
#include "src/local/skyline_window.h"
#include "src/obs/bench_artifact.h"
#include "src/relation/dominance_kernel.h"
#include "tools/flags.h"

namespace skymr {
namespace {

volatile uint64_t g_sink = 0;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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

std::vector<TupleId> SortedIds(const SkylineWindow& window) {
  std::vector<TupleId> ids = window.ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// One kernel's measurement on one cell.
struct KernelRun {
  size_t skyline_size = 0;
  uint64_t comparisons = 0;
  double seconds = 0.0;
  std::vector<double> samples;
  std::vector<TupleId> ids;
};

template <typename Fn>
KernelRun Measure(int reps, Fn&& run) {
  KernelRun out;
  // One counted run for the deterministic section and the parity check;
  // its wall time calibrates an inner repeat count so every sample spans
  // at least a few milliseconds (sub-millisecond cells are otherwise
  // dominated by timer noise).
  const double cal_start = Now();
  DominanceCounter counter;
  const SkylineWindow window = run(&counter);
  const double cal_seconds = Now() - cal_start;
  out.skyline_size = window.size();
  out.comparisons = counter.count();
  out.ids = SortedIds(window);
  const auto iters = static_cast<size_t>(std::min(
      1000.0, std::max(1.0, 0.005 / std::max(cal_seconds, 1e-9))));
  out.samples = RepSeconds(reps, [&] {
    for (size_t i = 0; i < iters; ++i) {
      g_sink = run(nullptr).size();
    }
  });
  for (double& s : out.samples) {
    s /= static_cast<double>(iters);
  }
  out.seconds = BestOf(out.samples);
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
                 "%s\nusage: bench_kernel_crossover [--out=FILE] "
                 "[--scale=F] [--reps=N]\n",
                 args.status().ToString().c_str());
    return 2;
  }
  const std::string out_path =
      args->GetString("out", "BENCH_kernel_crossover.json");
  const double scale = args->GetDouble("scale", 1.0);
  const int64_t reps64 = args->GetInt("reps", 3);
  if (scale <= 0.0 || reps64 < 1 || reps64 > INT32_MAX) {
    std::fprintf(stderr, "bad --scale or --reps\n");
    return 2;
  }
  const int reps = static_cast<int>(reps64);
  std::fprintf(stderr, "backend: %s\n", DominanceKernelBackend());

  obs::BenchArtifact artifact("bench_kernel_crossover");
  artifact.environment().reps = reps;

  const data::Distribution distributions[] = {
      data::Distribution::kIndependent,
      data::Distribution::kCorrelated,
      data::Distribution::kAntiCorrelated,
  };
  const size_t dims[] = {2, 4, 6, 8};
  const size_t cardinalities[] = {2000, 10000};

  BbsScratch scratch;
  for (const data::Distribution dist : distributions) {
    for (const size_t dim : dims) {
      for (const size_t base_n : cardinalities) {
        // SKYMR_SCALE / SKYMR_FULL on top of --scale, like the figure
        // benches.
        const size_t n = tools::BenchScaledCount(base_n, scale, 500);
        data::GeneratorConfig config;
        config.distribution = dist;
        config.cardinality = n;
        config.dim = dim;
        config.seed = 20140324;
        const Dataset data = std::move(data::Generate(config)).value();

        const KernelRun bnl = Measure(reps, [&](DominanceCounter* c) {
          return BnlSkyline(data, c);
        });
        const KernelRun sfs = Measure(reps, [&](DominanceCounter* c) {
          return SfsSkyline(data, c);
        });
        BbsStats stats;
        const KernelRun bbs = Measure(reps, [&](DominanceCounter* c) {
          BbsStats local;
          SkylineWindow window =
              BbsSkyline(data, c, &local, /*constraint=*/nullptr, &scratch);
          if (c != nullptr) {
            stats = local;
          }
          return window;
        });
        const core::LocalAlgorithm chosen = core::ResolveAutoKernel(n, dim);
        const KernelRun auto_run = Measure(reps, [&](DominanceCounter* c) {
          return chosen == core::LocalAlgorithm::kBbs
                     ? BbsSkyline(data, c, nullptr, nullptr, &scratch)
                     : SfsSkyline(data, c);
        });

        if (bnl.ids != sfs.ids || bnl.ids != bbs.ids ||
            bnl.ids != auto_run.ids) {
          std::fprintf(stderr, "kernel_crossover: skyline mismatch at "
                               "%s d=%zu n=%zu\n",
                       data::DistributionName(dist), dim, n);
          return 1;
        }

        std::string name = data::DistributionName(dist);
        std::replace(name.begin(), name.end(), '-', '_');
        name += "_d" + std::to_string(dim) + "_n" + std::to_string(base_n);
        const double worse = std::max(sfs.seconds, bbs.seconds);
        std::fprintf(stderr,
                     "%-28s |S|=%6zu sfs/bbs cmp %.2fx wall %.2fx "
                     "auto=%s\n",
                     name.c_str(), bbs.skyline_size,
                     static_cast<double>(sfs.comparisons) /
                         static_cast<double>(bbs.comparisons),
                     sfs.seconds / bbs.seconds,
                     core::LocalAlgorithmName(chosen));

        obs::BenchRow row;
        row.name = name;
        row.wall = obs::WallStats::FromSamples(bbs.samples);
        row.metrics["scale"] = scale;
        row.metrics["bnl_seconds"] = bnl.seconds;
        row.metrics["sfs_seconds"] = sfs.seconds;
        row.metrics["bbs_seconds"] = bbs.seconds;
        row.metrics["auto_seconds"] = auto_run.seconds;
        row.metrics["sfs_vs_bbs_wall"] = sfs.seconds / bbs.seconds;
        // kAuto's regret against the WORSE kernel; must stay <= ~1.1
        // (it runs one of the two, so only measurement noise moves it).
        row.metrics["auto_loss_vs_worse"] = auto_run.seconds / worse;
        row.deterministic["tuples"] = static_cast<int64_t>(n);
        row.deterministic["dim"] = static_cast<int64_t>(dim);
        row.deterministic["skyline_size"] =
            static_cast<int64_t>(bbs.skyline_size);
        row.deterministic["bnl_comparisons"] =
            static_cast<int64_t>(bnl.comparisons);
        row.deterministic["sfs_comparisons"] =
            static_cast<int64_t>(sfs.comparisons);
        row.deterministic["bbs_comparisons"] =
            static_cast<int64_t>(bbs.comparisons);
        row.deterministic["auto_comparisons"] =
            static_cast<int64_t>(auto_run.comparisons);
        row.deterministic["bbs_nodes_visited"] =
            static_cast<int64_t>(stats.nodes_visited);
        row.deterministic["bbs_entries_pruned"] =
            static_cast<int64_t>(stats.entries_pruned);
        row.deterministic["bbs_heap_peak"] =
            static_cast<int64_t>(stats.heap_peak);
        row.deterministic["auto_chose_bbs"] =
            chosen == core::LocalAlgorithm::kBbs ? 1 : 0;
        artifact.AddRow(std::move(row));
      }
    }
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

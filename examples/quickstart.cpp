// Quickstart: generate a synthetic dataset, compute its skyline with
// MR-GPMRS (the paper's main algorithm), and inspect the result.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/example_quickstart

#include <cstdio>

#include "src/skymr.h"

int main() {
  // 1. A 3-dimensional anti-correlated dataset of 20,000 tuples, the
  //    workload family where skylines are large (paper Section 7.1).
  const skymr::Dataset data =
      skymr::data::GenerateAntiCorrelated(20000, 3, /*seed=*/42);
  std::printf("dataset: %zu tuples, %zu dimensions (anti-correlated)\n",
              data.size(), data.dim());

  // 2. Open a session over the dataset: 13 mappers and 13 reducers,
  //    mirroring the paper's 13-node Hadoop cluster; grid resolution
  //    picked by the default PPD rule, which aims at the tuples per
  //    partition Section 3.3 names as the ideal target.
  skymr::SessionOptions options;
  options.engine.num_map_tasks = 13;
  options.engine.num_reducers = 13;
  auto session = skymr::Session::Open(data, options);
  if (!session.ok()) {
    std::fprintf(stderr, "cannot open session: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }

  // 3. Submit one MR-GPMRS query. It runs the two-job pipeline:
  //    bitstring generation, then the skyline job.
  skymr::QuerySpec query;
  query.algorithm = skymr::Algorithm::kMrGpmrs;
  auto result = (*session)->Submit(query);
  if (!result.ok()) {
    std::fprintf(stderr, "skyline computation failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  // 4. Inspect the outcome.
  std::printf("skyline size: %zu tuples (%.1f%% of the data)\n",
              result->skyline.size(),
              100.0 * static_cast<double>(result->skyline.size()) /
                  static_cast<double>(data.size()));
  std::printf("grid: PPD %u -> %u^%zu cells, %llu non-empty, %llu pruned\n",
              result->ppd, result->ppd, data.dim(),
              static_cast<unsigned long long>(result->nonempty_partitions),
              static_cast<unsigned long long>(result->pruned_partitions));
  std::printf("jobs: %zu (bitstring + skyline)\n", result->jobs.size());
  std::printf("modeled 13-node cluster runtime: %.1f s\n",
              result->modeled_seconds);
  std::printf("local wall time: %.3f s\n", result->wall_seconds);

  std::printf("\nfirst skyline tuples (id: values):\n");
  const size_t show = result->skyline.size() < 5 ? result->skyline.size() : 5;
  for (size_t i = 0; i < show; ++i) {
    std::printf("  %6u: (", result->skyline.IdAt(i));
    for (size_t k = 0; k < data.dim(); ++k) {
      std::printf("%s%.4f", k > 0 ? ", " : "", result->skyline.RowAt(i)[k]);
    }
    std::printf(")\n");
  }

  // 5. Verify against the O(n^2) reference — the result is exact, not
  //    approximate.
  const std::string mismatch =
      skymr::ExplainSkylineMismatch(data, result->SkylineIds());
  std::printf("\nverification against reference skyline: %s\n",
              mismatch.empty() ? "EXACT MATCH" : mismatch.c_str());
  return mismatch.empty() ? 0 : 1;
}

// Cluster tuning: explores the knobs the paper analyzes — grid resolution
// (PPD, Section 3.3), reducer count (Section 7.4), and group-merging
// strategy (Section 5.4.1) — and prints the modeled cluster runtimes so
// an operator can pick a configuration for their workload.

#include <cmath>
#include <cstdio>

#include "src/skymr.h"

namespace {

/// The paper's 13-node setup: 13 mappers, 13 reducers.
skymr::SessionOptions BaseOptions() {
  skymr::SessionOptions options;
  options.engine.num_map_tasks = 13;
  options.engine.num_reducers = 13;
  return options;
}

/// Answers `query` (MR-GPMRS by default) on a fresh session, so every
/// configuration pays for its own bitstring job and the sweeps compare
/// like with like.
skymr::StatusOr<skymr::SkylineResult> RunFresh(
    const skymr::Dataset& data, const skymr::SessionOptions& options,
    const skymr::QuerySpec& query = skymr::QuerySpec{}) {
  auto session = skymr::Session::Open(data, options);
  if (!session.ok()) {
    return session.status();
  }
  return (*session)->Submit(query);
}

}  // namespace

int main() {
  const skymr::Dataset data =
      skymr::data::GenerateAntiCorrelated(30000, 5, 2024);
  std::printf("workload: %zu tuples, %zu-d anti-correlated\n\n", data.size(),
              data.dim());

  // ---- 1. Grid resolution (tuples per partition trade-off) ----
  std::printf("PPD sweep (explicit grid resolutions vs the default "
              "rule):\n");
  std::printf("%6s %10s %12s %14s %16s\n", "ppd", "cells", "nonempty",
              "modeled[s]", "partition cmps");
  for (const uint32_t ppd : {2u, 3u, 4u, 6u, 8u}) {
    skymr::SessionOptions options = BaseOptions();
    options.ppd.explicit_ppd = ppd;
    auto result = RunFresh(data, options);
    if (!result.ok()) {
      std::fprintf(stderr, "ppd %u failed: %s\n", ppd,
                   result.status().ToString().c_str());
      return 1;
    }
    int64_t comparisons = 0;
    for (const auto& job : result->jobs) {
      comparisons +=
          job.counters.Get(skymr::mr::kCounterPartitionComparisons);
    }
    std::printf("%6u %10.0f %12llu %14.1f %16lld\n", ppd,
                std::pow(static_cast<double>(ppd),
                         static_cast<double>(data.dim())),
                static_cast<unsigned long long>(result->nonempty_partitions),
                result->modeled_seconds,
                static_cast<long long>(comparisons));
  }
  {
    auto result = RunFresh(data, BaseOptions());
    if (result.ok()) {
      std::printf("rule %s selected PPD %u, modeled %.1f s\n",
                  result->ppd_rule.c_str(), result->ppd,
                  result->modeled_seconds);
    }
  }

  // ---- 2. Reducer count (the paper's Figure 10 experiment) ----
  std::printf("\nreducer sweep (modeled 13-node cluster):\n");
  std::printf("%10s %14s %12s\n", "reducers", "modeled[s]", "skyline");
  for (const int reducers : {1, 3, 5, 9, 13, 17}) {
    skymr::SessionOptions options = BaseOptions();
    options.engine.num_reducers = reducers;
    skymr::QuerySpec query;
    query.algorithm = reducers == 1 ? skymr::Algorithm::kMrGpsrs
                                    : skymr::Algorithm::kMrGpmrs;
    auto result = RunFresh(data, options, query);
    if (!result.ok()) {
      std::fprintf(stderr, "r=%d failed: %s\n", reducers,
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%10d %14.1f %12zu\n", reducers, result->modeled_seconds,
                result->skyline.size());
  }

  // ---- 3. Group-merging strategy (Section 5.4.1) ----
  std::printf("\ngroup-merging strategies with 4 reducers:\n");
  std::printf("%20s %14s %14s\n", "strategy", "modeled[s]", "shuffle[KB]");
  for (const auto strategy :
       {skymr::core::GroupMergeStrategy::kRoundRobin,
        skymr::core::GroupMergeStrategy::kComputationCost,
        skymr::core::GroupMergeStrategy::kCommunicationCost,
        skymr::core::GroupMergeStrategy::kBalanced}) {
    skymr::SessionOptions options = BaseOptions();
    options.engine.num_reducers = 4;
    skymr::QuerySpec query;
    query.merge = strategy;
    auto result = RunFresh(data, options, query);
    if (!result.ok()) {
      return 1;
    }
    uint64_t shuffle = 0;
    for (const auto& job : result->jobs) {
      shuffle += job.shuffle_bytes;
    }
    std::printf("%20s %14.1f %14.1f\n",
                skymr::core::GroupMergeStrategyName(strategy),
                result->modeled_seconds,
                static_cast<double>(shuffle) / 1024.0);
  }
  return 0;
}

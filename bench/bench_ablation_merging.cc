// Ablation C: group-merging strategies (Section 5.4.1).
//
// The paper reports preliminary tests where computation-cost merging
// "results in more balanced loads among reducers and better overall
// efficiency" than communication-cost merging. This bench reproduces that
// comparison (plus plain round-robin distribution) on anti-correlated
// data with fewer reducers than independent groups, reporting the modeled
// runtime, per-reducer load imbalance, and shuffle traffic.

#include <algorithm>

#include "bench/bench_common.h"

namespace {

constexpr double kScale = 0.01;
constexpr size_t kPaperCard = 2000000;

void Merging(benchmark::State& state) {
  const auto strategy =
      static_cast<skymr::core::GroupMergeStrategy>(state.range(0));
  const auto dim = static_cast<size_t>(state.range(1));
  const auto reducers = static_cast<int>(state.range(2));
  const size_t card = skymr::bench::ScaledCardinality(kPaperCard, kScale);
  const skymr::Dataset& data = skymr::bench::CachedDataset(
      skymr::data::Distribution::kAntiCorrelated, card, dim);
  skymr::QuerySpec query =
      skymr::bench::PaperQuery(skymr::Algorithm::kMrGpmrs);
  query.merge = strategy;
  skymr::bench::RunAndReport(
      state, data, skymr::bench::PaperOptions(reducers), query,
      [](const skymr::SkylineResult& result,
         std::map<std::string, double>* metrics) {
        const auto& reduce_tasks = result.jobs[1].reduce_tasks;
        double max_busy = 0.0;
        double total_busy = 0.0;
        for (const auto& task : reduce_tasks) {
          max_busy = std::max(max_busy, task.busy_seconds);
          total_busy += task.busy_seconds;
        }
        const double mean_busy =
            reduce_tasks.empty()
                ? 0.0
                : total_busy / static_cast<double>(reduce_tasks.size());
        (*metrics)["reduce_imbalance"] =
            mean_busy > 0.0 ? max_busy / mean_busy : 0.0;
      });
}

void RegisterAll() {
  for (const auto strategy :
       {skymr::core::GroupMergeStrategy::kRoundRobin,
        skymr::core::GroupMergeStrategy::kComputationCost,
        skymr::core::GroupMergeStrategy::kCommunicationCost,
        skymr::core::GroupMergeStrategy::kBalanced}) {
    for (const size_t dim : {size_t{4}, size_t{8}}) {
      for (const int reducers : {4, 13}) {
        const std::string name =
            std::string("AblationMerging/") +
            skymr::core::GroupMergeStrategyName(strategy) +
            "/d:" + std::to_string(dim) +
            "/reducers:" + std::to_string(reducers);
        skymr::bench::RegisterRow(name, Merging)
            ->Args({static_cast<long>(strategy), static_cast<long>(dim),
                    reducers})
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  return skymr::bench::BenchMain(argc, argv, "bench_ablation_merging");
}

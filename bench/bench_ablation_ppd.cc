// Ablation B: sensitivity to the grid resolution (PPD), validating the
// Section 3.3 trade-off — too few tuples per partition makes partition
// checks overhead, too many makes the grid too coarse to prune.
//
// Runs MR-GPMRS with explicit PPD values and reports the modeled runtime,
// comparison counts, and shuffle traffic per resolution, plus one row for
// the paper's selection heuristic (both decision rules).

#include "bench/bench_common.h"

namespace {

constexpr double kScale = 0.02;
constexpr size_t kPaperCard = 1000000;
constexpr size_t kDim = 4;

void ExplicitPpd(benchmark::State& state) {
  const auto dist =
      static_cast<skymr::data::Distribution>(state.range(0));
  const auto ppd = static_cast<uint32_t>(state.range(1));
  const size_t card = skymr::bench::ScaledCardinality(kPaperCard, kScale);
  const skymr::Dataset& data =
      skymr::bench::CachedDataset(dist, card, kDim);
  skymr::SessionOptions options = skymr::bench::PaperOptions();
  options.ppd.explicit_ppd = ppd;
  skymr::bench::RunAndReport(
      state, data, options,
      skymr::bench::PaperQuery(skymr::Algorithm::kMrGpmrs),
      [](const skymr::SkylineResult& result,
         std::map<std::string, double>* metrics) {
        int64_t partition_cmps = 0;
        int64_t tuple_cmps = 0;
        for (const auto& job : result.jobs) {
          partition_cmps +=
              job.counters.Get(skymr::mr::kCounterPartitionComparisons);
          tuple_cmps +=
              job.counters.Get(skymr::mr::kCounterTupleComparisons);
        }
        (*metrics)["partition_cmps"] =
            static_cast<double>(partition_cmps);
        (*metrics)["tuple_cmps"] = static_cast<double>(tuple_cmps);
        (*metrics)["nonempty"] =
            static_cast<double>(result.nonempty_partitions);
      });
}

void HeuristicPpd(benchmark::State& state) {
  const auto dist =
      static_cast<skymr::data::Distribution>(state.range(0));
  const auto strategy =
      static_cast<skymr::core::PpdStrategy>(state.range(1));
  const size_t card = skymr::bench::ScaledCardinality(kPaperCard, kScale);
  const skymr::Dataset& data =
      skymr::bench::CachedDataset(dist, card, kDim);
  skymr::SessionOptions options = skymr::bench::PaperOptions();
  options.ppd.strategy = strategy;
  skymr::bench::RunAndReport(
      state, data, options,
      skymr::bench::PaperQuery(skymr::Algorithm::kMrGpmrs));
}

void RegisterAll() {
  for (const auto dist : {skymr::data::Distribution::kIndependent,
                          skymr::data::Distribution::kAntiCorrelated}) {
    for (const uint32_t ppd : {2u, 3u, 4u, 6u, 8u, 12u}) {
      const std::string name =
          std::string("AblationPpd/") +
          skymr::data::DistributionName(dist) +
          "/ppd:" + std::to_string(ppd);
      skymr::bench::RegisterRow(name, ExplicitPpd)
          ->Args({static_cast<long>(dist), static_cast<long>(ppd)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
    for (const auto strategy : {skymr::core::PpdStrategy::kPaperLiteral,
                                skymr::core::PpdStrategy::kTargetTpp}) {
      const std::string name =
          std::string("AblationPpd/") +
          skymr::data::DistributionName(dist) + "/heuristic:" +
          skymr::core::PpdStrategyName(strategy);
      skymr::bench::RegisterRow(name, HeuristicPpd)
          ->Args({static_cast<long>(dist), static_cast<long>(strategy)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  return skymr::bench::BenchMain(argc, argv, "bench_ablation_ppd");
}

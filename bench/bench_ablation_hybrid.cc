// Ablation F: does the hybrid switch (Section 8 future work) pick the
// right algorithm? For each distribution x dimensionality cell, run
// MR-GPSRS, MR-GPMRS, and the hybrid; the hybrid should track the better
// of the two fixed choices (its cost is one driver-side sample pass).
//
// Reported per run: modeled compute seconds, the algorithm the hybrid
// resolved to (0 = GPSRS, 1 = GPMRS), and the sampled skyline fraction
// that drove the decision.

#include "bench/bench_common.h"

namespace {

constexpr double kScale = 0.02;
constexpr size_t kPaperCard = 1000000;

void Hybrid(benchmark::State& state) {
  const auto dist =
      static_cast<skymr::data::Distribution>(state.range(0));
  const auto dim = static_cast<size_t>(state.range(1));
  const auto algorithm = static_cast<skymr::Algorithm>(state.range(2));
  const size_t card = skymr::bench::ScaledCardinality(kPaperCard, kScale);
  const skymr::Dataset& data =
      skymr::bench::CachedDataset(dist, card, dim);
  skymr::bench::RunAndReport(
      state, data, skymr::bench::PaperOptions(),
      skymr::bench::PaperQuery(algorithm),
      [algorithm](const skymr::SkylineResult& result,
                  std::map<std::string, double>* metrics) {
        if (algorithm == skymr::Algorithm::kHybrid) {
          (*metrics)["resolved_gpmrs"] =
              result.algorithm_used == skymr::Algorithm::kMrGpmrs ? 1.0
                                                                  : 0.0;
          (*metrics)["sampled_fraction"] =
              result.hybrid_decision.sampled_skyline_fraction;
        }
      });
}

void RegisterAll() {
  for (const auto dist : {skymr::data::Distribution::kIndependent,
                          skymr::data::Distribution::kAntiCorrelated,
                          skymr::data::Distribution::kCorrelated}) {
    for (const size_t dim : {size_t{3}, size_t{6}, size_t{9}}) {
      for (const skymr::Algorithm algorithm :
           {skymr::Algorithm::kMrGpsrs, skymr::Algorithm::kMrGpmrs,
            skymr::Algorithm::kHybrid}) {
        const std::string name =
            std::string("AblationHybrid/") +
            skymr::data::DistributionName(dist) +
            "/d:" + std::to_string(dim) + "/" +
            skymr::AlgorithmName(algorithm);
        skymr::bench::RegisterRow(name, Hybrid)
            ->Args({static_cast<long>(dist), static_cast<long>(dim),
                    static_cast<long>(algorithm)})
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  return skymr::bench::BenchMain(argc, argv, "bench_ablation_hybrid");
}

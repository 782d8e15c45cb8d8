// Figure 7: effect of dimensionality on independent data.
//
// Paper setup: independent distribution, cardinalities 1x10^5 and 2x10^6,
// dimensionality 2..10, algorithms MR-GPSRS, MR-GPMRS, MR-BNL, MR-Angle.
// Expected shape (Section 7.2): MR-GPSRS best overall; MR-GPMRS slightly
// worse at low dimensionality (multi-reducer overhead does not pay off on
// small skylines) but steady as d grows; MR-BNL and MR-Angle deteriorate
// sharply for d >= 7.
//
// Default scale: 5% of the paper's cardinalities (see bench_common.h).

#include "bench/bench_common.h"

namespace {

constexpr double kScale = 0.05;
constexpr size_t kLowCard = 100000;    // Paper: 1x10^5.
constexpr size_t kHighCard = 2000000;  // Paper: 2x10^6.

void Fig7(benchmark::State& state) {
  const auto algorithm = static_cast<skymr::Algorithm>(state.range(0));
  const auto dim = static_cast<size_t>(state.range(1));
  const auto paper_card = static_cast<size_t>(state.range(2));
  const size_t card = skymr::bench::ScaledCardinality(paper_card, kScale);
  const skymr::Dataset& data = skymr::bench::CachedDataset(
      skymr::data::Distribution::kIndependent, card, dim);
  state.counters["card"] = static_cast<double>(card);
  skymr::bench::RunAndReport(state, data, skymr::bench::PaperOptions(),
                             skymr::bench::PaperQuery(algorithm));
}

void RegisterAll() {
  for (const skymr::Algorithm algorithm :
       {skymr::Algorithm::kMrGpsrs, skymr::Algorithm::kMrGpmrs,
        skymr::Algorithm::kMrBnl, skymr::Algorithm::kMrAngle}) {
    for (const size_t paper_card : {kLowCard, kHighCard}) {
      for (size_t dim = 2; dim <= 10; ++dim) {
        const std::string name =
            std::string("Fig7/") + skymr::AlgorithmName(algorithm) +
            "/card:" + std::to_string(paper_card) +
            "/d:" + std::to_string(dim);
        skymr::bench::RegisterRow(name, Fig7)
            ->Args({static_cast<long>(algorithm), static_cast<long>(dim),
                    static_cast<long>(paper_card)})
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  return skymr::bench::BenchMain(argc, argv, "bench_fig7_dim_independent");
}

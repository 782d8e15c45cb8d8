// Figure 9: effect of cardinality.
//
// Paper setup: 3-d and 8-d datasets of both distributions, cardinality
// 1x10^5 .. 3x10^6. Expected shape (Section 7.3): on 3-d independent
// data MR-GPMRS is slowest (small skylines, parallel-reduce overhead)
// while MR-GPSRS leads; on 8-d data the grid algorithms dominate both
// baselines; on 8-d anti-correlated data MR-GPSRS degrades with
// cardinality and the paper drops it at the highest cardinalities, while
// MR-GPMRS scales.
//
// Default scale: 2.5% of the paper's cardinalities.

#include "bench/bench_common.h"

namespace {

constexpr double kScale = 0.025;
const size_t kPaperCards[] = {100000, 500000, 1000000, 2000000, 3000000};

void Fig9(benchmark::State& state) {
  const auto algorithm = static_cast<skymr::Algorithm>(state.range(0));
  const auto dim = static_cast<size_t>(state.range(1));
  const auto paper_card = static_cast<size_t>(state.range(2));
  const auto dist =
      static_cast<skymr::data::Distribution>(state.range(3));
  const size_t card = skymr::bench::ScaledCardinality(paper_card, kScale);
  const skymr::Dataset& data =
      skymr::bench::CachedDataset(dist, card, dim);
  state.counters["card"] = static_cast<double>(card);
  skymr::bench::RunAndReport(state, data, skymr::bench::PaperOptions(),
                             skymr::bench::PaperQuery(algorithm));
}

bool IncludedInPaper(skymr::Algorithm algorithm, size_t dim,
                     skymr::data::Distribution dist, size_t paper_card) {
  // Figure 9(d): MR-GPSRS "fails to terminate in a reasonable period of
  // time for the highest cardinalities" on 8-d anti-correlated data.
  if (algorithm == skymr::Algorithm::kMrGpsrs && dim == 8 &&
      dist == skymr::data::Distribution::kAntiCorrelated &&
      paper_card >= 2000000) {
    return false;
  }
  // Baselines blow up on 8-d anti-correlated data (cf. Figure 8).
  if ((algorithm == skymr::Algorithm::kMrBnl ||
       algorithm == skymr::Algorithm::kMrAngle) &&
      dim == 8 && dist == skymr::data::Distribution::kAntiCorrelated &&
      paper_card >= 1000000) {
    return false;
  }
  return true;
}

void RegisterAll() {
  for (const auto dist : {skymr::data::Distribution::kIndependent,
                          skymr::data::Distribution::kAntiCorrelated}) {
    for (const size_t dim : {size_t{3}, size_t{8}}) {
      for (const skymr::Algorithm algorithm :
           {skymr::Algorithm::kMrGpsrs, skymr::Algorithm::kMrGpmrs,
            skymr::Algorithm::kMrBnl, skymr::Algorithm::kMrAngle}) {
        for (const size_t paper_card : kPaperCards) {
          if (!IncludedInPaper(algorithm, dim, dist, paper_card)) {
            continue;
          }
          const std::string name =
              std::string("Fig9/") + skymr::data::DistributionName(dist) +
              "/d:" + std::to_string(dim) + "/" +
              skymr::AlgorithmName(algorithm) +
              "/card:" + std::to_string(paper_card);
          skymr::bench::RegisterRow(name, Fig9)
              ->Args({static_cast<long>(algorithm),
                      static_cast<long>(dim),
                      static_cast<long>(paper_card),
                      static_cast<long>(dist)})
              ->Iterations(1)
              ->Unit(benchmark::kMillisecond);
        }
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  return skymr::bench::BenchMain(argc, argv, "bench_fig9_cardinality");
}

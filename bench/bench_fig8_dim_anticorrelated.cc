// Figure 8: effect of dimensionality on anti-correlated data.
//
// Paper setup: anti-correlated distribution, cardinalities 1x10^5 and
// 2x10^6, dimensionality 2..10. Expected shape (Section 7.2): MR-GPMRS
// best almost everywhere (large skyline fractions reward reducer
// parallelism); MR-GPSRS competitive only below d = 5 and degrading
// steeply at high d; MR-BNL and MR-Angle "cannot terminate in a
// reasonable period of time for higher dimensionalities" — the paper
// omits them from panels (b) and (d), and this bench mirrors those
// omissions (baselines stop at d = 6; MR-GPSRS stops at d = 7 for the
// high cardinality).
//
// Default scale: 2.5% of the paper's cardinalities — anti-correlated
// skylines are huge and the baselines' reduce phases are quadratic in
// them.

#include "bench/bench_common.h"

namespace {

constexpr double kScale = 0.025;
constexpr size_t kLowCard = 100000;
constexpr size_t kHighCard = 2000000;

void Fig8(benchmark::State& state) {
  const auto algorithm = static_cast<skymr::Algorithm>(state.range(0));
  const auto dim = static_cast<size_t>(state.range(1));
  const auto paper_card = static_cast<size_t>(state.range(2));
  const size_t card = skymr::bench::ScaledCardinality(paper_card, kScale);
  const skymr::Dataset& data = skymr::bench::CachedDataset(
      skymr::data::Distribution::kAntiCorrelated, card, dim);
  state.counters["card"] = static_cast<double>(card);
  skymr::bench::RunAndReport(state, data, skymr::bench::PaperOptions(),
                             skymr::bench::PaperQuery(algorithm));
}

bool IncludedInPaper(skymr::Algorithm algorithm, size_t dim,
                     size_t paper_card) {
  switch (algorithm) {
    case skymr::Algorithm::kMrBnl:
    case skymr::Algorithm::kMrAngle:
      // Excluded from Figures 8(b) and 8(d): d in [7..10].
      return dim <= 6;
    case skymr::Algorithm::kMrGpsrs:
      // "MR-GPSRS does not terminate in a reasonable period of time for
      // the highest dimensionality from 8 to 10" at 2x10^6.
      return paper_card < 2000000 || dim <= 7;
    default:
      return true;
  }
}

void RegisterAll() {
  for (const skymr::Algorithm algorithm :
       {skymr::Algorithm::kMrGpsrs, skymr::Algorithm::kMrGpmrs,
        skymr::Algorithm::kMrBnl, skymr::Algorithm::kMrAngle}) {
    for (const size_t paper_card : {kLowCard, kHighCard}) {
      for (size_t dim = 2; dim <= 10; ++dim) {
        if (!IncludedInPaper(algorithm, dim, paper_card)) {
          continue;
        }
        const std::string name =
            std::string("Fig8/") + skymr::AlgorithmName(algorithm) +
            "/card:" + std::to_string(paper_card) +
            "/d:" + std::to_string(dim);
        skymr::bench::RegisterRow(name, Fig8)
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
  return skymr::bench::BenchMain(argc, argv, "bench_fig8_dim_anticorrelated");
}

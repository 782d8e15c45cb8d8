// Figure 10: effect of the number of reducers in MR-GPMRS.
//
// Paper setup: 8-dimensional data, cardinality 2x10^6, both
// distributions, reducer count 1..17 (1 = MR-GPSRS; Hadoop multi-slot
// nodes allow 17 reducers on 13 nodes). Expected shape (Section 7.4): on
// independent data more reducers do not help (even a small increase from
// 1 to 5 due to overhead); on anti-correlated data the largest
// improvement is from 1 to 5 reducers, with moderate further gains up to
// 17.
//
// Default scale: 5% of the paper's cardinality.

#include "bench/bench_common.h"

namespace {

constexpr double kScale = 0.05;
constexpr size_t kPaperCard = 2000000;
constexpr size_t kDim = 8;

void Fig10(benchmark::State& state) {
  const auto dist =
      static_cast<skymr::data::Distribution>(state.range(0));
  const auto reducers = static_cast<int>(state.range(1));
  const size_t card = skymr::bench::ScaledCardinality(kPaperCard, kScale);
  const skymr::Dataset& data =
      skymr::bench::CachedDataset(dist, card, kDim);
  state.counters["card"] = static_cast<double>(card);
  // Reducer count 1 runs MR-GPSRS, as in the paper's figure.
  const skymr::Algorithm algorithm = reducers == 1
                                         ? skymr::Algorithm::kMrGpsrs
                                         : skymr::Algorithm::kMrGpmrs;
  skymr::SessionOptions options = skymr::bench::PaperOptions(reducers);
  // Pin the grid resolution to what the Section 3.3 heuristic selects at
  // the paper's full cardinality. At scaled-down cardinality the sparser
  // occupancy makes the heuristic pick PPD 2, which caps the independent
  // group count and hides the reducer-scaling effect this figure
  // measures.
  options.ppd.explicit_ppd = 3;
  skymr::bench::RunAndReport(state, data, options,
                             skymr::bench::PaperQuery(algorithm));
}

void RegisterAll() {
  for (const auto dist : {skymr::data::Distribution::kIndependent,
                          skymr::data::Distribution::kAntiCorrelated}) {
    for (const int reducers : {1, 3, 5, 7, 9, 11, 13, 15, 17}) {
      const std::string name =
          std::string("Fig10/") + skymr::data::DistributionName(dist) +
          "/reducers:" + std::to_string(reducers);
      skymr::bench::RegisterRow(name, Fig10)
          ->Args({static_cast<long>(dist), reducers})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  return skymr::bench::BenchMain(argc, argv, "bench_fig10_reducers");
}

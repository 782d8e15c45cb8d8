// Figure 11: evaluation of the Section 6 cost estimation.
//
// Paper setup: MR-GPMRS on datasets of cardinality 1x10^6 (both
// distributions), dimensionality 2..10; for each run, record the highest
// per-mapper and per-reducer partition-wise comparison counts and compare
// them with the Equation 8 / Equation 9 estimates at the same grid
// resolution. Expected shape (Section 7.5): estimates closely track
// mapper costs on independent data, are looser for anti-correlated data
// and for reducers, and upper-bound the measured cost in every case.
//
// Counters reported per run:
//   measured_mapper / estimate_mapper   (Figure 11a)
//   measured_reducer / estimate_reducer (Figure 11b)
//   bound_ok = 1 when both estimates upper-bound the measurements.
//
// Default scale: 2% of the paper's cardinality.

#include "bench/bench_common.h"
#include "src/cost/cost_model.h"

namespace {

constexpr double kScale = 0.02;
constexpr size_t kPaperCard = 1000000;

void Fig11(benchmark::State& state) {
  const auto dist =
      static_cast<skymr::data::Distribution>(state.range(0));
  const auto dim = static_cast<size_t>(state.range(1));
  const size_t card = skymr::bench::ScaledCardinality(kPaperCard, kScale);
  const skymr::Dataset& data =
      skymr::bench::CachedDataset(dist, card, dim);
  state.counters["card"] = static_cast<double>(card);

  skymr::bench::RunAndReport(
      state, data, skymr::bench::PaperOptions(),
      skymr::bench::PaperQuery(skymr::Algorithm::kMrGpmrs),
      [dim](const skymr::SkylineResult& result,
            std::map<std::string, double>* metrics) {
        const auto& skyline_job = result.jobs[1];
        const double measured_mapper =
            static_cast<double>(skyline_job.MaxMapCounter(
                skymr::mr::kCounterPartitionComparisons));
        const double measured_reducer =
            static_cast<double>(skyline_job.MaxReduceCounter(
                skymr::mr::kCounterPartitionComparisons));
        const double estimate_mapper =
            skymr::cost::MapperCost(result.ppd, dim);
        const double estimate_reducer =
            skymr::cost::ReducerCost(result.ppd, dim);
        (*metrics)["measured_mapper"] = measured_mapper;
        (*metrics)["estimate_mapper"] = estimate_mapper;
        (*metrics)["measured_reducer"] = measured_reducer;
        (*metrics)["estimate_reducer"] = estimate_reducer;
        (*metrics)["bound_ok"] =
            measured_mapper <= estimate_mapper &&
                    measured_reducer <= estimate_reducer
                ? 1.0
                : 0.0;
      });
}

void RegisterAll() {
  for (const auto dist : {skymr::data::Distribution::kIndependent,
                          skymr::data::Distribution::kAntiCorrelated}) {
    for (size_t dim = 2; dim <= 10; ++dim) {
      const std::string name =
          std::string("Fig11/") + skymr::data::DistributionName(dist) +
          "/d:" + std::to_string(dim);
      skymr::bench::RegisterRow(name, Fig11)
          ->Args({static_cast<long>(dist), static_cast<long>(dim)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  return skymr::bench::BenchMain(argc, argv, "bench_fig11_cost_model");
}

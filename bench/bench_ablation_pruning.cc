// Ablation A: what does the bitstring's dominated-partition pruning
// (Equation 1 -> Equation 2) buy?
//
// The paper argues its bitstring enables "early and much more aggressive
// pruning of unpromising data partitions" than MR-BNL's partition codes
// (Section 2.2). This ablation runs MR-GPSRS with the Equation 2
// bitstring against an all-ones bitstring of the same grid (pruning
// disabled) and reports tuples dropped at the mappers, shuffle traffic,
// and tuple-dominance work saved.
//
// It also compares the two Equation 2 implementations (Algorithm 2
// literal DR walk vs the prefix-OR dynamic program) on bitstring-job
// runtime.

#include <numeric>

#include "bench/bench_common.h"
#include "src/core/bitstring_job.h"
#include "src/core/gpsrs.h"
#include "src/core/partition_bitstring.h"

namespace {

constexpr double kScale = 0.02;
constexpr size_t kPaperCard = 1000000;

void PruningOnOff(benchmark::State& state) {
  const auto dist =
      static_cast<skymr::data::Distribution>(state.range(0));
  const auto dim = static_cast<size_t>(state.range(1));
  const bool prune = state.range(2) != 0;
  const size_t card = skymr::bench::ScaledCardinality(kPaperCard, kScale);
  const skymr::Dataset& dataset =
      skymr::bench::CachedDataset(dist, card, dim);

  for (auto _ : state) {
    // Build the grid + bitstring once per run, as the runner would.
    skymr::Stopwatch watch;
    const skymr::Bounds bounds = skymr::Bounds::UnitCube(dim);
    skymr::core::PpdOptions ppd_options;
    // Section 3.3's rule as printed, as bench::PaperOptions pins it.
    ppd_options.strategy = skymr::core::PpdStrategy::kPaperLiteral;
    const auto candidates =
        skymr::core::CandidatePpds(card, dim, ppd_options);
    auto shared = std::make_shared<const skymr::Dataset>(dataset);
    skymr::core::BitstringJobConfig config;
    config.bounds = bounds;
    config.candidates = candidates;
    config.ppd = ppd_options;
    config.cardinality = card;
    skymr::mr::EngineOptions engine;
    engine.num_map_tasks = 13;
    auto bitstring = skymr::core::RunBitstringJob(shared, config, engine);
    if (!bitstring.ok()) {
      state.SkipWithError(bitstring.status().ToString().c_str());
      return;
    }
    auto grid = skymr::core::Grid::Create(dim, bitstring->result.ppd,
                                          bounds);
    skymr::DynamicBitset bits = bitstring->result.bits;
    if (!prune) {
      bits.Fill();  // Disable both empty-cell and dominance pruning.
    }
    auto run = skymr::core::RunGpsrsJob(shared, grid.value(), bits, engine);
    if (!run.ok()) {
      state.SkipWithError(run.status().ToString().c_str());
      return;
    }
    state.counters["ppd"] = bitstring->result.ppd;
    state.counters["tuples_pruned"] = static_cast<double>(
        run->metrics.counters.Get(skymr::mr::kCounterTuplesPruned));
    state.counters["shuffleKB"] =
        static_cast<double>(run->metrics.shuffle_bytes) / 1024.0;
    state.counters["tuple_cmps"] = static_cast<double>(
        run->metrics.counters.Get(skymr::mr::kCounterTupleComparisons));
    state.counters["skyline"] = static_cast<double>(run->skyline.size());

    // This bench drives the jobs directly (no SkylineResult), so collect
    // its artifact row by hand.
    skymr::obs::BenchRow row;
    row.name = skymr::bench::CurrentRowName();
    row.wall = skymr::obs::WallStats::FromSamples({watch.ElapsedSeconds()});
    row.metrics["shuffle_kb"] =
        static_cast<double>(run->metrics.shuffle_bytes) / 1024.0;
    row.deterministic["input_tuples"] = static_cast<int64_t>(card);
    row.deterministic["ppd"] =
        static_cast<int64_t>(bitstring->result.ppd);
    row.deterministic["tuples_pruned"] =
        run->metrics.counters.Get(skymr::mr::kCounterTuplesPruned);
    row.deterministic["tuple_comparisons"] =
        run->metrics.counters.Get(skymr::mr::kCounterTupleComparisons);
    row.deterministic["shuffle_bytes"] =
        static_cast<int64_t>(run->metrics.shuffle_bytes);
    row.deterministic["skyline_size"] =
        static_cast<int64_t>(run->skyline.size());
    skymr::bench::CollectedRows().push_back(std::move(row));
  }
}

void PruneModeRuntime(benchmark::State& state) {
  const auto mode = static_cast<skymr::core::PruneMode>(state.range(0));
  const auto dim = static_cast<size_t>(state.range(1));
  const size_t card = skymr::bench::ScaledCardinality(kPaperCard, kScale);
  const skymr::Dataset& dataset = skymr::bench::CachedDataset(
      skymr::data::Distribution::kIndependent, card, dim);
  const skymr::Bounds bounds = skymr::Bounds::UnitCube(dim);
  skymr::core::PpdOptions ppd_options;
  const auto candidates =
      skymr::core::CandidatePpds(card, dim, ppd_options);
  const uint32_t ppd = candidates.back();
  auto grid = skymr::core::Grid::Create(dim, ppd, bounds);
  const skymr::DynamicBitset base = skymr::core::BuildLocalBitstring(
      grid.value(), dataset, 0, static_cast<skymr::TupleId>(dataset.size()));
  uint64_t pruned = 0;
  std::vector<double> samples;
  for (auto _ : state) {
    skymr::Stopwatch watch;
    skymr::DynamicBitset bits = base;
    pruned = skymr::core::PruneDominated(grid.value(), &bits, mode);
    benchmark::DoNotOptimize(bits.Count());
    samples.push_back(watch.ElapsedSeconds());
  }
  state.counters["ppd"] = ppd;
  state.counters["pruned"] = static_cast<double>(pruned);

  skymr::obs::BenchRow row;
  row.name = skymr::bench::CurrentRowName();
  row.wall = skymr::obs::WallStats::FromSamples(std::move(samples));
  row.deterministic["input_tuples"] = static_cast<int64_t>(card);
  row.deterministic["ppd"] = static_cast<int64_t>(ppd);
  row.deterministic["pruned"] = static_cast<int64_t>(pruned);
  skymr::bench::CollectedRows().push_back(std::move(row));
}

/// Pruning-device comparison: the paper's bitstring (Section 3) versus
/// SKY-MR's sample + sky-quadtree (Park et al., discussed in Section
/// 2.2). Both prune tuples before the shuffle; this measures which drops
/// more and at what shuffle cost, isolating the paper's claim that the
/// bitstring enables aggressive pruning without sampling.
void VsSampling(benchmark::State& state) {
  const auto dist =
      static_cast<skymr::data::Distribution>(state.range(0));
  const auto dim = static_cast<size_t>(state.range(1));
  const bool use_skymr = state.range(2) != 0;
  const size_t card = skymr::bench::ScaledCardinality(kPaperCard, kScale);
  const skymr::Dataset& data = skymr::bench::CachedDataset(dist, card, dim);
  skymr::bench::RunAndReport(
      state, data, skymr::bench::PaperOptions(),
      skymr::bench::PaperQuery(use_skymr ? skymr::Algorithm::kSkyMr
                                         : skymr::Algorithm::kMrGpsrs),
      [](const skymr::SkylineResult& result,
         std::map<std::string, double>* metrics) {
        int64_t tuples_pruned = 0;
        for (const auto& job : result.jobs) {
          tuples_pruned +=
              job.counters.Get(skymr::mr::kCounterTuplesPruned);
        }
        (*metrics)["tuples_pruned"] = static_cast<double>(tuples_pruned);
      });
}

/// Mapper-side local skyline algorithm (BNL vs SFS), the Section 8
/// future-work optimization.
void LocalAlgo(benchmark::State& state) {
  const auto dist =
      static_cast<skymr::data::Distribution>(state.range(0));
  const auto local =
      static_cast<skymr::core::LocalAlgorithm>(state.range(1));
  const size_t card = skymr::bench::ScaledCardinality(kPaperCard, kScale);
  const skymr::Dataset& data = skymr::bench::CachedDataset(dist, card, 4);
  skymr::QuerySpec query =
      skymr::bench::PaperQuery(skymr::Algorithm::kMrGpmrs);
  query.local_algorithm = local;
  skymr::bench::RunAndReport(
      state, data, skymr::bench::PaperOptions(), query,
      [](const skymr::SkylineResult& result,
         std::map<std::string, double>* metrics) {
        int64_t tuple_cmps = 0;
        for (const auto& job : result.jobs) {
          tuple_cmps +=
              job.counters.Get(skymr::mr::kCounterTupleComparisons);
        }
        (*metrics)["tuple_cmps"] = static_cast<double>(tuple_cmps);
      });
}

void RegisterAll() {
  for (const auto dist : {skymr::data::Distribution::kIndependent,
                          skymr::data::Distribution::kAntiCorrelated}) {
    for (const size_t dim : {size_t{3}, size_t{6}}) {
      for (const bool use_skymr : {false, true}) {
        const std::string name =
            std::string("AblationVsSampling/") +
            skymr::data::DistributionName(dist) + "/d:" +
            std::to_string(dim) +
            (use_skymr ? "/sky-mr" : "/bitstring");
        skymr::bench::RegisterRow(name, VsSampling)
            ->Args({static_cast<long>(dist), static_cast<long>(dim),
                    use_skymr ? 1 : 0})
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
  for (const auto dist : {skymr::data::Distribution::kIndependent,
                          skymr::data::Distribution::kAntiCorrelated}) {
    for (const auto local : {skymr::core::LocalAlgorithm::kBnl,
                             skymr::core::LocalAlgorithm::kSfs}) {
      const std::string name =
          std::string("AblationLocalAlgo/") +
          skymr::data::DistributionName(dist) + "/" +
          skymr::core::LocalAlgorithmName(local);
      skymr::bench::RegisterRow(name, LocalAlgo)
          ->Args({static_cast<long>(dist), static_cast<long>(local)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
  for (const auto dist : {skymr::data::Distribution::kIndependent,
                          skymr::data::Distribution::kAntiCorrelated}) {
    for (const size_t dim : {size_t{3}, size_t{6}, size_t{9}}) {
      for (const bool prune : {true, false}) {
        const std::string name =
            std::string("AblationPruning/") +
            skymr::data::DistributionName(dist) + "/d:" +
            std::to_string(dim) + (prune ? "/pruning:on" : "/pruning:off");
        skymr::bench::RegisterRow(name, PruningOnOff)
            ->Args({static_cast<long>(dist), static_cast<long>(dim),
                    prune ? 1 : 0})
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
  for (const auto mode : {skymr::core::PruneMode::kLiteral,
                          skymr::core::PruneMode::kPrefix}) {
    for (const size_t dim : {size_t{2}, size_t{3}, size_t{6}}) {
      const std::string name =
          std::string("AblationPruneMode/") +
          (mode == skymr::core::PruneMode::kLiteral ? "literal"
                                                    : "prefix") +
          "/d:" + std::to_string(dim);
      skymr::bench::RegisterRow(name, PruneModeRuntime)
          ->Args({static_cast<long>(mode), static_cast<long>(dim)})
          ->Unit(benchmark::kMicrosecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  return skymr::bench::BenchMain(argc, argv, "bench_ablation_pruning");
}

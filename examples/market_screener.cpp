// Market screener: multi-criteria security screening over anti-correlated
// attributes (risk vs. expected return trade off against each other, plus
// fees) — the regime where skylines are large and the paper's MR-GPMRS
// shines. The example compares all four MapReduce algorithms on the same
// workload and prints runtime and traffic metrics side by side.

#include <cstdio>

#include "src/common/rng.h"
#include "src/skymr.h"

namespace {

/// Instruments with anti-correlated (negated return, risk) plus an
/// independent fee dimension.
skymr::Dataset SynthesizeInstruments(size_t count, uint64_t seed) {
  const skymr::Dataset base =
      skymr::data::GenerateAntiCorrelated(count, 2, seed);
  skymr::Rng rng(seed ^ 0xabcdef);
  skymr::Dataset instruments(3);
  for (size_t i = 0; i < count; ++i) {
    const double* row = base.RowPtr(static_cast<skymr::TupleId>(i));
    // row[0] ~ negated expected return, row[1] ~ volatility; both in
    // [0,1) and anti-correlated: high return comes with high risk.
    instruments.Append({row[0], row[1], rng.NextDouble() * 0.02});
  }
  return instruments;
}

}  // namespace

int main() {
  const skymr::Dataset instruments = SynthesizeInstruments(30000, 99);
  std::printf("universe: %zu instruments, criteria = "
              "(-return, volatility, fees)\n\n",
              instruments.size());

  std::printf("%-10s %10s %12s %12s %10s %9s\n", "algorithm", "skyline",
              "modeled[s]", "shuffle[KB]", "reducers", "exact");
  const skymr::Algorithm algorithms[] = {
      skymr::Algorithm::kMrGpsrs,
      skymr::Algorithm::kMrGpmrs,
      skymr::Algorithm::kMrBnl,
      skymr::Algorithm::kMrAngle,
      skymr::Algorithm::kSkyMr,
  };
  skymr::SessionOptions options;
  options.engine.num_map_tasks = 13;
  options.engine.num_reducers = 13;
  for (const skymr::Algorithm algorithm : algorithms) {
    // A fresh session per algorithm, so every row pays for its own
    // bitstring job instead of reusing the previous row's cached phase.
    auto session = skymr::Session::Open(instruments, options);
    if (!session.ok()) {
      std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
      return 1;
    }
    skymr::QuerySpec query;
    query.algorithm = algorithm;
    auto result = (*session)->Submit(query);
    if (!result.ok()) {
      std::fprintf(stderr, "%s failed: %s\n",
                   skymr::AlgorithmName(algorithm),
                   result.status().ToString().c_str());
      return 1;
    }
    uint64_t shuffle = 0;
    for (const auto& job : result->jobs) {
      shuffle += job.shuffle_bytes;
    }
    const std::string mismatch =
        skymr::ExplainSkylineMismatch(instruments, result->SkylineIds());
    std::printf("%-10s %10zu %12.1f %12.1f %10zu %9s\n",
                skymr::AlgorithmName(algorithm), result->skyline.size(),
                result->modeled_seconds,
                static_cast<double>(shuffle) / 1024.0,
                result->jobs.back().reduce_tasks.size(),
                mismatch.empty() ? "yes" : "NO");
    if (!mismatch.empty()) {
      std::fprintf(stderr, "  mismatch: %s\n", mismatch.c_str());
      return 1;
    }
  }

  // Show the "efficient frontier" extremes from one MR-GPMRS run.
  auto session = skymr::Session::Open(instruments, options);
  if (!session.ok()) {
    return 1;
  }
  auto result = (*session)->Submit(skymr::QuerySpec{});
  if (!result.ok()) {
    return 1;
  }
  size_t best_return = 0;
  size_t best_risk = 0;
  for (size_t i = 0; i < result->skyline.size(); ++i) {
    if (result->skyline.RowAt(i)[0] <
        result->skyline.RowAt(best_return)[0]) {
      best_return = i;
    }
    if (result->skyline.RowAt(i)[1] < result->skyline.RowAt(best_risk)[1]) {
      best_risk = i;
    }
  }
  std::printf("\nefficient frontier has %zu instruments, e.g.:\n",
              result->skyline.size());
  std::printf("  max return: id %u (-ret %.3f, vol %.3f, fee %.4f)\n",
              result->skyline.IdAt(best_return),
              result->skyline.RowAt(best_return)[0],
              result->skyline.RowAt(best_return)[1],
              result->skyline.RowAt(best_return)[2]);
  std::printf("  min risk:   id %u (-ret %.3f, vol %.3f, fee %.4f)\n",
              result->skyline.IdAt(best_risk),
              result->skyline.RowAt(best_risk)[0],
              result->skyline.RowAt(best_risk)[1],
              result->skyline.RowAt(best_risk)[2]);
  return 0;
}

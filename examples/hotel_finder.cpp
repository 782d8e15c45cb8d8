// Hotel finder: the classic skyline motivation. Each hotel has a price, a
// distance to the beach, and a (negated) guest rating — smaller is better
// on every dimension. The skyline contains every hotel that is not
// strictly worse than another on all criteria, i.e. every defensible
// choice for some visitor.
//
// The example also demonstrates CSV export/import and the hybrid
// algorithm that auto-selects between MR-GPSRS and MR-GPMRS.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/relation/preferences.h"
#include "src/skymr.h"

namespace {

/// Synthesizes a plausible hotel market: price correlates with rating
/// (better hotels cost more) and anti-correlates with distance (beach
/// front demands a premium).
skymr::Dataset SynthesizeHotels(size_t count, uint64_t seed) {
  skymr::Rng rng(seed);
  skymr::Dataset hotels(3);
  for (size_t i = 0; i < count; ++i) {
    const double quality = rng.NextDouble();  // Hidden desirability.
    const double price =
        60.0 + 340.0 * quality + rng.Gaussian(0.0, 30.0);
    const double distance_km =
        0.2 + 18.0 * (1.0 - quality) * rng.NextDouble();
    double rating = 2.0 + 3.0 * quality + rng.Gaussian(0.0, 0.4);
    rating = rating > 5.0 ? 5.0 : (rating < 0.0 ? 0.0 : rating);
    hotels.Append({price < 30.0 ? 30.0 : price,
                   distance_km < 0.05 ? 0.05 : distance_km, rating});
  }
  return hotels;
}

}  // namespace

int main() {
  const skymr::Dataset hotels = SynthesizeHotels(50000, 7);
  std::printf("hotel market: %zu hotels, criteria = "
              "(min price $, min beach distance km, MAX rating)\n",
              hotels.size());

  // Persist to CSV and read back — the library works from files too.
  const std::string path =
      (std::filesystem::temp_directory_path() / "hotels.csv").string();
  if (auto s = skymr::data::SaveCsv(hotels, path,
                                    {"price", "distance_km", "rating"});
      !s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  auto loaded = skymr::data::LoadCsv(path, /*has_header=*/true);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("round-tripped through %s\n", path.c_str());

  // Mixed preference directions: ratings are better when *larger*.
  // ApplyPreferences reflects maximize-dimensions so the standard
  // min-skyline applies; tuple ids still index the original data.
  auto prepared = skymr::ApplyPreferences(
      *loaded, {skymr::Preference::kMinimize, skymr::Preference::kMinimize,
                skymr::Preference::kMaximize});
  if (!prepared.ok()) {
    std::fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
    return 1;
  }

  // Hybrid mode: the library samples the skyline fraction and picks the
  // single- or multiple-reducer algorithm automatically (the paper's
  // Section 8 future-work direction).
  skymr::SessionOptions options;
  options.engine.num_map_tasks = 13;
  options.engine.num_reducers = 13;
  options.unit_bounds = false;  // Prices are dollars, not [0,1).
  auto session = skymr::Session::Open(*prepared, options);
  if (!session.ok()) {
    std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
    return 1;
  }

  skymr::QuerySpec query;
  query.algorithm = skymr::Algorithm::kHybrid;
  auto result = (*session)->Submit(query);
  if (!result.ok()) {
    std::fprintf(stderr, "skyline failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("\nhybrid decision: sampled skyline fraction %.3f, "
              "%llu independent groups -> %s with %zu reducer task(s)\n",
              result->hybrid_decision.sampled_skyline_fraction,
              static_cast<unsigned long long>(
                  result->hybrid_decision.num_groups),
              skymr::AlgorithmName(result->algorithm_used),
              result->jobs.back().reduce_tasks.size());

  std::printf("skyline: %zu of %zu hotels are undominated\n",
              result->skyline.size(), loaded->size());

  // Print the cheapest few skyline hotels, reading the *original* values
  // back by tuple id.
  std::vector<size_t> order(result->skyline.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return result->skyline.RowAt(a)[0] < result->skyline.RowAt(b)[0];
  });
  std::printf("\n%8s %10s %12s %8s\n", "hotel", "price", "distance", "rating");
  const size_t show = order.size() < 8 ? order.size() : 8;
  for (size_t i = 0; i < show; ++i) {
    const skymr::TupleId id = result->skyline.IdAt(order[i]);
    const double* row = loaded->RowPtr(id);
    std::printf("%8u %9.0f$ %10.2fkm %8.1f\n", id, row[0], row[1], row[2]);
  }

  const std::string mismatch =
      skymr::ExplainSkylineMismatch(*prepared, result->SkylineIds());
  std::printf("\nverification: %s\n",
              mismatch.empty() ? "EXACT MATCH" : mismatch.c_str());
  std::remove(path.c_str());
  return mismatch.empty() ? 0 : 1;
}

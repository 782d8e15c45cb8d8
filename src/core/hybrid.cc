#include "src/core/hybrid.h"

#include <algorithm>
#include <cmath>

#include "src/core/independent_groups.h"
#include "src/local/skyline_window.h"

namespace skymr::core {

namespace {

/// Calls `visit(row, id)` for every in-box row of the deterministic
/// stride sample (every max(1, n / sample_size)-th row); returns how many
/// rows the stride visited, in the box or not.
template <typename Visit>
size_t ForEachSampledRow(const Dataset& data, size_t sample_size,
                         const std::optional<Box>& constraint,
                         Visit&& visit) {
  const size_t stride = std::max<size_t>(1, data.size() / sample_size);
  size_t strided = 0;
  for (size_t i = 0; i < data.size(); i += stride) {
    ++strided;
    const double* row = data.RowPtr(static_cast<TupleId>(i));
    if (constraint.has_value() && !constraint->Contains(row, data.dim())) {
      continue;
    }
    visit(row, static_cast<TupleId>(i));
  }
  return strided;
}

}  // namespace

double EstimateSkylineFraction(const Dataset& data, size_t sample_size,
                               const std::optional<Box>& constraint) {
  if (data.empty() || sample_size == 0) {
    return 0.0;
  }
  SkylineWindow window(data.dim());
  size_t sampled = 0;
  ForEachSampledRow(data, sample_size, constraint,
                    [&](const double* row, TupleId id) {
                      window.Insert(row, id, nullptr);
                      ++sampled;
                    });
  return sampled > 0
             ? static_cast<double>(window.size()) /
                   static_cast<double>(sampled)
             : 0.0;
}

uint64_t EstimateInScopeRows(const Dataset& data,
                             const std::optional<Box>& constraint) {
  if (!constraint.has_value() || data.empty()) {
    return data.size();
  }
  uint64_t in_box = 0;
  const size_t strided =
      ForEachSampledRow(data, kHybridSampleSize, constraint,
                        [&](const double*, TupleId) { ++in_box; });
  return static_cast<uint64_t>(std::llround(
      static_cast<double>(data.size()) * static_cast<double>(in_box) /
      static_cast<double>(strided)));
}

HybridDecision DecideHybrid(const Dataset& data, const Grid& grid,
                            const BitstringBuildResult& result,
                            const std::optional<Box>& constraint) {
  HybridDecision decision;
  decision.sampled_skyline_fraction =
      EstimateSkylineFraction(data, kHybridSampleSize, constraint);
  decision.num_groups =
      GenerateIndependentGroups(grid, result.bits).size();
  if (decision.sampled_skyline_fraction > kHybridSkylineFractionThreshold &&
      decision.num_groups > 1) {
    decision.use_multiple_reducers = true;
    decision.num_reducers = static_cast<int>(std::min<uint64_t>(
        static_cast<uint64_t>(kHybridReducers), decision.num_groups));
  } else {
    decision.use_multiple_reducers = false;
    decision.num_reducers = 1;
  }
  return decision;
}

}  // namespace skymr::core

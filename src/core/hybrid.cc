#include "src/core/hybrid.h"

#include <algorithm>

#include "src/core/independent_groups.h"
#include "src/local/skyline_window.h"

namespace skymr::core {

double EstimateSkylineFraction(const Dataset& data, size_t sample_size,
                               const std::optional<Box>& constraint) {
  if (data.empty() || sample_size == 0) {
    return 0.0;
  }
  const size_t stride = std::max<size_t>(1, data.size() / sample_size);
  SkylineWindow window(data.dim());
  size_t sampled = 0;
  for (size_t i = 0; i < data.size(); i += stride) {
    const double* row = data.RowPtr(static_cast<TupleId>(i));
    if (constraint.has_value() && !constraint->Contains(row, data.dim())) {
      continue;
    }
    window.Insert(row, static_cast<TupleId>(i), nullptr);
    ++sampled;
  }
  return sampled > 0
             ? static_cast<double>(window.size()) /
                   static_cast<double>(sampled)
             : 0.0;
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

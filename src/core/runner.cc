#include "src/core/runner.h"

#include <algorithm>

namespace skymr {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kMrGpsrs:
      return "mr-gpsrs";
    case Algorithm::kMrGpmrs:
      return "mr-gpmrs";
    case Algorithm::kMrBnl:
      return "mr-bnl";
    case Algorithm::kMrAngle:
      return "mr-angle";
    case Algorithm::kHybrid:
      return "hybrid";
    case Algorithm::kSkyMr:
      return "sky-mr";
  }
  return "unknown";
}

StatusOr<Algorithm> ParseAlgorithm(const std::string& name) {
  if (name == "mr-gpsrs") {
    return Algorithm::kMrGpsrs;
  }
  if (name == "mr-gpmrs") {
    return Algorithm::kMrGpmrs;
  }
  if (name == "mr-bnl") {
    return Algorithm::kMrBnl;
  }
  if (name == "mr-angle") {
    return Algorithm::kMrAngle;
  }
  if (name == "hybrid") {
    return Algorithm::kHybrid;
  }
  if (name == "sky-mr" || name == "skymr") {
    return Algorithm::kSkyMr;
  }
  return Status::InvalidArgument("unknown algorithm: " + name);
}

std::vector<TupleId> SkylineResult::SkylineIds() const {
  std::vector<TupleId> ids = skyline.ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace skymr

#include "src/core/ppd.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/common/math_util.h"

namespace skymr::core {

const char* PpdStrategyName(PpdStrategy strategy) {
  switch (strategy) {
    case PpdStrategy::kPaperLiteral:
      return "paper-literal";
    case PpdStrategy::kTargetTpp:
      return "target-tpp";
  }
  return "unknown";
}

const char* PpdRuleName(const PpdOptions& options) {
  return options.explicit_ppd > 0 ? "explicit"
                                  : PpdStrategyName(options.strategy);
}

std::vector<uint32_t> CandidatePpds(uint64_t cardinality, size_t dim,
                                    const PpdOptions& options) {
  if (options.explicit_ppd > 0) {
    return {options.explicit_ppd};
  }
  // n_m = floor(c^(1/d)): the PPD at which TPP would reach 1 on uniform
  // data (Equation 4 with TPP = 1).
  uint64_t nm = FloorRoot(cardinality, static_cast<uint32_t>(dim));
  nm = std::min<uint64_t>(nm, options.max_candidate);
  std::vector<uint32_t> candidates;
  for (uint32_t j = 2; j <= nm; ++j) {
    const std::optional<uint64_t> cells =
        CheckedPow(j, static_cast<uint32_t>(dim));
    if (!cells.has_value() || *cells > options.max_cells) {
      break;
    }
    candidates.push_back(j);
  }
  if (candidates.empty()) {
    // Tiny datasets (c < 2^d) still need a grid; fall back to PPD 2 when
    // it fits the cell budget.
    const std::optional<uint64_t> cells =
        CheckedPow(2, static_cast<uint32_t>(dim));
    if (cells.has_value() && *cells <= options.max_cells) {
      candidates.push_back(2);
    }
  }
  return candidates;
}

uint32_t SelectPpd(const PpdOptions& options, uint64_t cardinality,
                   size_t dim, const std::vector<PpdOccupancy>& occupancies) {
  assert(!occupancies.empty());
  if (cardinality == 0) {
    // Degenerate input: every candidate is equally (un)informative.
    return occupancies.front().first;
  }
  const auto c = static_cast<double>(cardinality);
  uint32_t best_ppd = 0;
  double best_diff = 0.0;
  // Ties within epsilon break toward the larger PPD; SelectPpd scans
  // candidates in ascending order, so `>= diff - eps` keeps the larger.
  constexpr double kEpsilon = 1e-9;
  for (const auto& [ppd, rho] : occupancies) {
    const double tpp_estimate =
        rho > 0 ? c / static_cast<double>(rho)
                : std::numeric_limits<double>::infinity();
    double diff = 0.0;
    switch (options.strategy) {
      case PpdStrategy::kPaperLiteral: {
        const double tpp_uniform =
            c / std::pow(static_cast<double>(ppd),
                         static_cast<double>(dim));
        diff = std::abs(tpp_estimate - tpp_uniform);
        break;
      }
      case PpdStrategy::kTargetTpp:
        diff = std::abs(tpp_estimate - options.target_tpp);
        break;
    }
    if (best_ppd == 0 || diff < best_diff - kEpsilon ||
        (diff <= best_diff + kEpsilon && ppd > best_ppd)) {
      if (best_ppd == 0 || diff < best_diff) {
        best_diff = diff;
      }
      best_ppd = ppd;
    }
  }
  return best_ppd;
}

}  // namespace skymr::core

// Choosing the number of partitions per dimension (Section 3.3).
//
// The mappers build bitstrings for a series of candidate PPDs
// j = 2 .. n_m with n_m = floor(c^(1/d)), and the reducer picks the PPD
// whose observed occupancy best matches the desired tuples-per-partition.
//
// Two decision rules are provided:
//  * kPaperLiteral — the rule as printed in the paper: minimize
//    |c/rho_j - c/j^d|, where rho_j is the number of non-empty partitions
//    of candidate j. Ties (within epsilon) break toward the larger j, so
//    on well-spread data this selects the finest grid whose cells are
//    still (almost) all occupied.
//  * kTargetTpp — minimize |c/rho_j - TPP*| for an explicit desired
//    tuples-per-partition TPP*, the quantity Section 3.3 says the ideal
//    rule would use if mapper/reducer capacities were known.

#ifndef SKYMR_CORE_PPD_H_
#define SKYMR_CORE_PPD_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/grid.h"

namespace skymr::core {

enum class PpdStrategy {
  kPaperLiteral,
  kTargetTpp,
};

const char* PpdStrategyName(PpdStrategy strategy);

/// Configuration for grid-resolution selection.
struct PpdOptions {
  /// When > 0, skip selection entirely and use this PPD.
  uint32_t explicit_ppd = 0;
  PpdStrategy strategy = PpdStrategy::kPaperLiteral;
  /// Desired tuples per partition for kTargetTpp.
  // lint:allow(config-field-set) ROADMAP item 1 rewrites the PPD rule.
  double target_tpp = 512.0;
  /// Largest candidate PPD considered (bounds mapper-side bitstring work).
  // lint:allow(config-field-set) ROADMAP item 1 rewrites the PPD rule.
  uint32_t max_candidate = 64;
  /// Budget for n^d per candidate grid.
  // lint:allow(config-field-set) ROADMAP item 1 rewrites the PPD rule.
  uint64_t max_cells = Grid::kDefaultMaxCells;
};

/// Occupancy of one candidate: (PPD j, non-empty partition count rho_j).
using PpdOccupancy = std::pair<uint32_t, uint64_t>;

/// The candidate series 2 .. n_m, n_m = floor(c^(1/d)), additionally capped
/// by options.max_candidate and by the n^d <= max_cells budget. Always
/// returns at least one candidate (PPD 2) when 2^d fits the budget.
std::vector<uint32_t> CandidatePpds(uint64_t cardinality, size_t dim,
                                    const PpdOptions& options);

/// Applies the selection rule to the measured occupancies. Precondition:
/// `occupancies` is non-empty and every rho is >= 1.
uint32_t SelectPpd(const PpdOptions& options, uint64_t cardinality,
                   size_t dim, const std::vector<PpdOccupancy>& occupancies);

}  // namespace skymr::core

#endif  // SKYMR_CORE_PPD_H_

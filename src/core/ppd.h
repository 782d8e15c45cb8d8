// Choosing the number of partitions per dimension (Section 3.3).
//
// The mappers build bitstrings for a series of candidate PPDs
// j = 2 .. n_m with n_m = floor(c^(1/d)), and the reducer picks the PPD
// whose observed occupancy best matches the desired tuples-per-partition.
//
// c is the cardinality of the rows in scope: the whole dataset, or, for a
// constrained query, the Session's estimate of the rows inside the box
// (core::EstimateInScopeRows), so a box's grid is sized for the rows it
// holds.
//
// Two decision rules are provided:
//  * kPaperLiteral — the rule as printed in the paper: minimize
//    |c/rho_j - c/j^d|, where rho_j is the number of non-empty partitions
//    of candidate j. Ties (within epsilon) break toward the larger j, so
//    on well-spread data this selects the finest grid whose cells are
//    still (almost) all occupied. The figure and ablation benches pin it
//    (bench::PaperOptions), since they reproduce the paper.
//  * kTargetTpp — the default: minimize |c/rho_j - TPP*| for an explicit
//    desired tuples-per-partition TPP* (512), the quantity Section 3.3
//    says the ideal rule would use if mapper/reducer capacities were
//    known. On 1e5 six-dimensional tuples it picks PPD 3, where the
//    paper's rule picks 4 (independent) or 2 (anti-correlated), and PPD
//    3 is the faster grid on both (DESIGN.md, PPD selection).

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
  PpdStrategy strategy = PpdStrategy::kTargetTpp;
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

/// Names the rule that picks the grid under `options`: "explicit" when
/// explicit_ppd is set, else PpdStrategyName(strategy).
const char* PpdRuleName(const PpdOptions& options);

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

// Grid partitioning of the data space (Section 3.1 of the paper).
//
// An n x ... x n grid (n = partitions per dimension, PPD) divides a
// d-dimensional bounding box into n^d cells. Cells are identified by a
// column-major linear index, as in the paper's Figure 2:
//   index = sum_k coord[k] * n^k,   coord[k] in [0, n).
//
// Cells are half-open boxes [min, max) except along the upper domain
// boundary, where tuples equal to the boundary are clamped into the last
// cell. With that convention, partition dominance (Definition 2) and the
// dominating / anti-dominating regions (Definitions 3 and 4) reduce to
// exact integer tests on cell coordinates:
//
//   p_i dominates p_j          <=>  coord_j[k] >= coord_i[k] + 1 for all k
//   p_j in p_i.ADR (j != i)    <=>  coord_j[k] <= coord_i[k]     for all k
//
// which reproduces Figure 2 (p4.DR = {p8}, p4.ADR = {p0, p1, p3}) and
// avoids floating-point boundary ambiguity entirely.

#ifndef SKYMR_CORE_GRID_H_
#define SKYMR_CORE_GRID_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/relation/dataset.h"

namespace skymr::core {

/// Linear index of a grid cell (partition).
using CellId = uint64_t;

/// An immutable n^d grid over a bounding box.
class Grid {
 public:
  /// Creates a grid; fails when ppd < 1, dim < 1, the cell count would
  /// exceed `max_cells`, or the bounds are malformed.
  static StatusOr<Grid> Create(size_t dim, uint32_t ppd, Bounds bounds,
                               uint64_t max_cells = kDefaultMaxCells);

  /// Default budget for n^d (2^24 cells = 2 MiB of bitstring).
  static constexpr uint64_t kDefaultMaxCells = uint64_t{1} << 24;

  size_t dim() const { return dim_; }
  uint32_t ppd() const { return ppd_; }
  uint64_t num_cells() const { return num_cells_; }
  const Bounds& bounds() const { return bounds_; }

  /// The cell containing `row` (values clamped into the bounding box).
  CellId CellOf(const double* row) const;

  /// Decodes a cell id into per-dimension coordinates (column-major).
  void CoordsOf(CellId cell, uint32_t* coords) const;

  /// Decoded coordinates as a vector (convenience).
  std::vector<uint32_t> Coords(CellId cell) const;

  /// Encodes coordinates into a cell id.
  CellId IndexOf(const uint32_t* coords) const;

  /// True iff cell `a` dominates cell `b` (Definition 2):
  /// a.max dominates b.min.
  bool CellDominates(CellId a, CellId b) const;

  /// True iff cell `q` lies in cell `p`'s anti-dominating region
  /// (Definition 4): q may contain tuples dominating p.max.
  bool InAdrOf(CellId p, CellId q) const;

  /// |p.ADR| over the full grid: prod_k (coord[k] + 1) - 1.
  /// This is Equation 6's rho_dom, the paper's per-partition cost estimate.
  uint64_t AdrSize(CellId cell) const;

  /// The cell's minimum (best) corner, p.min.
  std::vector<double> MinCorner(CellId cell) const;

  /// The cell's maximum (worst) corner, p.max.
  std::vector<double> MaxCorner(CellId cell) const;

  /// Calls fn(CellId) for every cell in `cell`'s dominating region
  /// (Definition 3). Used by the literal Algorithm 2 pruning.
  template <typename Fn>
  void ForEachDominatedCell(CellId cell, Fn&& fn) const {
    std::vector<uint32_t> base(dim_);
    CoordsOf(cell, base.data());
    for (size_t k = 0; k < dim_; ++k) {
      if (base[k] + 1 >= ppd_) {
        return;  // DR is empty: no room to move up in dimension k.
      }
    }
    std::vector<uint32_t> cur(dim_);
    for (size_t k = 0; k < dim_; ++k) {
      cur[k] = base[k] + 1;
    }
    while (true) {
      fn(IndexOf(cur.data()));
      // Odometer increment over coords in [base[k]+1, ppd).
      size_t k = 0;
      while (k < dim_) {
        if (cur[k] + 1 < ppd_) {
          ++cur[k];
          break;
        }
        cur[k] = base[k] + 1;
        ++k;
      }
      if (k == dim_) {
        return;
      }
    }
  }

 private:
  Grid(size_t dim, uint32_t ppd, Bounds bounds, uint64_t num_cells);

  size_t dim_;
  uint32_t ppd_;
  uint64_t num_cells_;
  Bounds bounds_;
  std::vector<double> inv_width_;  // ppd / (hi - lo) per dimension.
  std::vector<double> width_;      // (hi - lo) / ppd per dimension.
};

/// A set of occupied cells indexed for anti-dominating-region queries: a
/// coordinate trie whose level l branches on dimension d-1-l, the most
/// significant digit of the column-major CellId first. Each trie node is
/// one distinct coordinate prefix, so the index holds at most C*d nodes
/// for C cells, independent of the n^d grid.
class AdrIndex {
 public:
  /// Indexes `cells`, which must be ascending cells of `grid`.
  AdrIndex(const Grid& grid, const std::vector<CellId>& cells);

  /// Calls fn(i) for every position i in `cells` whose cell lies in the
  /// ADR of the cell with coordinates `coords`, in ascending order of i,
  /// until fn returns false; then the walk ends at once. The walk takes
  /// each node's children in ascending coordinate order and stops at the
  /// first one above `coords`, so it visits only prefixes of ADR members
  /// (never more nodes than the trie holds). Reuses internal scratch: one
  /// index serves one thread at a time.
  template <typename Fn>
  void ForEachAdrMember(const uint32_t* coords, Fn&& fn) {
    if (levels_[0].coord.empty()) {
      return;
    }
    const size_t last = levels_.size() - 1;
    size_t l = 0;
    frames_[0] = {0, static_cast<uint32_t>(levels_[0].coord.size()), false};
    while (true) {
      Frame& frame = frames_[l];
      const uint32_t bound = coords[last - l];
      const std::vector<uint32_t>& coord = levels_[l].coord;
      if (frame.next == frame.end || coord[frame.next] > bound) {
        if (l == 0) {
          return;
        }
        --l;
        continue;
      }
      const uint32_t node = frame.next++;
      // ADR membership needs some coordinate strictly below the target's.
      const bool strict = frame.strict || coord[node] < bound;
      if (l == last) {
        if (strict && !fn(static_cast<size_t>(node))) {
          return;
        }
        continue;
      }
      const std::vector<uint32_t>& first_child = levels_[l].first_child;
      frames_[++l] = {first_child[node], first_child[node + 1], strict};
    }
  }

 private:
  struct Level {
    std::vector<uint32_t> coord;  // Per node, ascending within a parent.
    // Per node: its children's range in the next level is
    // [first_child[i], first_child[i + 1]); one trailing sentinel. Unused
    // on the last level, whose node i is cells[i].
    std::vector<uint32_t> first_child;
  };
  struct Frame {
    uint32_t next;  // Next child to visit.
    uint32_t end;   // One past the last child.
    bool strict;    // Some coordinate on the path is below the target's.
  };

  std::vector<Level> levels_;
  std::vector<Frame> frames_;  // Walk stack, one frame per level.
};

}  // namespace skymr::core

#endif  // SKYMR_CORE_GRID_H_

#include "src/core/grid.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/math_util.h"

namespace skymr::core {

StatusOr<Grid> Grid::Create(size_t dim, uint32_t ppd, Bounds bounds,
                            uint64_t max_cells) {
  if (dim < 1) {
    return Status::InvalidArgument("grid dimension must be >= 1");
  }
  if (ppd < 1) {
    return Status::InvalidArgument("PPD must be >= 1");
  }
  if (bounds.lo.size() != dim || bounds.hi.size() != dim) {
    return Status::InvalidArgument("bounds width does not match dimension");
  }
  for (size_t k = 0; k < dim; ++k) {
    if (!(bounds.lo[k] <= bounds.hi[k])) {
      return Status::InvalidArgument("bounds are inverted or NaN");
    }
  }
  const std::optional<uint64_t> cells =
      CheckedPow(ppd, static_cast<uint32_t>(dim));
  if (!cells.has_value() || *cells > max_cells) {
    return Status::OutOfRange("grid cell count n^d exceeds the budget");
  }
  return Grid(dim, ppd, std::move(bounds), *cells);
}

Grid::Grid(size_t dim, uint32_t ppd, Bounds bounds, uint64_t num_cells)
    : dim_(dim),
      ppd_(ppd),
      num_cells_(num_cells),
      bounds_(std::move(bounds)),
      inv_width_(dim),
      width_(dim) {
  for (size_t k = 0; k < dim_; ++k) {
    const double extent = bounds_.hi[k] - bounds_.lo[k];
    if (extent > 0.0) {
      inv_width_[k] = static_cast<double>(ppd_) / extent;
      width_[k] = extent / static_cast<double>(ppd_);
    } else {
      // Degenerate dimension: every tuple falls in coordinate 0.
      inv_width_[k] = 0.0;
      width_[k] = 0.0;
    }
  }
}

CellId Grid::CellOf(const double* row) const {
  CellId index = 0;
  CellId stride = 1;
  for (size_t k = 0; k < dim_; ++k) {
    const double offset = (row[k] - bounds_.lo[k]) * inv_width_[k];
    // Clamp in the double domain: the upper boundary, huge values and
    // +inf go to the last cell, below-range values and NaN to the first,
    // so the cast below never sees a value outside [0, ppd).
    uint64_t coord = 0;
    if (offset >= static_cast<double>(ppd_)) {
      coord = ppd_ - 1;
    } else if (offset > 0.0) {
      coord = static_cast<uint64_t>(offset);
    }
    index += coord * stride;
    stride *= ppd_;
  }
  // Clamping bounds every coordinate into [0, ppd), so the linear index
  // is always a valid cell id.
  SKYMR_DCHECK(index < num_cells_)
      << "cell index " << index << " out of range " << num_cells_;
  return index;
}

void Grid::CoordsOf(CellId cell, uint32_t* coords) const {
  SKYMR_DCHECK(cell < num_cells_)
      << "cell " << cell << " out of range " << num_cells_;
  for (size_t k = 0; k < dim_; ++k) {
    coords[k] = static_cast<uint32_t>(cell % ppd_);
    cell /= ppd_;
  }
}

std::vector<uint32_t> Grid::Coords(CellId cell) const {
  std::vector<uint32_t> coords(dim_);
  CoordsOf(cell, coords.data());
  return coords;
}

CellId Grid::IndexOf(const uint32_t* coords) const {
  CellId index = 0;
  CellId stride = 1;
  for (size_t k = 0; k < dim_; ++k) {
    SKYMR_DCHECK(coords[k] < ppd_)
        << "coordinate " << coords[k] << " >= ppd " << ppd_;
    index += static_cast<CellId>(coords[k]) * stride;
    stride *= ppd_;
  }
  return index;
}

bool Grid::CellDominates(CellId a, CellId b) const {
  SKYMR_DCHECK(a < num_cells_) << "cell " << a << " out of range " << num_cells_;
  SKYMR_DCHECK(b < num_cells_) << "cell " << b << " out of range " << num_cells_;
  for (size_t k = 0; k < dim_; ++k) {
    const auto ca = static_cast<uint32_t>(a % ppd_);
    const auto cb = static_cast<uint32_t>(b % ppd_);
    if (cb < ca + 1) {
      return false;
    }
    a /= ppd_;
    b /= ppd_;
  }
  return true;
}

bool Grid::InAdrOf(CellId p, CellId q) const {
  SKYMR_DCHECK(p < num_cells_) << "cell " << p << " out of range " << num_cells_;
  SKYMR_DCHECK(q < num_cells_) << "cell " << q << " out of range " << num_cells_;
  if (p == q) {
    return false;
  }
  for (size_t k = 0; k < dim_; ++k) {
    const auto cp = static_cast<uint32_t>(p % ppd_);
    const auto cq = static_cast<uint32_t>(q % ppd_);
    if (cq > cp) {
      return false;
    }
    p /= ppd_;
    q /= ppd_;
  }
  return true;
}

uint64_t Grid::AdrSize(CellId cell) const {
  SKYMR_DCHECK(cell < num_cells_)
      << "cell " << cell << " out of range " << num_cells_;
  uint64_t product = 1;
  for (size_t k = 0; k < dim_; ++k) {
    product *= static_cast<uint64_t>(cell % ppd_) + 1;
    cell /= ppd_;
  }
  return product - 1;
}

std::vector<double> Grid::MinCorner(CellId cell) const {
  SKYMR_DCHECK(cell < num_cells_)
      << "cell " << cell << " out of range " << num_cells_;
  std::vector<double> corner(dim_);
  for (size_t k = 0; k < dim_; ++k) {
    const auto coord = static_cast<uint32_t>(cell % ppd_);
    corner[k] = bounds_.lo[k] + static_cast<double>(coord) * width_[k];
    cell /= ppd_;
  }
  return corner;
}

std::vector<double> Grid::MaxCorner(CellId cell) const {
  SKYMR_DCHECK(cell < num_cells_)
      << "cell " << cell << " out of range " << num_cells_;
  std::vector<double> corner(dim_);
  for (size_t k = 0; k < dim_; ++k) {
    const auto coord = static_cast<uint32_t>(cell % ppd_);
    corner[k] =
        bounds_.lo[k] + static_cast<double>(coord + 1) * width_[k];
    cell /= ppd_;
  }
  return corner;
}

AdrIndex::AdrIndex(const Grid& grid, const std::vector<CellId>& cells)
    : levels_(grid.dim()), frames_(grid.dim()) {
  SKYMR_CHECK(cells.size() < UINT32_MAX)
      << cells.size() << " cells overflow the 32-bit trie node ids";
  const size_t last = levels_.size() - 1;
  std::vector<uint32_t> prev(levels_.size());
  std::vector<uint32_t> cur(levels_.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    SKYMR_DCHECK(i == 0 || cells[i - 1] < cells[i])
        << "cells not ascending at position " << i;
    grid.CoordsOf(cells[i], cur.data());
    // The cell shares the previous cell's path down to the first level
    // whose coordinate differs; it gets new nodes from there on, always
    // including its own leaf.
    size_t l = 0;
    if (i > 0) {
      while (l < last && cur[last - l] == prev[last - l]) {
        ++l;
      }
    }
    for (; l <= last; ++l) {
      if (l < last) {
        levels_[l].first_child.push_back(
            static_cast<uint32_t>(levels_[l + 1].coord.size()));
      }
      levels_[l].coord.push_back(cur[last - l]);
    }
    prev.swap(cur);
  }
  for (size_t l = 0; l < last; ++l) {
    levels_[l].first_child.push_back(
        static_cast<uint32_t>(levels_[l + 1].coord.size()));
  }
}

}  // namespace skymr::core

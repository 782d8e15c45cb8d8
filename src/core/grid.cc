#include "src/core/grid.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/math_util.h"

namespace skymr::core {
namespace {

// The grid coordinate of a scaled offset, (x - lo) * ppd / extent, on an
// axis of `ppd` partitions: the offset clamped into [0, ppd - 1] in the
// double domain, then truncated. The upper boundary, huge values and
// +inf go to the last cell; values below the range, -0.0 and NaN go to
// the first. Grid::CellOf and GridSweep both clamp with it, so they set
// the same cells bit for bit. ppd <= 2^31 (Grid::kMaxCells), so the
// truncation fits a signed 32-bit lane.
uint32_t ClampCoord(double offset, double ppd) {
  // The largest double below ppd (ppd >= 1) truncates to ppd - 1, and
  // only an offset at or past the grid's top reaches it. So the min below
  // is a predictable branch in CellOf's scalar code and a vector min in
  // GridSweep's lanes; clamping to ppd - 1 itself would branch on every
  // row of the last cell.
  const double top = std::bit_cast<double>(std::bit_cast<uint64_t>(ppd) - 1);
  const double above_zero = offset > 0.0 ? offset : 0.0;
  return static_cast<uint32_t>(
      static_cast<int32_t>(above_zero < top ? above_zero : top));
}

}  // namespace

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
  if (!cells.has_value() || *cells > std::min(max_cells, kMaxCells)) {
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
  const auto ppd = static_cast<double>(ppd_);
  CellId index = 0;
  CellId stride = 1;
  for (size_t k = 0; k < dim_; ++k) {
    const double offset = (row[k] - bounds_.lo[k]) * inv_width_[k];
    index += ClampCoord(offset, ppd) * stride;
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

GridSweep::GridSweep(const std::vector<Grid>& grids)
    : ppd_(grids.size()), cells_(grids.size()) {
  SKYMR_CHECK(!grids.empty()) << "a sweep needs at least one grid";
  const Bounds& bounds = grids.front().bounds();
  dim_ = grids.front().dim();
  lo_ = bounds.lo;
  const size_t lanes = grids.size();
  scale_.resize(dim_ * lanes);
  stride_.resize(dim_ * lanes);
  for (size_t i = 0; i < lanes; ++i) {
    const Grid& grid = grids[i];
    SKYMR_CHECK(grid.dim() == dim_ && grid.bounds().lo == bounds.lo &&
                grid.bounds().hi == bounds.hi)
        << "sweep grid " << i << " differs in dimension or bounds";
    ppd_[i] = static_cast<double>(grid.ppd());
    uint32_t stride = 1;
    for (size_t k = 0; k < dim_; ++k) {
      scale_[k * lanes + i] = grid.inv_width_[k];
      stride_[k * lanes + i] = stride;
      stride *= grid.ppd();  // At most ppd^d <= kMaxCells.
    }
  }
}

std::span<const uint32_t> GridSweep::Bin(const double* row) {
  const size_t lanes = cells_.size();
  uint32_t* cells = cells_.data();
  const double* ppd = ppd_.data();
  std::fill(cells, cells + lanes, 0u);
  for (size_t k = 0; k < dim_; ++k) {
    const double delta = row[k] - lo_[k];
    const double* scale = &scale_[k * lanes];
    const uint32_t* stride = &stride_[k * lanes];
    for (size_t i = 0; i < lanes; ++i) {
      cells[i] += ClampCoord(delta * scale[i], ppd[i]) * stride[i];
    }
  }
  return {cells, lanes};
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

#include "src/core/grid.h"

#include <cmath>
#include <limits>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/dynamic_bitset.h"
#include "src/common/rng.h"

namespace skymr::core {
namespace {

Grid MakeGrid(size_t dim, uint32_t ppd) {
  return std::move(Grid::Create(dim, ppd, Bounds::UnitCube(dim))).value();
}

TEST(GridTest, CreateValidation) {
  EXPECT_FALSE(Grid::Create(0, 3, Bounds::UnitCube(0)).ok());
  EXPECT_FALSE(Grid::Create(2, 0, Bounds::UnitCube(2)).ok());
  EXPECT_FALSE(Grid::Create(2, 3, Bounds::UnitCube(3)).ok());  // Mismatch.
  EXPECT_FALSE(Grid::Create(10, 64, Bounds::UnitCube(10)).ok());  // 64^10.
  EXPECT_TRUE(Grid::Create(2, 3, Bounds::UnitCube(2)).ok());
}

TEST(GridTest, CreateRespectsCellBudget) {
  EXPECT_TRUE(Grid::Create(2, 4, Bounds::UnitCube(2), 16).ok());
  EXPECT_FALSE(Grid::Create(2, 5, Bounds::UnitCube(2), 16).ok());
}

TEST(GridTest, CreateCapsCellsWhateverTheBudget) {
  // Cell ids must fit GridSweep's 32-bit lanes: at most 2^31 cells, even
  // under a budget that admits more.
  constexpr uint64_t kNoBudget = std::numeric_limits<uint64_t>::max();
  EXPECT_TRUE(
      Grid::Create(1, uint32_t{1} << 31, Bounds::UnitCube(1), kNoBudget).ok());
  EXPECT_FALSE(Grid::Create(1, (uint32_t{1} << 31) + 1, Bounds::UnitCube(1),
                            kNoBudget)
                   .ok());
  EXPECT_FALSE(
      Grid::Create(2, uint32_t{1} << 16, Bounds::UnitCube(2), kNoBudget).ok());
  EXPECT_TRUE(
      Grid::Create(3, 1290, Bounds::UnitCube(3), kNoBudget).ok());  // ~2^30.9
}

TEST(GridTest, NumCells) {
  EXPECT_EQ(MakeGrid(2, 3).num_cells(), 9u);
  EXPECT_EQ(MakeGrid(3, 4).num_cells(), 64u);
  EXPECT_EQ(MakeGrid(1, 7).num_cells(), 7u);
}

TEST(GridTest, ColumnMajorIndexRoundTrip) {
  const Grid grid = MakeGrid(3, 5);
  for (CellId cell = 0; cell < grid.num_cells(); ++cell) {
    uint32_t coords[3];
    grid.CoordsOf(cell, coords);
    EXPECT_EQ(grid.IndexOf(coords), cell);
    for (const uint32_t c : coords) {
      EXPECT_LT(c, 5u);
    }
  }
}

TEST(GridTest, IndexFormulaMatchesPaper) {
  // Column-major: index = sum_k coord[k] * n^k.
  const Grid grid = MakeGrid(2, 3);
  const uint32_t coords[2] = {1, 2};  // 1 + 2*3 = 7.
  EXPECT_EQ(grid.IndexOf(coords), 7u);
}

TEST(GridTest, CellOfInteriorPoints) {
  const Grid grid = MakeGrid(2, 3);
  const double p[] = {0.1, 0.1};
  EXPECT_EQ(grid.CellOf(p), 0u);
  const double q[] = {0.5, 0.5};  // Coords (1,1) -> 4.
  EXPECT_EQ(grid.CellOf(q), 4u);
  const double r[] = {0.9, 0.1};  // Coords (2,0) -> 2.
  EXPECT_EQ(grid.CellOf(r), 2u);
}

TEST(GridTest, CellOfBoundariesHalfOpen) {
  const Grid grid = MakeGrid(1, 4);
  const double exact[] = {0.25};  // On a cell boundary -> upper cell.
  EXPECT_EQ(grid.CellOf(exact), 1u);
  const double top[] = {1.0};  // Domain max clamps into the last cell.
  EXPECT_EQ(grid.CellOf(top), 3u);
  const double below[] = {-0.5};  // Below-range clamps to the first cell.
  EXPECT_EQ(grid.CellOf(below), 0u);
  const double above[] = {2.0};
  EXPECT_EQ(grid.CellOf(above), 3u);
  // Offsets at and past 2^64 must clamp too, not wrap through the cast.
  for (const double huge : {4.6e18, 5e18, 1e20, 1e300,
                            std::numeric_limits<double>::infinity()}) {
    const double row[] = {huge};
    EXPECT_EQ(grid.CellOf(row), 3u) << huge;
  }
  const double minus_inf[] = {-std::numeric_limits<double>::infinity()};
  EXPECT_EQ(grid.CellOf(minus_inf), 0u);
  const double nan[] = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_EQ(grid.CellOf(nan), 0u);
  // The doubles just below a boundary stay in the lower cell, up to the
  // top of the grid.
  const double below_boundary[] = {std::nextafter(0.25, 0.0)};
  EXPECT_EQ(grid.CellOf(below_boundary), 0u);
  const double below_top[] = {std::nextafter(1.0, 0.0)};
  EXPECT_EQ(grid.CellOf(below_top), 3u);
  const double below_last[] = {std::nextafter(0.75, 0.0)};
  EXPECT_EQ(grid.CellOf(below_last), 2u);
}

TEST(GridTest, CellOfDegenerateBounds) {
  Bounds bounds;
  bounds.lo = {0.5, 0.0};
  bounds.hi = {0.5, 1.0};  // First dimension collapsed.
  const Grid grid =
      std::move(Grid::Create(2, 3, std::move(bounds))).value();
  const double p[] = {0.5, 0.9};
  uint32_t coords[2];
  grid.CoordsOf(grid.CellOf(p), coords);
  EXPECT_EQ(coords[0], 0u);
  EXPECT_EQ(coords[1], 2u);
}

TEST(GridTest, CellDominanceFigure2) {
  // Figure 2: a 3x3 grid where p4 = center. p4.DR = {p8}.
  const Grid grid = MakeGrid(2, 3);
  EXPECT_TRUE(grid.CellDominates(4, 8));
  EXPECT_FALSE(grid.CellDominates(4, 5));
  EXPECT_FALSE(grid.CellDominates(4, 7));
  EXPECT_FALSE(grid.CellDominates(4, 4));
  EXPECT_FALSE(grid.CellDominates(8, 4));
  // p0 = origin corner dominates the strict interior and beyond.
  EXPECT_TRUE(grid.CellDominates(0, 4));
  EXPECT_TRUE(grid.CellDominates(0, 8));
  EXPECT_FALSE(grid.CellDominates(0, 1));
  EXPECT_FALSE(grid.CellDominates(0, 3));
}

TEST(GridTest, AdrFigure2) {
  // Figure 2: p4.ADR = {p0, p1, p3}.
  const Grid grid = MakeGrid(2, 3);
  std::set<CellId> adr;
  for (CellId q = 0; q < grid.num_cells(); ++q) {
    if (grid.InAdrOf(4, q)) {
      adr.insert(q);
    }
  }
  EXPECT_EQ(adr, (std::set<CellId>{0, 1, 3}));
}

TEST(GridTest, AdrOfOriginIsEmpty) {
  const Grid grid = MakeGrid(3, 4);
  for (CellId q = 0; q < grid.num_cells(); ++q) {
    EXPECT_FALSE(grid.InAdrOf(0, q));
  }
}

TEST(GridTest, AdrSizeIsCoordinateProductMinusOne) {
  // Equation 6: rho_dom = prod coords(1-based) - 1. Paper example:
  // p2 of the 3x3 grid has coords (1,3) -> 1*3 - 1 = 2 comparisons.
  const Grid grid = MakeGrid(2, 3);
  EXPECT_EQ(grid.AdrSize(2), 2u);
  EXPECT_EQ(grid.AdrSize(0), 0u);
  EXPECT_EQ(grid.AdrSize(4), 3u);  // (2,2): 4-1.
  EXPECT_EQ(grid.AdrSize(8), 8u);  // (3,3): 9-1.
}

TEST(GridTest, AdrSizeCountsAdrMembers) {
  const Grid grid = MakeGrid(3, 3);
  for (CellId p = 0; p < grid.num_cells(); ++p) {
    uint64_t count = 0;
    for (CellId q = 0; q < grid.num_cells(); ++q) {
      count += grid.InAdrOf(p, q) ? 1 : 0;
    }
    EXPECT_EQ(grid.AdrSize(p), count) << "p=" << p;
  }
}

TEST(GridTest, CornersMatchDefinition) {
  const Grid grid = MakeGrid(2, 4);
  const uint32_t coords[2] = {1, 2};
  const CellId cell = grid.IndexOf(coords);
  const std::vector<double> lo = grid.MinCorner(cell);
  const std::vector<double> hi = grid.MaxCorner(cell);
  EXPECT_DOUBLE_EQ(lo[0], 0.25);
  EXPECT_DOUBLE_EQ(lo[1], 0.50);
  EXPECT_DOUBLE_EQ(hi[0], 0.50);
  EXPECT_DOUBLE_EQ(hi[1], 0.75);
}

TEST(GridTest, DominanceIsCornerDominance) {
  // Definition 2: p_i dominates p_j iff p_i.max dominates p_j.min. The
  // integer-coordinate implementation must agree with corner arithmetic
  // for strictly separated cells.
  const Grid grid = MakeGrid(2, 4);
  for (CellId a = 0; a < grid.num_cells(); ++a) {
    const std::vector<double> a_max = grid.MaxCorner(a);
    for (CellId b = 0; b < grid.num_cells(); ++b) {
      const std::vector<double> b_min = grid.MinCorner(b);
      bool corner_dominates = true;
      for (size_t k = 0; k < 2; ++k) {
        if (a_max[k] > b_min[k]) {
          corner_dominates = false;
        }
      }
      EXPECT_EQ(grid.CellDominates(a, b), corner_dominates && a != b)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(GridTest, ForEachDominatedCellEnumeratesDr) {
  const Grid grid = MakeGrid(2, 3);
  std::set<CellId> dr;
  grid.ForEachDominatedCell(0, [&dr](CellId c) { dr.insert(c); });
  EXPECT_EQ(dr, (std::set<CellId>{4, 5, 7, 8}));
  dr.clear();
  grid.ForEachDominatedCell(4, [&dr](CellId c) { dr.insert(c); });
  EXPECT_EQ(dr, (std::set<CellId>{8}));
  dr.clear();
  grid.ForEachDominatedCell(8, [&dr](CellId c) { dr.insert(c); });
  EXPECT_TRUE(dr.empty());
  // Border cell: DR empty because one dimension cannot grow.
  dr.clear();
  grid.ForEachDominatedCell(2, [&dr](CellId c) { dr.insert(c); });
  EXPECT_TRUE(dr.empty());
}

TEST(GridTest, ForEachDominatedMatchesCellDominates) {
  const Grid grid = MakeGrid(3, 3);
  for (CellId p = 0; p < grid.num_cells(); ++p) {
    std::set<CellId> enumerated;
    grid.ForEachDominatedCell(
        p, [&enumerated](CellId c) { enumerated.insert(c); });
    std::set<CellId> expected;
    for (CellId q = 0; q < grid.num_cells(); ++q) {
      if (grid.CellDominates(p, q)) {
        expected.insert(q);
      }
    }
    EXPECT_EQ(enumerated, expected) << "p=" << p;
  }
}

// ---------------------------------------------------------------------
// GridSweep: one pass over several grids must bin exactly as CellOf.
// ---------------------------------------------------------------------

/// Grids PPD 2..18 over `bounds`: the candidate series the bitstring job
/// sweeps for a serve-boxes box.
std::vector<Grid> SeriesOver(const Bounds& bounds) {
  std::vector<Grid> grids;
  for (uint32_t ppd = 2; ppd <= 18; ++ppd) {
    grids.push_back(
        std::move(Grid::Create(bounds.lo.size(), ppd, bounds)).value());
  }
  return grids;
}

/// Bins every row with the sweep and with each grid's CellOf: the cells
/// must agree row by row, so the bitstrings the two build are identical.
void ExpectSweepMatchesCellOf(const std::vector<Grid>& grids,
                              const std::vector<std::vector<double>>& rows) {
  GridSweep sweep(grids);
  std::vector<DynamicBitset> swept;
  std::vector<DynamicBitset> reference;
  for (const Grid& grid : grids) {
    swept.emplace_back(grid.num_cells());
    reference.emplace_back(grid.num_cells());
  }
  for (const std::vector<double>& row : rows) {
    const std::span<const uint32_t> cells = sweep.Bin(row.data());
    ASSERT_EQ(cells.size(), grids.size());
    for (size_t i = 0; i < grids.size(); ++i) {
      const CellId expected = grids[i].CellOf(row.data());
      ASSERT_EQ(cells[i], expected)
          << "PPD " << grids[i].ppd() << " row (" << row[0] << ", "
          << row[1] << ", " << row[2] << ")";
      swept[i].Set(cells[i]);
      reference[i].Set(expected);
    }
  }
  for (size_t i = 0; i < grids.size(); ++i) {
    EXPECT_EQ(swept[i], reference[i]) << "PPD " << grids[i].ppd();
  }
}

TEST(GridSweepTest, RandomRowsMatchCellOf) {
  Bounds bounds;
  bounds.lo = {-1.0, 0.0, 2.0};
  bounds.hi = {3.0, 1.0, 2.5};
  Rng rng(31);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 5000; ++i) {
    // A margin on every side puts some rows outside the bounds.
    rows.push_back({rng.Uniform(-1.5, 3.5), rng.Uniform(-0.1, 1.1),
                    rng.Uniform(1.9, 2.6)});
  }
  ExpectSweepMatchesCellOf(SeriesOver(bounds), rows);
}

TEST(GridSweepTest, RowsOnEveryCellBoundaryMatchCellOf) {
  Bounds bounds;
  bounds.lo = {-1.0, 0.0, 0.1};
  bounds.hi = {3.0, 1.0, 0.7};
  const std::vector<Grid> grids = SeriesOver(bounds);
  // Every boundary of every grid on every axis, and the doubles on either
  // side of it; the other axes sit mid-range.
  std::vector<std::vector<double>> rows;
  for (const Grid& grid : grids) {
    for (size_t k = 0; k < 3; ++k) {
      const double width = (bounds.hi[k] - bounds.lo[k]) / grid.ppd();
      for (uint32_t j = 0; j <= grid.ppd(); ++j) {
        const double edge = j == grid.ppd() ? bounds.hi[k]
                                            : bounds.lo[k] + j * width;
        for (const double x : {std::nextafter(edge, -1e300), edge,
                               std::nextafter(edge, 1e300)}) {
          std::vector<double> row = {1.0, 0.5, 0.4};
          row[k] = x;
          rows.push_back(row);
        }
      }
    }
  }
  ExpectSweepMatchesCellOf(grids, rows);
}

TEST(GridSweepTest, RowsOutsideTheBoundsMatchCellOf) {
  const Bounds bounds = Bounds::UnitCube(3);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> specials = {-kInf, -1e300, -2.0, -0.0,
                                        nan,   2.0,    1e20, 1e300,
                                        kInf,  0.0,    1.0,  0.5};
  std::vector<std::vector<double>> rows;
  for (const double x : specials) {
    for (const double y : specials) {
      rows.push_back({x, y, 0.5});
      rows.push_back({0.5, x, y});
    }
  }
  ExpectSweepMatchesCellOf(SeriesOver(bounds), rows);
}

TEST(GridSweepTest, ZeroExtentDimensionMatchesCellOf) {
  Bounds bounds;
  bounds.lo = {0.0, 0.5, 0.0};
  bounds.hi = {1.0, 0.5, 1.0};  // The middle axis is collapsed.
  Rng rng(7);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 2000; ++i) {
    rows.push_back({rng.NextDouble(), rng.Uniform(0.0, 1.0),
                    rng.NextDouble()});
  }
  for (const double y : {0.5, -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::infinity()}) {
    rows.push_back({0.3, y, 0.6});
  }
  ExpectSweepMatchesCellOf(SeriesOver(bounds), rows);
}

TEST(GridTest, PpdOneHasNoDominance) {
  const Grid grid = MakeGrid(3, 1);
  EXPECT_EQ(grid.num_cells(), 1u);
  EXPECT_FALSE(grid.CellDominates(0, 0));
  EXPECT_FALSE(grid.InAdrOf(0, 0));
}

}  // namespace
}  // namespace skymr::core

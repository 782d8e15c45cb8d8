#include "src/core/grid.h"

#include <limits>
#include <set>

#include <gtest/gtest.h>

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

TEST(GridTest, PpdOneHasNoDominance) {
  const Grid grid = MakeGrid(3, 1);
  EXPECT_EQ(grid.num_cells(), 1u);
  EXPECT_FALSE(grid.CellDominates(0, 0));
  EXPECT_FALSE(grid.InAdrOf(0, 0));
}

}  // namespace
}  // namespace skymr::core

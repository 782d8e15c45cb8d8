#include "src/relation/box.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace skymr {
namespace {

/// The early-exit loop Box::Contains replaced, kept as the reference: the
/// branch-free test must keep its predicates exactly.
bool EarlyExitContains(const Box& box, const double* row, size_t dim) {
  for (size_t k = 0; k < dim; ++k) {
    if (row[k] < box.lo[k] || row[k] > box.hi[k]) {
      return false;
    }
  }
  return true;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(BoxTest, ContainsMatchesEarlyExitOnRandomRows) {
  // A serve-boxes-shaped box: 0.6 wide on each of 4 axes.
  Box box;
  box.lo = {0.1, 0.2, 0.3, 0.05};
  box.hi = {0.7, 0.8, 0.9, 0.65};
  ASSERT_TRUE(box.Validate(4).ok());
  Rng rng(20140324);
  size_t inside = 0;
  for (int i = 0; i < 20000; ++i) {
    double row[4];
    for (double& x : row) {
      x = rng.Uniform(-0.2, 1.2);
    }
    const bool expected = EarlyExitContains(box, row, 4);
    ASSERT_EQ(box.Contains(row, 4), expected)
        << row[0] << " " << row[1] << " " << row[2] << " " << row[3];
    inside += expected ? 1 : 0;
  }
  // Both outcomes occur, so the comparison covers each.
  EXPECT_GT(inside, 0u);
  EXPECT_LT(inside, 20000u);
}

TEST(BoxTest, ContainsMatchesEarlyExitOnEdgeRows) {
  // Boxes with ordinary, signed-zero, infinite and zero-width sides.
  std::vector<Box> boxes(4);
  boxes[0].lo = {0.0, 0.25};
  boxes[0].hi = {1.0, 0.75};
  boxes[1].lo = {-0.0, -1.0};
  boxes[1].hi = {0.0, 0.0};
  boxes[2].lo = {-kInf, 0.5};
  boxes[2].hi = {kInf, kInf};
  boxes[3].lo = {2.0, -kInf};
  boxes[3].hi = {2.0, -1.0};
  for (const Box& box : boxes) {
    ASSERT_TRUE(box.Validate(2).ok());
    // Every side's value and its neighbours, plus the special values.
    std::vector<double> values = {0.0, -0.0, kInf, -kInf, kNaN, 0.5, 2.0};
    for (size_t k = 0; k < 2; ++k) {
      for (const double edge : {box.lo[k], box.hi[k]}) {
        values.push_back(edge);
        values.push_back(std::nextafter(edge, -kInf));
        values.push_back(std::nextafter(edge, kInf));
      }
    }
    for (const double x : values) {
      for (const double y : values) {
        const double row[2] = {x, y};
        EXPECT_EQ(box.Contains(row, 2), EarlyExitContains(box, row, 2))
            << "row (" << x << ", " << y << ") box [" << box.lo[0] << ", "
            << box.hi[0] << "] x [" << box.lo[1] << ", " << box.hi[1]
            << "]";
      }
    }
  }
}

TEST(BoxTest, ClosedSidesSignedZeroAndNaN) {
  Box box;
  box.lo = {0.0, 0.0};
  box.hi = {1.0, 1.0};
  const double on_lo[] = {0.0, 0.5};
  const double on_hi[] = {1.0, 1.0};
  const double negative_zero[] = {-0.0, 0.5};
  const double below[] = {std::nextafter(0.0, -1.0), 0.5};
  const double above[] = {0.5, std::nextafter(1.0, 2.0)};
  const double nan_coordinate[] = {kNaN, 0.5};
  const double nan_and_outside[] = {kNaN, 2.0};
  EXPECT_TRUE(box.Contains(on_lo, 2));
  EXPECT_TRUE(box.Contains(on_hi, 2));
  EXPECT_TRUE(box.Contains(negative_zero, 2));  // -0.0 == 0.0.
  EXPECT_FALSE(box.Contains(below, 2));
  EXPECT_FALSE(box.Contains(above, 2));
  // NaN fails both comparisons, so it never rules a row out; another
  // coordinate still can.
  EXPECT_TRUE(box.Contains(nan_coordinate, 2));
  EXPECT_FALSE(box.Contains(nan_and_outside, 2));
}

}  // namespace
}  // namespace skymr

// Property tests for the block dominance kernels: the dispatched entry
// points and the portable fallback must agree bit-for-bit with the scalar
// Dominates/CompareDominance reference on every input family the skyline
// pipelines produce — uniform random, anti-correlated, and duplicate-heavy
// blocks, across dimensions (including the AVX2-specialized dim == 6).

#include "src/relation/dominance_kernel.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/relation/dominance.h"

namespace skymr {
namespace {

enum class Family { kUniform, kAntiCorrelated, kDuplicateHeavy };

/// A block of `count` rows in the given family plus one candidate drawn
/// from the same distribution.
struct Block {
  std::vector<double> rows;
  std::vector<double> candidate;
  size_t count;
  size_t dim;
};

Block MakeBlock(Family family, size_t count, size_t dim, Rng* rng) {
  Block block;
  block.count = count;
  block.dim = dim;
  block.rows.reserve((count + 1) * dim);
  std::vector<double> base(dim);
  for (size_t i = 0; i < count + 1; ++i) {
    std::vector<double> row(dim);
    switch (family) {
      case Family::kUniform:
        for (double& v : row) {
          v = rng->NextDouble();
        }
        break;
      case Family::kAntiCorrelated: {
        // Points near the hyperplane sum(x) = dim/2: lots of
        // incomparable pairs, the skyline-heavy regime.
        double sum = 0.0;
        for (size_t k = 0; k + 1 < dim; ++k) {
          row[k] = rng->NextDouble();
          sum += row[k];
        }
        row[dim - 1] =
            std::fabs(static_cast<double>(dim) / 2.0 - sum) /
            static_cast<double>(dim);
        break;
      }
      case Family::kDuplicateHeavy:
        // Coordinates from a 4-value alphabet: ties on most dimensions,
        // many exact duplicates and equal rows.
        for (double& v : row) {
          v = static_cast<double>(rng->NextBounded(4)) / 4.0;
        }
        break;
    }
    if (i < count) {
      block.rows.insert(block.rows.end(), row.begin(), row.end());
    } else {
      block.candidate = row;
    }
  }
  return block;
}

/// Scalar reference for FirstDominatorIndex built on CompareDominance.
size_t NaiveFirstDominator(const Block& block) {
  for (size_t i = 0; i < block.count; ++i) {
    const DominanceResult r = CompareDominance(
        block.rows.data() + i * block.dim, block.candidate.data(), block.dim);
    if (r == DominanceResult::kADominatesB) {
      return i;
    }
  }
  return block.count;
}

std::vector<Family> AllFamilies() {
  return {Family::kUniform, Family::kAntiCorrelated,
          Family::kDuplicateHeavy};
}

TEST(DominanceKernelTest, BackendNameIsKnown) {
  const std::string backend = DominanceKernelBackend();
  EXPECT_TRUE(backend == "avx2" || backend == "portable") << backend;
}

TEST(DominanceKernelTest, CoordinateSumMatchesLeftToRightAddition) {
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t dim = 1 + rng.NextBounded(10);
    std::vector<double> row(dim);
    double expected = 0.0;
    for (double& v : row) {
      v = rng.Uniform(-1.0, 1.0);
    }
    for (const double v : row) {
      expected += v;  // Same association order the kernel documents.
    }
    EXPECT_EQ(CoordinateSum(row.data(), dim), expected);
  }
}

TEST(DominanceKernelTest, CoordinateSumIsMonotoneUnderDominance) {
  // The screening key's soundness: a[k] <= b[k] for all k must imply
  // CoordinateSum(a) <= CoordinateSum(b), even with rounding.
  Rng rng(12);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t dim = 1 + rng.NextBounded(8);
    std::vector<double> a(dim);
    std::vector<double> b(dim);
    for (size_t k = 0; k < dim; ++k) {
      a[k] = rng.Uniform(-1e12, 1e12);
      b[k] = a[k] + (rng.NextBounded(2) == 0
                         ? 0.0
                         : rng.Uniform(0.0, 1e-3) * std::fabs(a[k]));
    }
    ASSERT_TRUE(DominatesOrEqual(a.data(), b.data(), dim));
    EXPECT_LE(CoordinateSum(a.data(), dim), CoordinateSum(b.data(), dim));
  }
}

TEST(DominanceKernelTest, CoordinateSumsFillsEveryRow) {
  Rng rng(13);
  const size_t dim = 5;
  const Block block = MakeBlock(Family::kUniform, 100, dim, &rng);
  std::vector<double> sums(block.count);
  CoordinateSums(block.rows.data(), block.count, dim, sums.data());
  for (size_t i = 0; i < block.count; ++i) {
    EXPECT_EQ(sums[i], CoordinateSum(block.rows.data() + i * dim, dim));
  }
}

TEST(DominanceKernelTest, FirstDominatorMatchesScalarReference) {
  Rng rng(21);
  for (const Family family : AllFamilies()) {
    for (const size_t dim : {1, 2, 3, 4, 6, 7, 9}) {
      for (int trial = 0; trial < 60; ++trial) {
        const size_t count = rng.NextBounded(64);
        const Block block = MakeBlock(family, count, dim, &rng);
        const size_t expected = NaiveFirstDominator(block);

        std::vector<double> sums(count);
        CoordinateSums(block.rows.data(), count, dim, sums.data());
        const double cand_sum = CoordinateSum(block.candidate.data(), dim);

        // Unscreened, screened, and portable must all agree.
        EXPECT_EQ(FirstDominatorIndex(block.candidate.data(), 0.0,
                                      block.rows.data(), nullptr, count, dim),
                  expected);
        EXPECT_EQ(FirstDominatorIndex(block.candidate.data(), cand_sum,
                                      block.rows.data(), sums.data(), count,
                                      dim),
                  expected);
        EXPECT_EQ(kernel_portable::FirstDominatorIndex(
                      block.candidate.data(), cand_sum, block.rows.data(),
                      sums.data(), count, dim),
                  expected);
      }
    }
  }
}

TEST(DominanceKernelTest, DominanceBitmapMatchesScalarReference) {
  Rng rng(22);
  for (const Family family : AllFamilies()) {
    for (const size_t dim : {1, 2, 4, 6, 8}) {
      for (int trial = 0; trial < 60; ++trial) {
        const size_t count = rng.NextBounded(130);
        const Block block = MakeBlock(family, count, dim, &rng);
        std::vector<double> sums(count);
        CoordinateSums(block.rows.data(), count, dim, sums.data());
        const double cand_sum = CoordinateSum(block.candidate.data(), dim);

        const size_t words = (count + 63) / 64;
        std::vector<uint64_t> dispatched(words, 0);
        std::vector<uint64_t> portable(words, 0);
        const size_t n1 = DominanceBitmap(
            block.candidate.data(), cand_sum, block.rows.data(), sums.data(),
            count, dim, dispatched.data());
        const size_t n2 = kernel_portable::DominanceBitmap(
            block.candidate.data(), cand_sum, block.rows.data(), sums.data(),
            count, dim, portable.data());

        size_t expected_count = 0;
        for (size_t i = 0; i < count; ++i) {
          const bool expected =
              CompareDominance(block.candidate.data(),
                               block.rows.data() + i * dim, dim) ==
              DominanceResult::kADominatesB;
          expected_count += expected ? 1 : 0;
          EXPECT_EQ((dispatched[i / 64] >> (i % 64)) & 1, expected ? 1u : 0u)
              << "row " << i << " dim " << dim;
          EXPECT_EQ((portable[i / 64] >> (i % 64)) & 1, expected ? 1u : 0u);
        }
        EXPECT_EQ(n1, expected_count);
        EXPECT_EQ(n2, expected_count);
      }
    }
  }
}

TEST(DominanceKernelTest, InsertScanMatchesScalarOnWindowBlocks) {
  // InsertScan requires a mutually non-dominated block, so build one the
  // way SkylineWindow does: keep only rows no earlier row dominates and
  // that dominate no earlier kept row.
  Rng rng(23);
  for (const Family family : AllFamilies()) {
    for (const size_t dim : {2, 3, 6, 8}) {
      for (int trial = 0; trial < 40; ++trial) {
        const Block raw = MakeBlock(family, 80, dim, &rng);
        std::vector<double> window;
        for (size_t i = 0; i < raw.count; ++i) {
          const double* row = raw.rows.data() + i * dim;
          const size_t n = window.size() / dim;
          bool keep = true;
          for (size_t j = 0; j < n && keep; ++j) {
            const DominanceResult r =
                CompareDominance(window.data() + j * dim, row, dim);
            keep = r != DominanceResult::kADominatesB &&
                   r != DominanceResult::kBDominatesA;
          }
          if (keep) {
            window.insert(window.end(), row, row + dim);
          }
        }
        const size_t n = window.size() / dim;

        size_t expected_first = n;
        std::vector<uint32_t> expected_evicted;
        for (size_t j = 0; j < n; ++j) {
          const DominanceResult r = CompareDominance(
              window.data() + j * dim, raw.candidate.data(), dim);
          if (r == DominanceResult::kADominatesB) {
            expected_first = j;
            break;
          }
          if (r == DominanceResult::kBDominatesA) {
            expected_evicted.push_back(static_cast<uint32_t>(j));
          }
        }

        std::vector<uint32_t> evicted;
        const size_t first = InsertScan(raw.candidate.data(), window.data(),
                                        n, dim, &evicted);
        std::vector<uint32_t> evicted_portable;
        const size_t first_portable = kernel_portable::InsertScan(
            raw.candidate.data(), window.data(), n, dim, &evicted_portable);

        EXPECT_EQ(first, expected_first);
        EXPECT_EQ(first_portable, expected_first);
        if (expected_first == n) {
          EXPECT_EQ(evicted, expected_evicted);
          EXPECT_EQ(evicted_portable, expected_evicted);
        }
      }
    }
  }
}

TEST(DominanceKernelTest, ScreeningHandlesNonFiniteCoordinates) {
  // NaN/inf rows must never be screened into a wrong answer. The scalar
  // semantics treat a NaN coordinate as "not worse" in either direction
  // (both comparisons are false), so the NaN row below — strictly better
  // on the finite coordinates — dominates the candidate, exactly as
  // `Dominates` reports. Its NaN sum compares false against the
  // candidate's, so screening must inspect it rather than skip it.
  const size_t dim = 3;
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> rows = {
      nan, 0.1, 0.1,   // NaN sum; dominates under the scalar semantics.
      0.1, 0.1, inf,   // +inf sum; incomparable.
      0.0, 0.0, 0.0,   // Dominates the candidate.
  };
  const std::vector<double> candidate = {0.5, 0.5, 0.5};
  ASSERT_TRUE(Dominates(rows.data(), candidate.data(), dim));
  std::vector<double> sums(3);
  CoordinateSums(rows.data(), 3, dim, sums.data());
  const double cand_sum = CoordinateSum(candidate.data(), dim);
  // Screened and unscreened agree with the scalar: first dominator is 0.
  EXPECT_EQ(FirstDominatorIndex(candidate.data(), cand_sum, rows.data(),
                                sums.data(), 3, dim),
            0u);
  EXPECT_EQ(FirstDominatorIndex(candidate.data(), 0.0, rows.data(), nullptr,
                                3, dim),
            0u);
  uint64_t word = 0;
  EXPECT_EQ(DominanceBitmap(candidate.data(), cand_sum, rows.data(),
                            sums.data(), 3, dim, &word),
            0u);
  EXPECT_EQ(word, 0u);
}

}  // namespace
}  // namespace skymr

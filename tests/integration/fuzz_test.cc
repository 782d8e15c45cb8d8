// Differential fuzzing: random datasets (random dimension, size,
// duplicates, coarse value grids that force ties) run through every
// algorithm and random engine configurations, always compared against the
// O(n^2) reference. Complements the structured property sweeps with
// adversarial shapes the generators never produce.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/local/skyline_window.h"
#include "src/skymr.h"
#include "tests/serve/session_test_util.h"

namespace skymr {
namespace {

using session_testing::SubmitOnce;

/// A random dataset with adversarial characteristics: coarse value grids
/// (many exact ties), duplicated rows, occasional constant dimensions.
Dataset FuzzDataset(Rng* rng) {
  const size_t dim = 1 + rng->NextBounded(5);
  const size_t n = rng->NextBounded(120);
  // Values snap to a coarse lattice with probability 1/2 to force ties.
  const bool coarse = rng->NextBounded(2) == 0;
  const uint64_t lattice = 2 + rng->NextBounded(5);
  const bool constant_dim = dim > 1 && rng->NextBounded(4) == 0;
  Dataset data(dim);
  std::vector<double> row(dim);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && rng->NextBounded(8) == 0) {
      // Exact duplicate of an earlier tuple.
      const auto src = static_cast<TupleId>(rng->NextBounded(i));
      data.Append(data.Row(src));
      continue;
    }
    for (size_t k = 0; k < dim; ++k) {
      if (constant_dim && k == 0) {
        row[k] = 0.5;
      } else if (coarse) {
        row[k] = static_cast<double>(rng->NextBounded(lattice)) /
                 static_cast<double>(lattice);
      } else {
        row[k] = rng->NextDouble();
      }
    }
    data.Append(row);
  }
  return data;
}

TEST(FuzzTest, AllAlgorithmsAgainstReference) {
  Rng rng(0xf00dcafe);
  constexpr int kCases = 60;
  const Algorithm algorithms[] = {
      Algorithm::kMrGpsrs, Algorithm::kMrGpmrs, Algorithm::kMrBnl,
      Algorithm::kMrAngle, Algorithm::kSkyMr};
  for (int trial = 0; trial < kCases; ++trial) {
    const Dataset data = FuzzDataset(&rng);
    const std::vector<TupleId> expected = ReferenceSkyline(data);
    SessionOptions options;
    QuerySpec query;
    query.algorithm = algorithms[rng.NextBounded(5)];
    options.engine.num_map_tasks = 1 + static_cast<int>(rng.NextBounded(6));
    options.engine.num_reducers = 1 + static_cast<int>(rng.NextBounded(6));
    options.ppd.max_candidate = 2 + static_cast<uint32_t>(rng.NextBounded(5));
    if (rng.NextBounded(2) == 0) {
      options.ppd.explicit_ppd = 2 + static_cast<uint32_t>(rng.NextBounded(4));
    }
    query.merge = static_cast<core::GroupMergeStrategy>(rng.NextBounded(4));
    options.unit_bounds = rng.NextBounded(2) == 0;
    auto result = SubmitOnce(data, options, query);
    ASSERT_TRUE(result.ok())
        << "trial " << trial << " " << AlgorithmName(query.algorithm)
        << ": " << result.status();
    EXPECT_TRUE(SameIdSet(result->SkylineIds(), expected))
        << "trial " << trial << " n=" << data.size()
        << " d=" << data.dim() << " algo="
        << AlgorithmName(query.algorithm)
        << " m=" << options.engine.num_map_tasks
        << " r=" << options.engine.num_reducers
        << " ppd=" << options.ppd.explicit_ppd;
  }
}

TEST(FuzzTest, ConstrainedQueriesAgainstFilteredReference) {
  Rng rng(0xdecafbad);
  constexpr int kCases = 30;
  for (int trial = 0; trial < kCases; ++trial) {
    const Dataset data = FuzzDataset(&rng);
    Box box;
    box.lo.resize(data.dim());
    box.hi.resize(data.dim());
    for (size_t k = 0; k < data.dim(); ++k) {
      const double a = rng.NextDouble();
      const double b = rng.NextDouble();
      box.lo[k] = std::min(a, b);
      box.hi[k] = std::max(a, b);
    }
    const std::vector<TupleId> expected = ReferenceSkyline(data, box);

    SessionOptions options;
    QuerySpec query;
    query.algorithm =
        rng.NextBounded(2) == 0 ? Algorithm::kMrGpsrs : Algorithm::kMrGpmrs;
    options.engine.num_map_tasks = 1 + static_cast<int>(rng.NextBounded(4));
    options.engine.num_reducers = 1 + static_cast<int>(rng.NextBounded(4));
    options.ppd.max_candidate = 4;
    query.constraint = box;
    auto result = SubmitOnce(data, options, query);
    ASSERT_TRUE(result.ok()) << "trial " << trial;
    EXPECT_TRUE(SameIdSet(result->SkylineIds(), expected))
        << "trial " << trial << " n=" << data.size()
        << " d=" << data.dim();
  }
}

TEST(FuzzTest, SerdeRoundTripsRandomWindows) {
  Rng rng(0xabad1dea);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t dim = 1 + rng.NextBounded(8);
    SkylineWindow window(dim);
    const size_t n = rng.NextBounded(40);
    std::vector<double> row(dim);
    for (size_t i = 0; i < n; ++i) {
      for (double& v : row) {
        v = rng.NextDouble();
      }
      window.AppendUnchecked(row.data(),
                             static_cast<TupleId>(rng.NextBounded(1u << 30)));
    }
    const auto round =
        DeserializeFromBytes<SkylineWindow>(SerializeToBytes(window));
    ASSERT_EQ(round, window) << "trial " << trial;
  }
}

}  // namespace
}  // namespace skymr

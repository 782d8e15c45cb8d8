// Constrained skyline queries: the skyline restricted to a box must equal
// the reference skyline of the filtered dataset, for every algorithm.

#include <gtest/gtest.h>

#include "src/skymr.h"
#include "tests/serve/session_test_util.h"

namespace skymr {
namespace {

using session_testing::SubmitOnce;

Box MiddleBox(size_t dim) {
  Box box;
  box.lo.assign(dim, 0.2);
  box.hi.assign(dim, 0.8);
  return box;
}

TEST(ConstrainedSkylineTest, AllAlgorithmsMatchFilteredReference) {
  const Dataset data = data::GenerateAntiCorrelated(2000, 3, 17);
  const Box box = MiddleBox(3);
  const std::vector<TupleId> expected = ReferenceSkyline(data, box);
  ASSERT_FALSE(expected.empty());
  for (const Algorithm algorithm :
       {Algorithm::kMrGpsrs, Algorithm::kMrGpmrs, Algorithm::kMrBnl,
        Algorithm::kMrAngle, Algorithm::kHybrid}) {
    SessionOptions options;
    QuerySpec query;
    query.algorithm = algorithm;
    options.engine.num_map_tasks = 3;
    options.engine.num_reducers = 4;
    options.ppd.max_candidate = 6;
    query.constraint = box;
    auto result = SubmitOnce(data, options, query);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm) << ": "
                             << result.status();
    EXPECT_TRUE(SameIdSet(result->SkylineIds(), expected))
        << AlgorithmName(algorithm);
  }
}

TEST(ConstrainedSkylineTest, ConstraintChangesTheAnswer) {
  // A tuple that dominates everything globally sits outside the box; the
  // constrained skyline must not contain it, and tuples it dominated can
  // resurface.
  Dataset data(2);
  data.Append({0.05, 0.05});  // Outside [0.2, 0.8]^2, dominates all.
  data.Append({0.3, 0.4});
  data.Append({0.4, 0.3});
  data.Append({0.5, 0.5});  // Dominated inside the box too.
  SessionOptions options;
  QuerySpec query;
  query.algorithm = Algorithm::kMrGpmrs;
  options.ppd.explicit_ppd = 4;
  query.constraint = MiddleBox(2);
  auto constrained = SubmitOnce(data, options, query);
  ASSERT_TRUE(constrained.ok());
  EXPECT_TRUE(SameIdSet(constrained->SkylineIds(), {1, 2}));

  QuerySpec unconstrained = query;
  unconstrained.constraint.reset();
  auto global = SubmitOnce(data, options, unconstrained);
  ASSERT_TRUE(global.ok());
  EXPECT_TRUE(SameIdSet(global->SkylineIds(), {0}));
}

TEST(ConstrainedSkylineTest, EmptyBoxEmptySkyline) {
  const Dataset data = data::GenerateIndependent(500, 2, 19);
  Box box;
  box.lo = {2.0, 2.0};  // Entirely outside the unit cube.
  box.hi = {3.0, 3.0};
  SessionOptions options;
  QuerySpec query;
  query.algorithm = Algorithm::kMrGpsrs;
  options.ppd.max_candidate = 4;
  query.constraint = box;
  auto result = SubmitOnce(data, options, query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->skyline.empty());
}

TEST(ConstrainedSkylineTest, FullBoxEqualsUnconstrained) {
  const Dataset data = data::GenerateIndependent(800, 3, 23);
  Box box;
  box.lo.assign(3, 0.0);
  box.hi.assign(3, 1.0);
  SessionOptions options;
  QuerySpec query;
  query.algorithm = Algorithm::kMrGpmrs;
  options.engine.num_reducers = 3;
  options.ppd.max_candidate = 4;
  query.constraint = box;
  auto constrained = SubmitOnce(data, options, query);
  ASSERT_TRUE(constrained.ok());
  EXPECT_EQ(ExplainSkylineMismatch(data, constrained->SkylineIds()), "");
}

TEST(ConstrainedSkylineTest, InvalidBoxRejected) {
  const Dataset data = data::GenerateIndependent(100, 2, 29);
  SessionOptions options;
  QuerySpec query;
  query.algorithm = Algorithm::kMrGpsrs;
  Box bad;
  bad.lo = {0.5};  // Wrong width.
  bad.hi = {0.6};
  query.constraint = bad;
  EXPECT_FALSE(SubmitOnce(data, options, query).ok());
  Box inverted;
  inverted.lo = {0.8, 0.8};
  inverted.hi = {0.2, 0.2};
  query.constraint = inverted;
  EXPECT_FALSE(SubmitOnce(data, options, query).ok());
}

TEST(BoxTest, ContainsSemantics) {
  Box box;
  box.lo = {0.2, 0.2};
  box.hi = {0.8, 0.8};
  const double inside[] = {0.5, 0.5};
  const double on_edge[] = {0.2, 0.8};  // Closed box: edges included.
  const double outside[] = {0.1, 0.5};
  EXPECT_TRUE(box.Contains(inside, 2));
  EXPECT_TRUE(box.Contains(on_edge, 2));
  EXPECT_FALSE(box.Contains(outside, 2));
  EXPECT_TRUE(box.Validate(2).ok());
  EXPECT_FALSE(box.Validate(3).ok());
}

}  // namespace
}  // namespace skymr

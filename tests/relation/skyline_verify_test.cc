#include "src/relation/skyline_verify.h"

#include <gtest/gtest.h>

namespace skymr {
namespace {

Dataset TwoDimExample() {
  // Skyline of these (min is better): ids 0 and 2.
  Dataset data(2);
  data.Append({0.1, 0.8});  // 0: skyline
  data.Append({0.5, 0.9});  // 1: dominated by 0 and 2
  data.Append({0.4, 0.2});  // 2: skyline
  data.Append({0.6, 0.3});  // 3: dominated by 2
  return data;
}

TEST(ReferenceSkylineTest, SimpleCase) {
  const Dataset data = TwoDimExample();
  EXPECT_EQ(ReferenceSkyline(data), (std::vector<TupleId>{0, 2}));
}

TEST(ReferenceSkylineTest, EmptyDataset) {
  Dataset data(2);
  EXPECT_TRUE(ReferenceSkyline(data).empty());
}

TEST(ReferenceSkylineTest, SingleTuple) {
  Dataset data(3);
  data.Append({0.5, 0.5, 0.5});
  EXPECT_EQ(ReferenceSkyline(data), (std::vector<TupleId>{0}));
}

TEST(ReferenceSkylineTest, DuplicateTuplesAllKept) {
  Dataset data(2);
  data.Append({0.1, 0.1});
  data.Append({0.1, 0.1});
  data.Append({0.5, 0.5});
  EXPECT_EQ(ReferenceSkyline(data), (std::vector<TupleId>{0, 1}));
}

TEST(ReferenceSkylineTest, TotallyOrderedChainKeepsOnlyBest) {
  Dataset data(2);
  data.Append({0.3, 0.3});
  data.Append({0.2, 0.2});
  data.Append({0.1, 0.1});
  EXPECT_EQ(ReferenceSkyline(data), (std::vector<TupleId>{2}));
}

TEST(ReferenceSkylineTest, BoxKeepsInBoxRowsAndTheirIds) {
  // [0.3, 1] x [0, 1] drops tuple 0, and tuple 2 dominates the rest;
  // without tuple 2, tuples 1 and 3 are incomparable.
  const Dataset data = TwoDimExample();
  const Box box{{0.3, 0.0}, {1.0, 1.0}};
  EXPECT_EQ(ReferenceSkyline(data, box), (std::vector<TupleId>{2}));
  const Box upper{{0.45, 0.25}, {1.0, 1.0}};
  EXPECT_EQ(ReferenceSkyline(data, upper), (std::vector<TupleId>{1, 3}));
}

TEST(SameIdSetTest, OrderInsensitive) {
  EXPECT_TRUE(SameIdSet({3, 1, 2}, {1, 2, 3}));
  EXPECT_FALSE(SameIdSet({1, 2}, {1, 2, 3}));
  EXPECT_FALSE(SameIdSet({1, 2, 4}, {1, 2, 3}));
  EXPECT_TRUE(SameIdSet({}, {}));
}

TEST(ExplainSkylineMismatchTest, AcceptsCorrectSkyline) {
  const Dataset data = TwoDimExample();
  EXPECT_EQ(ExplainSkylineMismatch(data, {2, 0}), "");
}

TEST(ExplainSkylineMismatchTest, RejectsDominatedTuple) {
  const Dataset data = TwoDimExample();
  const std::string msg = ExplainSkylineMismatch(data, {0, 1, 2});
  EXPECT_NE(msg.find("dominated"), std::string::npos);
}

TEST(ExplainSkylineMismatchTest, RejectsMissingTuple) {
  const Dataset data = TwoDimExample();
  const std::string msg = ExplainSkylineMismatch(data, {0});
  EXPECT_NE(msg.find("size mismatch"), std::string::npos);
}

TEST(ExplainSkylineMismatchTest, RejectsDuplicateIds) {
  const Dataset data = TwoDimExample();
  const std::string msg = ExplainSkylineMismatch(data, {0, 0});
  EXPECT_NE(msg.find("duplicate"), std::string::npos);
}

TEST(ExplainSkylineMismatchTest, RejectsOutOfRangeIds) {
  const Dataset data = TwoDimExample();
  const std::string msg = ExplainSkylineMismatch(data, {0, 99});
  EXPECT_NE(msg.find("out of range"), std::string::npos);
}

TEST(ExplainSkylineMismatchTest, BoxFormChecksAgainstInBoxRows) {
  const Dataset data = TwoDimExample();
  const Box upper{{0.45, 0.25}, {1.0, 1.0}};
  EXPECT_EQ(ExplainSkylineMismatch(data, upper, {3, 1}), "");
  EXPECT_EQ(ExplainSkylineMismatch(data, upper, {1, 3, 2}),
            "tuple id 2 lies outside the constraint box");
  EXPECT_EQ(ExplainSkylineMismatch(data, upper, {1}),
            "skyline size mismatch: got 1, expected 2");
}

}  // namespace
}  // namespace skymr

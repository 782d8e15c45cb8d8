#include "src/core/messages.h"

#include <vector>

#include <gtest/gtest.h>

namespace skymr::core {
namespace {

SkylineWindow MakeWindow(std::vector<std::pair<TupleId, std::vector<double>>>
                             tuples,
                         size_t dim) {
  SkylineWindow window(dim);
  for (const auto& [id, row] : tuples) {
    window.AppendUnchecked(row.data(), id);
  }
  return window;
}

TEST(MessagesSerdeTest, PartitionSkylineRoundTrip) {
  PartitionSkyline part;
  part.cell = 42;
  part.window = MakeWindow({{1, {0.1, 0.9}}, {2, {0.9, 0.1}}}, 2);
  const auto round =
      DeserializeFromBytes<PartitionSkyline>(SerializeToBytes(part));
  EXPECT_EQ(round, part);
}

TEST(MessagesSerdeTest, LocalSkylineSetRoundTrip) {
  LocalSkylineSet set;
  set.parts.push_back({7, MakeWindow({{3, {0.5, 0.5}}}, 2)});
  set.parts.push_back({9, SkylineWindow(2)});
  const auto round =
      DeserializeFromBytes<LocalSkylineSet>(SerializeToBytes(set));
  EXPECT_EQ(round, set);
  // Shuffle byte accounting and arena sizing count the payload instead
  // of encoding it: the count must be the encoding's length.
  EXPECT_EQ(SerializedByteSize(set), SerializeToBytes(set).size());
  EXPECT_EQ(SerializedByteSize(LocalSkylineSet{}),
            SerializeToBytes(LocalSkylineSet{}).size());
}

TEST(MessagesSerdeTest, GroupPayloadRoundTrip) {
  GroupPayload payload;
  payload.reducer_group = 3;
  payload.responsible = {1, 5, 9};
  payload.parts.push_back({5, MakeWindow({{0, {0.2, 0.3, 0.4}}}, 3)});
  const auto round =
      DeserializeFromBytes<GroupPayload>(SerializeToBytes(payload));
  EXPECT_EQ(round.reducer_group, 3u);
  EXPECT_EQ(round.responsible, payload.responsible);
  EXPECT_EQ(round.parts, payload.parts);
}

TEST(MergePartsTest, MergesPerCellWithDominance) {
  CellWindowMap windows;
  DominanceCounter counter;
  // Mapper 1: cell 4 holds {0.5, 0.5}.
  MergeParts({{4, MakeWindow({{0, {0.5, 0.5}}}, 2)}}, 2, &windows,
             &counter);
  // Mapper 2: cell 4 holds {0.4, 0.4} (dominates) and cell 7 a tuple.
  MergeParts({{4, MakeWindow({{1, {0.4, 0.4}}}, 2)},
              {7, MakeWindow({{2, {0.1, 0.8}}}, 2)}},
             2, &windows, &counter);
  ASSERT_EQ(windows.size(), 2u);
  ASSERT_EQ(windows[4].size(), 1u);
  EXPECT_EQ(windows[4].IdAt(0), 1u);
  EXPECT_EQ(windows[7].size(), 1u);
  EXPECT_GT(counter.count(), 0u);
}

TEST(MergePartsTest, IncomparableTuplesAccumulate) {
  CellWindowMap windows;
  MergeParts({{0, MakeWindow({{0, {0.1, 0.9}}}, 2)}}, 2, &windows, nullptr);
  MergeParts({{0, MakeWindow({{1, {0.9, 0.1}}}, 2)}}, 2, &windows, nullptr);
  EXPECT_EQ(windows[0].size(), 2u);
}

TEST(MergePartsTest, MergesOnlyTargetsAndAppendsTheRest) {
  CellWindowMap windows;
  DominanceCounter counter;
  const std::vector<CellId> targets = {4};
  // Each cell gets a tuple and then one that dominates it.
  MergeParts({{4, MakeWindow({{0, {0.5, 0.5}}}, 2)},
              {7, MakeWindow({{1, {0.8, 0.8}}}, 2)}},
             2, &windows, &counter, &targets);
  MergeParts({{4, MakeWindow({{2, {0.4, 0.4}}}, 2)},
              {7, MakeWindow({{3, {0.7, 0.7}}}, 2)}},
             2, &windows, &counter, &targets);
  // The target merged with InsertTuple; cell 7 is a source-only window
  // holding both rows, dominated one included, with no tests spent.
  ASSERT_EQ(windows[4].size(), 1u);
  EXPECT_EQ(windows[4].IdAt(0), 2u);
  EXPECT_EQ(windows[7].ids(), (std::vector<TupleId>{1, 3}));
  EXPECT_EQ(counter.count(), 1u);
}

TEST(MergePartsTest, ForeignDimPartIsCleanUnderflow) {
  // A dim-1 part decodes cleanly (its window shape is self-consistent),
  // but a dim-6 job reading it would read 6 doubles per 1-double row.
  PartitionSkyline foreign;
  foreign.cell = 3;
  foreign.window = MakeWindow({{0, {0.5}}, {1, {0.25}}}, 1);
  const auto decoded =
      DeserializeFromBytes<PartitionSkyline>(SerializeToBytes(foreign));
  ASSERT_EQ(decoded.window.dim(), 1u);
  CellWindowMap windows;
  DominanceCounter counter;
  EXPECT_THROW(MergeParts({decoded}, 6, &windows, &counter), SerdeUnderflow);
  EXPECT_EQ(counter.count(), 0u);
  // An empty part has no rows to misread, whatever its dim.
  EXPECT_NO_THROW(MergeParts({{3, SkylineWindow(1)}}, 6, &windows, nullptr));
  // A part bound for a source-only window is checked the same way.
  const std::vector<CellId> targets = {9};
  EXPECT_THROW(MergeParts({decoded}, 6, &windows, &counter, &targets),
               SerdeUnderflow);
  ASSERT_EQ(windows.count(3), 1u);
  EXPECT_EQ(windows[3].dim(), 6u);
}

TEST(UnionWindowsTest, ConcatenatesInCellOrder) {
  CellWindowMap windows;
  windows.emplace(9, MakeWindow({{5, {0.9, 0.1}}}, 2));
  windows.emplace(2, MakeWindow({{3, {0.1, 0.9}}}, 2));
  const SkylineWindow out = UnionWindows(windows, 2);
  ASSERT_EQ(out.size(), 2u);
  // std::map iterates ascending: cell 2 first.
  EXPECT_EQ(out.IdAt(0), 3u);
  EXPECT_EQ(out.IdAt(1), 5u);
}

TEST(UnionWindowsTest, EmptyMap) {
  EXPECT_TRUE(UnionWindows({}, 3).empty());
}

}  // namespace
}  // namespace skymr::core

#include "src/common/dynamic_bitset.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace skymr {
namespace {

TEST(DynamicBitsetTest, ConstructionAllClear) {
  DynamicBitset bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_EQ(bits.Count(), 0u);
  EXPECT_TRUE(bits.None());
  EXPECT_FALSE(bits.All());
  for (size_t i = 0; i < bits.size(); ++i) {
    EXPECT_FALSE(bits.Test(i));
  }
}

TEST(DynamicBitsetTest, SetAndReset) {
  DynamicBitset bits(100);
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Set(99);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(63));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(99));
  EXPECT_EQ(bits.Count(), 4u);
  bits.Reset(63);
  EXPECT_FALSE(bits.Test(63));
  EXPECT_EQ(bits.Count(), 3u);
}

TEST(DynamicBitsetTest, FromStringRoundTrip) {
  // The paper's Figure 2 bitstring.
  const std::string text = "011110100";
  const DynamicBitset bits = DynamicBitset::FromString(text);
  EXPECT_EQ(bits.size(), 9u);
  EXPECT_EQ(bits.Count(), 5u);
  EXPECT_EQ(bits.ToString(), text);
  EXPECT_FALSE(bits.Test(0));
  EXPECT_TRUE(bits.Test(1));
  EXPECT_TRUE(bits.Test(6));
  EXPECT_FALSE(bits.Test(8));
}

TEST(DynamicBitsetTest, FillAndAll) {
  DynamicBitset bits(70);
  bits.Fill();
  EXPECT_TRUE(bits.All());
  EXPECT_EQ(bits.Count(), 70u);
  // Tail bits beyond size must stay zero so Count is exact.
  bits.Clear();
  EXPECT_TRUE(bits.None());
}

TEST(DynamicBitsetTest, FindFirstNextLast) {
  DynamicBitset bits(200);
  EXPECT_EQ(bits.FindFirst(), 200u);
  EXPECT_EQ(bits.FindLast(), 200u);
  bits.Set(5);
  bits.Set(64);
  bits.Set(199);
  EXPECT_EQ(bits.FindFirst(), 5u);
  EXPECT_EQ(bits.FindNext(5), 64u);
  EXPECT_EQ(bits.FindNext(64), 199u);
  EXPECT_EQ(bits.FindNext(199), 200u);
  EXPECT_EQ(bits.FindLast(), 199u);
}

TEST(DynamicBitsetTest, FindNextFromUnsetPosition) {
  DynamicBitset bits(128);
  bits.Set(100);
  EXPECT_EQ(bits.FindNext(0), 100u);
  EXPECT_EQ(bits.FindNext(99), 100u);
  EXPECT_EQ(bits.FindNext(100), 128u);
  EXPECT_EQ(bits.FindNext(127), 128u);
}

TEST(DynamicBitsetTest, IterationOrderAscending) {
  DynamicBitset bits(150);
  const std::vector<size_t> expected = {3, 64, 65, 127, 128, 149};
  for (const size_t i : expected) {
    bits.Set(i);
  }
  std::vector<size_t> seen;
  bits.ForEachSetBit([&seen](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(DynamicBitsetTest, OrMergesLikeAlgorithm2) {
  // BS_R = BS_R1 | BS_R2 | ... (Section 3.2).
  DynamicBitset a = DynamicBitset::FromString("0101");
  const DynamicBitset b = DynamicBitset::FromString("0011");
  a |= b;
  EXPECT_EQ(a.ToString(), "0111");
}

TEST(DynamicBitsetTest, AndAndAndNot) {
  DynamicBitset a = DynamicBitset::FromString("1100");
  const DynamicBitset b = DynamicBitset::FromString("1010");
  DynamicBitset c = a;
  c &= b;
  EXPECT_EQ(c.ToString(), "1000");
  a.AndNot(b);
  EXPECT_EQ(a.ToString(), "0100");
}

TEST(DynamicBitsetTest, EqualityAndCopy) {
  DynamicBitset a(77);
  a.Set(3);
  a.Set(76);
  DynamicBitset b = a;
  EXPECT_EQ(a, b);
  b.Reset(76);
  EXPECT_NE(a, b);
}

TEST(DynamicBitsetTest, FromWordsRespectsTailTrim) {
  // Words may carry garbage above `size`; FromWords must trim.
  std::vector<uint64_t> words = {~uint64_t{0}};
  const DynamicBitset bits = DynamicBitset::FromWords(10, std::move(words));
  EXPECT_EQ(bits.Count(), 10u);
  EXPECT_TRUE(bits.All());
}

TEST(DynamicBitsetTest, EmptyBitset) {
  DynamicBitset bits;
  EXPECT_TRUE(bits.empty());
  EXPECT_TRUE(bits.None());
  EXPECT_EQ(bits.Count(), 0u);
  EXPECT_EQ(bits.FindFirst(), 0u);
}

TEST(DynamicBitsetTest, RandomizedAgainstReference) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t size = 1 + rng.NextBounded(300);
    DynamicBitset bits(size);
    std::vector<bool> reference(size, false);
    for (int op = 0; op < 200; ++op) {
      const size_t i = rng.NextBounded(size);
      if (rng.NextBounded(2) == 0) {
        bits.Set(i);
        reference[i] = true;
      } else {
        bits.Reset(i);
        reference[i] = false;
      }
    }
    size_t expected_count = 0;
    for (size_t i = 0; i < size; ++i) {
      EXPECT_EQ(bits.Test(i), reference[i]);
      expected_count += reference[i] ? 1 : 0;
    }
    EXPECT_EQ(bits.Count(), expected_count);
  }
}

}  // namespace
}  // namespace skymr

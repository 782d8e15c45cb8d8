#include "src/common/serde.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/local/skyline_window.h"

namespace skymr {
namespace {

template <typename T>
T RoundTrip(const T& value) {
  return DeserializeFromBytes<T>(SerializeToBytes(value));
}

TEST(SerdeTest, Arithmetic) {
  EXPECT_EQ(RoundTrip<int>(-42), -42);
  EXPECT_EQ(RoundTrip<uint64_t>(uint64_t{1} << 63), uint64_t{1} << 63);
  EXPECT_DOUBLE_EQ(RoundTrip<double>(3.14159), 3.14159);
  EXPECT_EQ(RoundTrip<bool>(true), true);
  EXPECT_EQ(RoundTrip<char>('x'), 'x');
}

TEST(SerdeTest, String) {
  EXPECT_EQ(RoundTrip<std::string>(""), "");
  EXPECT_EQ(RoundTrip<std::string>("hello world"), "hello world");
  const std::string binary("\x00\x01\xffz", 4);
  EXPECT_EQ(RoundTrip(binary), binary);
}

TEST(SerdeTest, Pair) {
  const std::pair<int, std::string> p{7, "seven"};
  EXPECT_EQ(RoundTrip(p), p);
}

TEST(SerdeTest, VectorOfTrivial) {
  const std::vector<double> v{1.0, -2.5, 1e300};
  EXPECT_EQ(RoundTrip(v), v);
  EXPECT_EQ(RoundTrip(std::vector<int>{}), std::vector<int>{});
}

TEST(SerdeTest, VectorOfStrings) {
  const std::vector<std::string> v{"a", "", "long string with spaces"};
  EXPECT_EQ(RoundTrip(v), v);
}

TEST(SerdeTest, NestedVectors) {
  const std::vector<std::vector<uint32_t>> v{{1, 2}, {}, {3}};
  EXPECT_EQ(RoundTrip(v), v);
}

TEST(SerdeTest, DynamicBitset) {
  DynamicBitset bits(131);
  bits.Set(0);
  bits.Set(64);
  bits.Set(130);
  const DynamicBitset round = RoundTrip(bits);
  EXPECT_EQ(round, bits);
  EXPECT_EQ(round.size(), 131u);
}

TEST(SerdeTest, SkylineWindow) {
  SkylineWindow window(2);
  const double a[] = {0.5, 0.4};
  const double b[] = {0.1, 0.9};
  window.Insert(a, 10, nullptr);
  window.Insert(b, 20, nullptr);
  const SkylineWindow round = RoundTrip(window);
  EXPECT_EQ(round, window);
  EXPECT_EQ(round.dim(), 2u);
  EXPECT_EQ(round.size(), 2u);
}

/// The counted size of `value` is the length of its encoding.
template <typename T>
void ExpectCountedSizeIsEncodedSize(const T& value) {
  EXPECT_EQ(SerializedByteSize(value), SerializeToBytes(value).size());
}

TEST(SerdeTest, SerializedByteSizeMatchesBuffer) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_EQ(SerializedByteSize(v), SerializeToBytes(v).size());
  EXPECT_EQ(SerializedByteSize(v), sizeof(uint64_t) + 3 * sizeof(double));
  // Every wire type the shuffle carries (core's message types are
  // checked next to their Serde specializations).
  ExpectCountedSizeIsEncodedSize(int{-42});
  ExpectCountedSizeIsEncodedSize(uint64_t{7});
  ExpectCountedSizeIsEncodedSize(std::string());
  ExpectCountedSizeIsEncodedSize(std::string("hello world"));
  ExpectCountedSizeIsEncodedSize(std::pair<int, std::string>{7, "seven"});
  ExpectCountedSizeIsEncodedSize(std::pair<uint32_t, double>{3, 0.5});
  ExpectCountedSizeIsEncodedSize(std::vector<double>{});
  ExpectCountedSizeIsEncodedSize(std::vector<std::string>{"a", "", "bc"});
  ExpectCountedSizeIsEncodedSize(
      std::vector<std::vector<uint32_t>>{{1, 2}, {}, {3}});
  ExpectCountedSizeIsEncodedSize(
      std::vector<std::pair<uint32_t, uint64_t>>{{2, 4}, {3, 9}});
  ExpectCountedSizeIsEncodedSize(DynamicBitset());
  DynamicBitset bits(131);
  bits.Set(0);
  bits.Set(130);
  ExpectCountedSizeIsEncodedSize(bits);
  ExpectCountedSizeIsEncodedSize(SkylineWindow(2));
  SkylineWindow window(2);
  const double a[] = {0.5, 0.4};
  const double b[] = {0.1, 0.9};
  window.Insert(a, 10, nullptr);
  window.Insert(b, 20, nullptr);
  ExpectCountedSizeIsEncodedSize(window);
}

TEST(SerdeTest, CountingSinkStoresNothing) {
  ByteSink sink = ByteSink::Counting();
  Serde<std::string>::Write("hello", &sink);
  Serde<double>::Write(1.5, &sink);
  EXPECT_EQ(sink.size(), sizeof(uint64_t) + 5 + sizeof(double));
  EXPECT_TRUE(sink.buffer().empty());
}

TEST(SerdeTest, ReservedSinkHoldsExactlyTheReservedBytes) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  ByteSink sink;
  sink.Reserve(SerializedByteSize(v));
  Serde<std::vector<double>>::Write(v, &sink);
  EXPECT_EQ(sink.size(), SerializedByteSize(v));
  EXPECT_EQ(sink.buffer().capacity(), sink.size());
}

TEST(SerdeTest, SequentialReadsFromOneBuffer) {
  ByteSink sink;
  Serde<int>::Write(1, &sink);
  Serde<std::string>::Write("two", &sink);
  Serde<double>::Write(3.0, &sink);
  ByteSource source(sink.buffer());
  EXPECT_EQ(Serde<int>::Read(&source), 1);
  EXPECT_EQ(Serde<std::string>::Read(&source), "two");
  EXPECT_DOUBLE_EQ(Serde<double>::Read(&source), 3.0);
  EXPECT_TRUE(source.AtEnd());
}

TEST(SerdeTest, SkylineWindowByteSizeIsExact) {
  SkylineWindow window(3);
  const double a[] = {0.5, 0.4, 0.3};
  window.Insert(a, 1, nullptr);
  EXPECT_EQ(window.ByteSize(), SerializeToBytes(window).size());
}

TEST(SerdeTest, RawReadPastEndThrowsInEveryBuildMode) {
  const std::vector<uint8_t> bytes{1, 2, 3};
  ByteSource source(bytes);
  EXPECT_EQ(source.ReadRaw<uint8_t>(), 1u);
  EXPECT_THROW(source.ReadRaw<uint64_t>(), SerdeUnderflow);
  // A failed read consumes nothing: the source stays usable.
  EXPECT_EQ(source.remaining(), 2u);
  EXPECT_EQ(source.ReadRaw<uint8_t>(), 2u);
}

TEST(SerdeTest, TruncatedStringThrowsInsteadOfAllocating) {
  // A corrupt length prefix must neither read out of bounds nor trigger
  // a giant allocation before the bounds check.
  ByteSink sink;
  Serde<std::string>::Write("hello world", &sink);
  for (const size_t keep : {0u, 4u, 8u, 12u}) {
    ByteSource truncated(sink.data(), std::min(keep, sink.size()));
    EXPECT_THROW(Serde<std::string>::Read(&truncated), SerdeUnderflow)
        << "keep=" << keep;
  }
}

TEST(SerdeTest, TruncatedVectorThrows) {
  ByteSink sink;
  Serde<std::vector<double>>::Write({1.0, 2.0, 3.0}, &sink);
  for (size_t keep = 0; keep < sink.size(); keep += 5) {
    ByteSource truncated(sink.data(), keep);
    EXPECT_THROW(Serde<std::vector<double>>::Read(&truncated),
                 SerdeUnderflow)
        << "keep=" << keep;
  }
  // Nested (non-trivial element) vectors underflow on the element reads.
  ByteSink nested;
  Serde<std::vector<std::string>>::Write({"aa", "bb"}, &nested);
  ByteSource truncated(nested.data(), nested.size() - 1);
  EXPECT_THROW(Serde<std::vector<std::string>>::Read(&truncated),
               SerdeUnderflow);
}

TEST(SerdeTest, LengthPrefixBombRejectedBeforeAllocating) {
  // A claimed element count whose byte size overflows (or vastly exceeds
  // the remaining input) must be rejected by the length check up front —
  // not by attempting a multi-exabyte allocation. count * sizeof(double)
  // for 2^61 elements wraps a 64-bit size, the classic overflow shape.
  ByteSink sink;
  sink.AppendRaw<uint64_t>(uint64_t{1} << 61);
  sink.AppendRaw<double>(1.0);  // A sliver of "payload" after the bomb.
  ByteSource source(sink.data(), sink.size());
  EXPECT_THROW(Serde<std::vector<double>>::Read(&source), SerdeUnderflow);

  // Same bomb against the string decoder (element size 1, no multiply
  // overflow — the remaining-bytes bound alone must reject it).
  ByteSink str_sink;
  str_sink.AppendRaw<uint64_t>(uint64_t{1} << 61);
  ByteSource str_source(str_sink.data(), str_sink.size());
  EXPECT_THROW(Serde<std::string>::Read(&str_source), SerdeUnderflow);
}

TEST(SerdeTest, WindowShapeMismatchThrows) {
  // A window payload that decodes field-by-field but whose row count and
  // value count disagree would make every RowAt an out-of-bounds read;
  // the decoder must reject it like a truncation. Claim 2 ids but ship
  // values for a single 2-d row.
  ByteSink sink;
  sink.AppendRaw<uint64_t>(2);  // dim
  Serde<std::vector<TupleId>>::Write({7, 8}, &sink);
  Serde<std::vector<double>>::Write({0.25, 0.75}, &sink);
  ByteSource source(sink.data(), sink.size());
  EXPECT_THROW(Serde<SkylineWindow>::Read(&source), SerdeUnderflow);

  // dim == 0 with non-empty values is the other inconsistent shape.
  ByteSink zero_dim;
  zero_dim.AppendRaw<uint64_t>(0);
  Serde<std::vector<TupleId>>::Write({1}, &zero_dim);
  Serde<std::vector<double>>::Write({0.5}, &zero_dim);
  ByteSource zero_source(zero_dim.data(), zero_dim.size());
  EXPECT_THROW(Serde<SkylineWindow>::Read(&zero_source), SerdeUnderflow);
}

TEST(SerdeTest, TruncatedBitsetAndWindowThrow) {
  DynamicBitset bits(200);
  bits.Set(199);
  ByteSink sink;
  Serde<DynamicBitset>::Write(bits, &sink);
  ByteSource truncated(sink.data(), sink.size() - sizeof(uint64_t));
  EXPECT_THROW(Serde<DynamicBitset>::Read(&truncated), SerdeUnderflow);

  SkylineWindow window(2);
  const double a[] = {0.5, 0.4};
  window.Insert(a, 1, nullptr);
  ByteSink wsink;
  Serde<SkylineWindow>::Write(window, &wsink);
  ByteSource wtruncated(wsink.data(), wsink.size() - 1);
  EXPECT_THROW(Serde<SkylineWindow>::Read(&wtruncated), SerdeUnderflow);
}

}  // namespace
}  // namespace skymr

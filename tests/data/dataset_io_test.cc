#include "src/data/dataset_io.h"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include <gtest/gtest.h>

#include "src/data/generator.h"

namespace skymr::data {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  bits.reserve(values.size());
  for (const double v : values) {
    bits.push_back(std::bit_cast<uint64_t>(v));
  }
  return bits;
}

void WriteFile(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

/// Loads `text` from a file and from a string, expects both entry points
/// to agree, and returns the string result.
StatusOr<Dataset> LoadBoth(std::string_view text, bool has_header = false) {
  const std::string path = TempPath("skymr_io_case.csv");
  WriteFile(path, text);
  auto from_file = LoadCsv(path, has_header);
  std::remove(path.c_str());
  auto from_text = LoadCsvFromString(text, has_header);
  EXPECT_EQ(from_file.ok(), from_text.ok());
  if (from_file.ok() && from_text.ok()) {
    EXPECT_EQ(from_file->dim(), from_text->dim());
    EXPECT_EQ(Bits(from_file->values()), Bits(from_text->values()));
  } else if (!from_file.ok() && !from_text.ok()) {
    EXPECT_EQ(from_file.status().code(), from_text.status().code());
  }
  return from_text;
}

/// The rejection message for `text`, or "accepted".
std::string Rejection(std::string_view text, bool has_header = false) {
  auto loaded = LoadBoth(text, has_header);
  return loaded.ok() ? "accepted" : loaded.status().message();
}

std::vector<double> Values(std::string_view text, bool has_header = false) {
  auto loaded = LoadBoth(text, has_header);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  return loaded.ok() ? loaded->values() : std::vector<double>{};
}

TEST(DatasetIoTest, RoundTripWithoutHeader) {
  const Dataset original = GenerateIndependent(50, 3, 42);
  const std::string path = TempPath("skymr_io_roundtrip.csv");
  ASSERT_TRUE(SaveCsv(original, path).ok());
  auto loaded = LoadCsv(path, /*has_header=*/false);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dim(), 3u);
  EXPECT_EQ(loaded->size(), 50u);
  // %.17g output preserves doubles exactly.
  EXPECT_EQ(loaded->values(), original.values());
  std::remove(path.c_str());
}

TEST(DatasetIoTest, RoundTripWithHeader) {
  Dataset original(2);
  original.Append({0.25, 0.75});
  const std::string path = TempPath("skymr_io_header.csv");
  ASSERT_TRUE(SaveCsv(original, path, {"price", "distance"}).ok());
  auto loaded = LoadCsv(path, /*has_header=*/true);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
  EXPECT_DOUBLE_EQ(loaded->Row(0)[1], 0.75);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, SaveWritesPercent17gFieldsBitExactly) {
  const std::vector<double> values{
      0.1,     -0.0,    1.0 / 3.0, 4e-320, 1e300, -2.2250738585072014e-308,
      1e-5,    123456789.0,  std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), 5e-324, 0.5};
  auto data = Dataset::FromFlat(3, values);
  ASSERT_TRUE(data.ok());
  std::string expected = "a,\"b,c\",d\n";
  char field[64];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(field, sizeof(field), "%.17g", values[i]);
    expected += field;
    expected += (i % 3 == 2) ? '\n' : ',';
  }
  auto text = SaveCsvToString(*data, {"a", "b,c", "d"});
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, expected);

  const std::string path = TempPath("skymr_io_exact.csv");
  ASSERT_TRUE(SaveCsv(*data, path, {"a", "b,c", "d"}).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(file, expected);
  std::remove(path.c_str());

  auto loaded = LoadCsvFromString(*text, /*has_header=*/true);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(Bits(loaded->values()), Bits(values));
}

TEST(DatasetIoTest, ChunkedFileLoadMatchesWholeText) {
  // Rows cross LoadCsv's read chunks, and one row is longer than a chunk.
  const Dataset tall = GenerateAntiCorrelated(30000, 4, 7);
  const Dataset wide = GenerateIndependent(3, 20000, 8);
  for (const Dataset* data : {&tall, &wide}) {
    auto text = SaveCsvToString(*data);
    ASSERT_TRUE(text.ok());
    auto loaded = LoadBoth(*text);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->dim(), data->dim());
    EXPECT_EQ(Bits(loaded->values()), Bits(data->values()));
  }
}

TEST(DatasetIoTest, ErrorLineCountsAcrossChunks) {
  auto text = SaveCsvToString(GenerateIndependent(30000, 4, 9));
  ASSERT_TRUE(text.ok());
  std::string bad = *text + "0.5,oops,0.5,0.5\n";
  EXPECT_EQ(Rejection(bad),
            "CSV field is not a number: 'oops' at line 30001");
}

TEST(DatasetIoTest, HeaderWidthMismatchRejected) {
  Dataset original(2);
  original.Append({0.1, 0.2});
  EXPECT_FALSE(SaveCsv(original, TempPath("x.csv"), {"only-one"}).ok());
}

TEST(DatasetIoTest, HeaderNameWithLineBreakRejected) {
  Dataset original(2);
  original.Append({0.1, 0.2});
  const std::string path = TempPath("skymr_io_break.csv");
  std::remove(path.c_str());
  for (const std::string name : {"b\nc", "b\rc", "b\r\n"}) {
    EXPECT_EQ(SaveCsv(original, path, {"a", name}).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(SaveCsvToString(original, {"a", name}).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  // Commas and quotes in names still round-trip through the header line.
  auto text = SaveCsvToString(original, {"a,\"b\"", "c"});
  ASSERT_TRUE(text.ok());
  EXPECT_TRUE(LoadCsvFromString(*text, /*has_header=*/true).ok());
}

TEST(DatasetIoTest, NonNumericFieldRejected) {
  EXPECT_EQ(Rejection("0.1,0.2\n0.3,oops\n"),
            "CSV field is not a number: 'oops' at line 2");
}

TEST(DatasetIoTest, RaggedRowsRejected) {
  EXPECT_EQ(Rejection("0.1,0.2\n0.3\n"), "CSV row width mismatch at line 2");
  EXPECT_EQ(Rejection("0.1,0.2\n0.3,0.4,0.5\n"),
            "CSV row width mismatch at line 2");
}

TEST(DatasetIoTest, LineNumbersCountHeaderAndBlankLines) {
  EXPECT_EQ(Rejection("0.1,0.2\n\n0.3\n"), "CSV row width mismatch at line 3");
  EXPECT_EQ(Rejection("x,y\r\n\r\n0.1,0.2\r\n0.3,z\r\n", true),
            "CSV field is not a number: 'z' at line 4");
}

TEST(DatasetIoTest, HeaderOnlyFileRejected) {
  EXPECT_EQ(LoadCsvFromString("a,b\n", true).status().message(),
            "CSV has no data rows: inline text");
  EXPECT_FALSE(LoadBoth("a,b\n", true).ok());
  EXPECT_FALSE(LoadBoth("", false).ok());
  EXPECT_FALSE(LoadBoth("\n\r\n", false).ok());
}

TEST(DatasetIoTest, MissingFileIsIoError) {
  EXPECT_EQ(LoadCsv("/no/such/file.csv", false).status().code(),
            StatusCode::kIoError);
}

TEST(DatasetIoTest, UnwritablePathIsIoError) {
  Dataset data(1);
  data.Append({0.5});
  EXPECT_EQ(SaveCsv(data, "/nonexistent/dir/file.csv").code(),
            StatusCode::kIoError);
}

TEST(DatasetIoTest, BlankLinesSkipped) {
  EXPECT_EQ(Values("0.1,0.2\n\n\n0.3,0.4\n"),
            (std::vector<double>{0.1, 0.2, 0.3, 0.4}));
  EXPECT_EQ(Values("\n\nx,y\n\n0.1,0.2\n", true),
            (std::vector<double>{0.1, 0.2}));
}

// The accepted set, one case per decision (see dataset_io.h).

TEST(DatasetIoAcceptsTest, LeadingBlanks) {
  EXPECT_EQ(Values(" 0.5,\t0.25\n0.5, 0.25\n"),
            (std::vector<double>{0.5, 0.25, 0.5, 0.25}));
}

TEST(DatasetIoAcceptsTest, LeadingPlus) {
  EXPECT_EQ(Values("+0.5,+1e-3\n"), (std::vector<double>{0.5, 1e-3}));
  EXPECT_EQ(Rejection("+-0.5\n"),
            "CSV field is not a number: '+-0.5' at line 1");
  EXPECT_EQ(Rejection("++0.5\n"),
            "CSV field is not a number: '++0.5' at line 1");
}

TEST(DatasetIoAcceptsTest, QuotedNumbers) {
  EXPECT_EQ(Values("\"0.5\",0.25\n0.125,\"1\"\n"),
            (std::vector<double>{0.5, 0.25, 0.125, 1.0}));
}

TEST(DatasetIoAcceptsTest, Infinities) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Values("inf,-inf,infinity,INF\n"),
            (std::vector<double>{inf, -inf, inf, inf}));
}

TEST(DatasetIoAcceptsTest, CrlfAndMissingFinalNewline) {
  EXPECT_EQ(Values("0.1,0.2\r\n0.3,0.4"),
            (std::vector<double>{0.1, 0.2, 0.3, 0.4}));
}

TEST(DatasetIoAcceptsTest, DenormalsLoad) {
  const std::vector<double> values = Values("4e-320,5e-324,0e-400\n");
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0], 4e-320);
  EXPECT_EQ(values[1], 5e-324);
  EXPECT_EQ(values[2], 0.0);
}

TEST(DatasetIoRejectsTest, TrailingBlanks) {
  EXPECT_EQ(Rejection("0.5 ,0.25\n"),
            "CSV field is not a number: '0.5 ' at line 1");
  EXPECT_EQ(Rejection("0.5,0.25\t\n"),
            "CSV field is not a number: '0.25\t' at line 1");
}

TEST(DatasetIoRejectsTest, EmptyFields) {
  EXPECT_EQ(Rejection("0.5,\n"), "CSV field is not a number: '' at line 1");
  EXPECT_EQ(Rejection("0.5,0.25\n,0.25\n"),
            "CSV field is not a number: '' at line 2");
}

TEST(DatasetIoRejectsTest, NaN) {
  // A NaN tuple dominates nothing, yet the grid files it in the all-low
  // cell: accepting it would let that cell prune cells it does not
  // dominate.
  EXPECT_EQ(Rejection("nan,nan\n0.9,0.9\n0.8,0.95\n0.95,0.8\n"),
            "CSV field is NaN: 'nan' at line 1");
  EXPECT_EQ(Rejection("0.5,0.5\n0.5,-nan\n"),
            "CSV field is NaN: '-nan' at line 2");
  EXPECT_EQ(Rejection("0.5,\"NAN\"\n"), "CSV field is NaN: 'NAN' at line 1");
}

TEST(DatasetIoRejectsTest, HexFloats) {
  EXPECT_EQ(Rejection("0x1p-1\n"),
            "CSV field is not a number: '0x1p-1' at line 1");
  EXPECT_EQ(Rejection("0.5,-0X1P0\n"),
            "CSV field is not a number: '-0X1P0' at line 1");
}

TEST(DatasetIoRejectsTest, MagnitudesOutOfRange) {
  EXPECT_EQ(Rejection("0.5\n1e400\n"),
            "CSV field is out of range: '1e400' at line 2");
  EXPECT_EQ(Rejection("0.5\n\n-1e-400\n"),
            "CSV field is out of range: '-1e-400' at line 3");
}

TEST(DatasetIoRejectsTest, EmbeddedNul) {
  using namespace std::string_literals;
  EXPECT_EQ(Rejection("0.5\0junk,0.25\n"s),
            "CSV field is not a number: '0.5\0junk' at line 1"s);
  EXPECT_EQ(Rejection("0.25,\"0.5\0\"\n"s),
            "CSV field is not a number: '0.5\0' at line 1"s);
}

}  // namespace
}  // namespace skymr::data

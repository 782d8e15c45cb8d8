#include "src/common/csv.h"

#include <gtest/gtest.h>

namespace skymr {
namespace {

TEST(CsvParseTest, SimpleFields) {
  EXPECT_EQ(ParseCsvLine("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvParseTest, EmptyFields) {
  EXPECT_EQ(ParseCsvLine(",,"), (std::vector<std::string>{"", "", ""}));
  EXPECT_EQ(ParseCsvLine(""), (std::vector<std::string>{""}));
}

TEST(CsvParseTest, QuotedFieldWithComma) {
  EXPECT_EQ(ParseCsvLine("\"a,b\",c"),
            (std::vector<std::string>{"a,b", "c"}));
}

TEST(CsvParseTest, EscapedQuotes) {
  EXPECT_EQ(ParseCsvLine("\"say \"\"hi\"\"\",x"),
            (std::vector<std::string>{"say \"hi\"", "x"}));
}

TEST(CsvParseTest, TrailingCarriageReturnDropped) {
  EXPECT_EQ(ParseCsvLine("a,b\r"), (std::vector<std::string>{"a", "b"}));
}

TEST(CsvFormatTest, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(FormatCsvLine({"a", "b"}), "a,b");
  EXPECT_EQ(FormatCsvLine({"a,b", "c"}), "\"a,b\",c");
  EXPECT_EQ(FormatCsvLine({"say \"hi\""}), "\"say \"\"hi\"\"\"");
}

TEST(CsvFormatTest, RoundTripsThroughParse) {
  const std::vector<std::string> fields{"plain", "with,comma",
                                        "with \"quote\"", ""};
  EXPECT_EQ(ParseCsvLine(FormatCsvLine(fields)), fields);
}

}  // namespace
}  // namespace skymr

#include "src/obs/json_parse.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace skymr::obs {
namespace {

TEST(JsonParseTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->AsBool());
  EXPECT_FALSE(ParseJson("false")->AsBool());
  EXPECT_DOUBLE_EQ(ParseJson("3.5")->AsDouble(), 3.5);
  EXPECT_DOUBLE_EQ(ParseJson("-1e3")->AsDouble(), -1000.0);
  EXPECT_EQ(ParseJson("42")->AsInt(), 42);
  EXPECT_EQ(ParseJson("-7.9")->AsInt(), -7);
  // Past int64's range the conversion saturates instead of being undefined.
  EXPECT_EQ(ParseJson("1e300")->AsInt(), INT64_MAX);
  EXPECT_EQ(ParseJson("-1e300")->AsInt(), INT64_MIN);
  EXPECT_EQ(ParseJson("\"hi\"")->AsString(), "hi");
}

TEST(JsonParseTest, ParsesStringEscapes) {
  auto v = ParseJson(R"("a\"b\\c\n\tA")");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->AsString(), "a\"b\\c\n\tA");
}

TEST(JsonParseTest, DecodesNonAsciiBmpEscape) {
  auto v = ParseJson(R"("é")");  // é as UTF-8.
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->AsString(), "\xc3\xa9");
}

TEST(JsonParseTest, ParsesNestedDocument) {
  auto v = ParseJson(R"({"a": [1, 2, {"b": true}], "c": {"d": null}})");
  ASSERT_TRUE(v.ok()) << v.status();
  ASSERT_TRUE(v->is_object());
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->AsArray().size(), 3u);
  EXPECT_DOUBLE_EQ(a->AsArray()[1].AsDouble(), 2.0);
  EXPECT_TRUE(a->AsArray()[2].Find("b")->AsBool());
  EXPECT_TRUE(v->Find("c")->Find("d")->is_null());
}

TEST(JsonParseTest, ConvenienceLookupsFallBack) {
  auto v = ParseJson(R"({"n": 7, "s": "x"})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->GetInt("n", -1), 7);
  EXPECT_EQ(v->GetInt("missing", -1), -1);
  EXPECT_DOUBLE_EQ(v->GetDouble("n", 0.0), 7.0);
  EXPECT_EQ(v->GetString("s", "fb"), "x");
  EXPECT_EQ(v->GetString("missing", "fb"), "fb");
  // Wrong-kind member also falls back.
  EXPECT_EQ(v->GetInt("s", -1), -1);
  // Find on a non-object is nullptr, never a crash.
  EXPECT_EQ(ParseJson("3")->Find("x"), nullptr);
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("nan").ok());
}

TEST(JsonParseTest, RejectsTrailingData) {
  EXPECT_FALSE(ParseJson("1 2").ok());
  EXPECT_FALSE(ParseJson("{} []").ok());
  // Trailing whitespace is fine.
  EXPECT_TRUE(ParseJson("{}  \n").ok());
}

TEST(JsonParseTest, RejectsPathologicalNesting) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonParseTest, NestingDepthLimitIsExact) {
  // A balanced document at exactly kMaxJsonNestingDepth parses; one level
  // deeper is rejected with a clean Status (no stack overflow). The limit
  // is public so harnesses and tests can probe the boundary directly.
  const auto nested = [](int depth) {
    std::string doc(static_cast<size_t>(depth), '[');
    doc += "1";
    doc += std::string(static_cast<size_t>(depth), ']');
    return doc;
  };
  auto at_limit = ParseJson(nested(kMaxJsonNestingDepth));
  EXPECT_TRUE(at_limit.ok()) << at_limit.status();
  auto past_limit = ParseJson(nested(kMaxJsonNestingDepth + 1));
  ASSERT_FALSE(past_limit.ok());
  EXPECT_EQ(past_limit.status().code(), StatusCode::kInvalidArgument);
}

TEST(JsonParseTest, LastDuplicateKeyWins) {
  auto v = ParseJson(R"({"k": 1, "k": 2})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->GetInt("k", 0), 2);
}

TEST(JsonParseTest, ParseJsonFileRoundTrip) {
  const std::string path =
      ::testing::TempDir() + "/json_parse_test_doc.json";
  {
    std::ofstream out(path);
    out << R"({"schema": "test", "rows": [1, 2, 3]})";
  }
  auto v = ParseJsonFile(path);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->GetString("schema", ""), "test");
  EXPECT_EQ(v->Find("rows")->AsArray().size(), 3u);
  std::remove(path.c_str());

  EXPECT_FALSE(ParseJsonFile("/nonexistent-dir/x.json").ok());
}

}  // namespace
}  // namespace skymr::obs

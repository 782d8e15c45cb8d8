// Minimal JSON reader for the observability tooling: `skymr doctor`
// parses skymr-report-v2 documents and the tests parse artifacts this
// repo itself produced. It is a strict recursive-descent parser over a
// dynamically-typed JsonValue — not a general-purpose library: numbers
// are doubles (int64 exposed as a checked view), no streaming, inputs
// are whole documents held in memory, and \u escapes decode only the
// BMP. That is exactly the subset the writers in src/obs emit.

#ifndef SKYMR_OBS_JSON_PARSE_H_
#define SKYMR_OBS_JSON_PARSE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace skymr::obs {

/// Maximum container nesting the parser accepts. Parsing is recursive
/// descent, so without this bound a short adversarial input like
/// "[[[[..." would exhaust the stack; at the limit the parser returns an
/// InvalidArgument ("nesting too deep") instead. The writers in src/obs
/// emit documents a couple of levels deep, so 256 is far above any
/// legitimate input.
inline constexpr int kMaxJsonNestingDepth = 256;

/// One parsed JSON value. Objects preserve no duplicate keys (last one
/// wins, as in every mainstream parser).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; the caller must have checked the kind.
  bool AsBool() const { return bool_; }
  double AsDouble() const { return number_; }
  /// The number truncated toward zero, saturated to int64's range (a
  /// double outside it has no defined conversion).
  int64_t AsInt() const {
    if (number_ >= 0x1p63) {
      return INT64_MAX;
    }
    return number_ >= -0x1p63 ? static_cast<int64_t>(number_) : INT64_MIN;
  }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& AsArray() const { return array_; }
  const std::map<std::string, JsonValue>& AsObject() const {
    return object_;
  }

  /// Member lookup on an object; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Convenience lookups with fallbacks for optional members.
  double GetDouble(std::string_view key, double fallback) const;
  int64_t GetInt(std::string_view key, int64_t fallback) const;
  std::string GetString(std::string_view key,
                        const std::string& fallback) const;

  static JsonValue MakeBool(bool v);
  static JsonValue MakeNumber(double v);
  static JsonValue MakeString(std::string v);
  static JsonValue MakeArray(std::vector<JsonValue> v);
  static JsonValue MakeObject(std::map<std::string, JsonValue> v);

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses one JSON document (trailing whitespace allowed, trailing data
/// not). Returns InvalidArgument with an offset diagnostic on malformed
/// input.
StatusOr<JsonValue> ParseJson(std::string_view text);

/// ParseJson over the contents of `path`.
StatusOr<JsonValue> ParseJsonFile(const std::string& path);

}  // namespace skymr::obs

#endif  // SKYMR_OBS_JSON_PARSE_H_

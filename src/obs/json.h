// Minimal streaming JSON writer used by the trace exporter and the job
// report. Emits valid JSON only — strings are escaped, non-finite doubles
// degrade to null — with commas managed by a small nesting stack. Not a
// general serializer: no pretty-printing options beyond two-space
// indentation, and the caller must pair Begin*/End* calls correctly
// (checked by SKYMR_DCHECK).

#ifndef SKYMR_OBS_JSON_H_
#define SKYMR_OBS_JSON_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/logging.h"

namespace skymr::obs {

/// Writes one JSON document to an ostream. Usage:
///
///   JsonWriter w(os);
///   w.BeginObject();
///   w.Key("schema"); w.String("skymr-report-v2");
///   w.Key("jobs"); w.BeginArray(); ... w.EndArray();
///   w.EndObject();
class JsonWriter {
 public:
  /// `compact` suppresses all whitespace (used for large event arrays).
  explicit JsonWriter(std::ostream& os, bool compact = false)
      : os_(os), compact_(compact) {}

  void BeginObject() {
    Prefix();
    os_ << '{';
    stack_.push_back(State::kFirstInObject);
  }

  void EndObject() {
    SKYMR_DCHECK(!stack_.empty()) << "EndObject with no open scope";
    const bool empty = stack_.back() == State::kFirstInObject;
    stack_.pop_back();
    if (!empty) {
      Newline();
    }
    os_ << '}';
  }

  void BeginArray() {
    Prefix();
    os_ << '[';
    stack_.push_back(State::kFirstInArray);
  }

  void EndArray() {
    SKYMR_DCHECK(!stack_.empty()) << "EndArray with no open scope";
    const bool empty = stack_.back() == State::kFirstInArray;
    stack_.pop_back();
    if (!empty) {
      Newline();
    }
    os_ << ']';
  }

  /// Emits the key of the next object member.
  void Key(std::string_view name) {
    SKYMR_DCHECK(!stack_.empty()) << "Key outside an object";
    Prefix();
    WriteEscaped(name);
    os_ << (compact_ ? ":" : ": ");
    pending_value_ = true;
  }

  void String(std::string_view value) {
    Prefix();
    WriteEscaped(value);
  }

  void Int(int64_t value) {
    Prefix();
    os_ << value;
  }

  void Uint(uint64_t value) {
    Prefix();
    os_ << value;
  }

  void Double(double value) {
    Prefix();
    if (!std::isfinite(value)) {
      os_ << "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    os_ << buf;
  }

  void Bool(bool value) {
    Prefix();
    os_ << (value ? "true" : "false");
  }

  void Null() {
    Prefix();
    os_ << "null";
  }

 private:
  enum class State { kFirstInObject, kInObject, kFirstInArray, kInArray };

  /// Emits the separator/indentation owed before the next token.
  void Prefix() {
    if (pending_value_) {
      // The key already emitted ": "; the value follows inline.
      pending_value_ = false;
      return;
    }
    if (stack_.empty()) {
      return;
    }
    State& state = stack_.back();
    if (state == State::kFirstInObject) {
      state = State::kInObject;
    } else if (state == State::kFirstInArray) {
      state = State::kInArray;
    } else {
      os_ << ',';
    }
    Newline();
  }

  void Newline() {
    if (compact_) {
      return;
    }
    os_ << '\n';
    for (size_t i = 0; i < stack_.size(); ++i) {
      os_ << "  ";
    }
  }

  void WriteEscaped(std::string_view text) {
    os_ << '"';
    for (const char c : text) {
      switch (c) {
        case '"':
          os_ << "\\\"";
          break;
        case '\\':
          os_ << "\\\\";
          break;
        case '\n':
          os_ << "\\n";
          break;
        case '\r':
          os_ << "\\r";
          break;
        case '\t':
          os_ << "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            os_ << buf;
          } else {
            os_ << c;
          }
      }
    }
    os_ << '"';
  }

  std::ostream& os_;
  bool compact_;
  bool pending_value_ = false;
  std::vector<State> stack_;
};

}  // namespace skymr::obs

#endif  // SKYMR_OBS_JSON_H_

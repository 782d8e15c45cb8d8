#include "src/common/csv.h"

namespace skymr {

std::vector<std::string> ParseCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else {
      if (c == '"') {
        in_quotes = true;
      } else if (c == ',') {
        fields.push_back(std::move(current));
        current.clear();
      } else if (c == '\r' && i + 1 == line.size()) {
        // Trailing CR from a CRLF file: drop it.
      } else {
        current.push_back(c);
      }
    }
    ++i;
  }
  fields.push_back(std::move(current));
  return fields;
}

std::string FormatCsvLine(const std::vector<std::string>& fields) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) {
      out.push_back(',');
    }
    const std::string& field = fields[i];
    const bool needs_quotes =
        field.find_first_of(",\"\n\r") != std::string::npos;
    if (needs_quotes) {
      out.push_back('"');
      for (const char c : field) {
        if (c == '"') {
          out.push_back('"');
        }
        out.push_back(c);
      }
      out.push_back('"');
    } else {
      out += field;
    }
  }
  return out;
}

}  // namespace skymr

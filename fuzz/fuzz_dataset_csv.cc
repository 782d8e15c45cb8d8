// Harness: the dataset import boundary (src/data/dataset_io.h) and the
// CSV line splitter/joiner (src/common/csv.h) on raw bytes — the path
// every external data file takes into the library.
//
// Properties enforced:
//   1. LoadCsvFromString never crashes, and it agrees with the reference
//      reader below (split lines, ParseCsvLine, then strtod under the
//      rules pinned in dataset_io.h): the same accept or reject, the
//      same dim and size, and the same bits in every value;
//   2. per line, format -> parse is the identity:
//      ParseCsvLine(FormatCsvLine(fields)) == fields (RFC-4180 quoting
//      of commas, quotes, and CR/LF survives the round trip);
//   3. an accepted dataset round-trips: SaveCsvToString (%.17g fields)
//      -> LoadCsvFromString reproduces dim, size, and every value's bits.

#include <bit>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/fuzz_common.h"
#include "src/common/csv.h"
#include "src/data/dataset_io.h"

namespace {

/// The non-blank lines of `text`, split at '\n' as the reader does.
std::vector<std::string> Lines(std::string_view text) {
  std::vector<std::string> lines;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    std::string line(text.substr(begin, end - begin));
    begin = end + 1;
    if (!line.empty() && line != "\r") {
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

/// One field under the pinned rules, read with strtod: the whole field
/// must convert, and hex floats, NaN and magnitudes that round to
/// infinity or to zero are rejected (denormals are kept).
bool ReferenceField(const std::string& field, double* value) {
  const char* begin = field.c_str();
  const char* p = begin;
  while (std::isspace(static_cast<unsigned char>(*p)) != 0) {
    ++p;
  }
  if (*p == '+' || *p == '-') {
    ++p;
  }
  if (p[0] == '0' && (p[1] == 'x' || p[1] == 'X')) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  *value = std::strtod(begin, &end);
  if (end == begin || end != begin + field.size() || std::isnan(*value)) {
    return false;
  }
  return !(errno == ERANGE && (*value == 0.0 || std::isinf(*value)));
}

struct ReferenceDataset {
  size_t dim = 0;
  std::vector<double> values;
};

std::optional<ReferenceDataset> ReferenceLoad(
    const std::vector<std::string>& lines, bool has_header) {
  ReferenceDataset out;
  for (size_t i = has_header ? 1 : 0; i < lines.size(); ++i) {
    const std::vector<std::string> fields = skymr::ParseCsvLine(lines[i]);
    if (out.dim == 0) {
      out.dim = fields.size();
    }
    if (fields.size() != out.dim) {
      return std::nullopt;
    }
    for (const std::string& field : fields) {
      double value;
      if (!ReferenceField(field, &value)) {
        return std::nullopt;
      }
      out.values.push_back(value);
    }
  }
  if (out.dim == 0) {
    return std::nullopt;
  }
  return out;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0 || size > (1u << 20)) {
    return 0;
  }
  skymr::fuzz::FuzzInput input(data, size);
  const bool has_header = input.ConsumeBool();
  const std::string_view text = input.RemainingView();

  const std::vector<std::string> lines = Lines(text);
  for (const std::string& line : lines) {
    const std::vector<std::string> fields = skymr::ParseCsvLine(line);
    SKYMR_FUZZ_ASSERT(skymr::ParseCsvLine(skymr::FormatCsvLine(fields)) ==
                      fields);
  }

  auto dataset_or = skymr::data::LoadCsvFromString(text, has_header);
  const std::optional<ReferenceDataset> reference =
      ReferenceLoad(lines, has_header);
  SKYMR_FUZZ_ASSERT(dataset_or.ok() == reference.has_value());
  if (!dataset_or.ok()) {
    return 0;  // Clean rejection is a correct outcome.
  }
  const skymr::Dataset& dataset = dataset_or.value();
  SKYMR_FUZZ_ASSERT(dataset.dim() == reference->dim);
  SKYMR_FUZZ_ASSERT(SameBits(dataset.values(), reference->values));

  auto csv_or = skymr::data::SaveCsvToString(dataset);
  SKYMR_FUZZ_ASSERT(csv_or.ok());
  auto round_or = skymr::data::LoadCsvFromString(csv_or.value(), false);
  SKYMR_FUZZ_ASSERT(round_or.ok());
  SKYMR_FUZZ_ASSERT(round_or->dim() == dataset.dim());
  SKYMR_FUZZ_ASSERT(round_or->size() == dataset.size());
  SKYMR_FUZZ_ASSERT(SameBits(round_or->values(), dataset.values()));
  return 0;
}

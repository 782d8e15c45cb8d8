#include "src/data/dataset_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

#include "src/common/csv.h"

namespace skymr::data {

namespace {

/// LoadCsv's fread size. A line longer than this grows the buffer.
constexpr size_t kReadChunkBytes = size_t{1} << 18;

/// The writers' buffer size.
constexpr size_t kWriteBufferBytes = size_t{1} << 16;

/// Upper bound on one %.17g field plus its separator: the longest is
/// "-2.2250738585072014e-308", 24 characters.
constexpr size_t kMaxFieldChars = 32;

using File = std::unique_ptr<FILE, int (*)(FILE*)>;

/// The bytes strtod skips before a number: C-locale isspace.
bool IsLeadingSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Single-pass CSV reader: every field goes from the input bytes through
/// std::from_chars straight into one flat row-major value buffer. Lines
/// are numbered physically from 1, counting the header and blank lines.
class CsvReader {
 public:
  /// `input_bytes` sizes the value buffer once the first row shows the
  /// width (0 when unknown).
  CsvReader(bool has_header, size_t input_bytes)
      : header_pending_(has_header), input_bytes_(input_bytes) {}

  /// Parses every '\n'-terminated line of `text` and returns the bytes
  /// consumed; with `final`, also the unterminated last line.
  StatusOr<size_t> Consume(std::string_view text, bool final) {
    const bool may_quote = text.find('"') != std::string_view::npos;
    size_t begin = 0;
    while (begin < text.size()) {
      size_t end = text.find('\n', begin);
      if (end == std::string_view::npos) {
        if (!final) {
          break;
        }
        end = text.size();
      }
      ++line_;
      if (Status s = ParseLine(text.substr(begin, end - begin), may_quote);
          !s.ok()) {
        return s;
      }
      begin = std::min(end + 1, text.size());
    }
    return begin;
  }

  StatusOr<Dataset> Finish(const std::string& origin) && {
    if (dim_ == 0) {
      return Status::InvalidArgument("CSV has no data rows: " + origin);
    }
    return Dataset::FromFlat(dim_, std::move(values_));
  }

 private:
  Status ParseLine(std::string_view line, bool may_quote) {
    if (line.empty() || line == "\r") {
      return Status::OK();  // Blank line.
    }
    if (header_pending_) {
      header_pending_ = false;
      return Status::OK();
    }
    if (may_quote && line.find('"') != std::string_view::npos) {
      return ParseQuotedLine(line);
    }
    if (line.back() == '\r') {
      line.remove_suffix(1);
    }
    if (dim_ == 0) {
      const auto commas = std::count(line.begin(), line.end(), ',');
      StartRows(static_cast<size_t>(commas) + 1, line.size());
    }
    const char* field = line.data();
    const char* const last = field + line.size();
    for (size_t k = 1;; ++k) {
      const char* end = field;
      SKYMR_RETURN_IF_ERROR(ParseField(field, last, /*comma_ends=*/true, &end));
      if (end == last) {
        return k == dim_ ? Status::OK() : WidthError();
      }
      if (k == dim_) {
        return WidthError();
      }
      field = end + 1;
    }
  }

  /// The rare line holding a '"': split by the RFC-4180 line parser.
  Status ParseQuotedLine(std::string_view line) {
    const std::vector<std::string> fields = ParseCsvLine(std::string(line));
    if (dim_ == 0) {
      StartRows(fields.size(), line.size());
    }
    if (fields.size() != dim_) {
      return WidthError();
    }
    for (const std::string& field : fields) {
      const char* end = nullptr;
      SKYMR_RETURN_IF_ERROR(ParseField(field.data(),
                                       field.data() + field.size(),
                                       /*comma_ends=*/false, &end));
    }
    return Status::OK();
  }

  /// Appends the number at the start of [first, last) to the values and
  /// sets `*end` to where it stopped, which must be `last` or, when
  /// `comma_ends`, a ','. Leading blanks and a lone '+' are skipped, as
  /// strtod does; hex floats are not numbers, and NaN and magnitudes that
  /// round to infinity or to zero are rejected.
  Status ParseField(const char* first, const char* last, bool comma_ends,
                    const char** end) {
    const char* p = first;
    while (p != last && IsLeadingSpace(*p)) {
      ++p;
    }
    if (p != last && *p == '+' &&
        (p + 1 == last || (p[1] != '+' && p[1] != '-'))) {
      ++p;
    }
    double value = 0.0;
    const auto [stop, ec] = std::from_chars(p, last, value);
    *end = stop;
    const char* problem = nullptr;
    if (ec == std::errc::result_out_of_range) {
      problem = "is out of range";
    } else if (ec != std::errc() ||
               (stop != last && !(comma_ends && *stop == ','))) {
      problem = "is not a number";
    } else if (std::isnan(value)) {
      problem = "is NaN";
    }
    if (problem != nullptr) {
      const char* field_end = comma_ends ? std::find(first, last, ',') : last;
      return Status::InvalidArgument(
          std::string("CSV field ") + problem + ": '" +
          std::string(first, field_end) + "' at line " +
          std::to_string(line_));
    }
    values_.push_back(value);
    return Status::OK();
  }

  /// Fixes the width from the first data row and reserves the value
  /// buffer once: rows like the first fill the input, a quarter more
  /// absorbs longer rows, and no value takes under two bytes of text.
  void StartRows(size_t dim, size_t first_line_bytes) {
    dim_ = dim;
    const size_t rows = input_bytes_ / (first_line_bytes + 1) + 1;
    values_.reserve(std::min(rows * dim_ + rows * dim_ / 4,
                             input_bytes_ / 2 + dim_));
  }

  Status WidthError() const {
    return Status::InvalidArgument("CSV row width mismatch at line " +
                                   std::to_string(line_));
  }

  bool header_pending_;
  size_t input_bytes_;
  size_t line_ = 0;
  size_t dim_ = 0;
  std::vector<double> values_;
};

/// A header must match the width, and a name must not break its line:
/// no reader splits a quoted line break back out.
Status CheckHeader(const Dataset& data,
                   const std::vector<std::string>& header) {
  if (!header.empty() && header.size() != data.dim()) {
    return Status::InvalidArgument("header width does not match dimension");
  }
  for (const std::string& name : header) {
    if (name.find_first_of("\r\n") != std::string::npos) {
      return Status::InvalidArgument("header name holds a line break: '" +
                                     name + "'");
    }
  }
  return Status::OK();
}

/// Renders `data` as CSV (%.17g fields, header first when present)
/// through a fixed buffer, passing each filled buffer to `flush`.
/// Returns false as soon as a flush fails.
template <typename Flush>
bool WriteCsv(const Dataset& data, const std::vector<std::string>& header,
              Flush&& flush) {
  if (!header.empty() && !flush(FormatCsvLine(header) + '\n')) {
    return false;
  }
  const size_t dim = data.dim();
  std::vector<char> buffer(std::max(kWriteBufferBytes, dim * kMaxFieldChars));
  char* const first = buffer.data();
  char* const last = first + buffer.size();
  char* out = first;
  for (size_t i = 0; i < data.size(); ++i) {
    if (static_cast<size_t>(last - out) < dim * kMaxFieldChars) {
      if (!flush(std::string_view(first, out))) {
        return false;
      }
      out = first;
    }
    const double* row = data.RowPtr(static_cast<TupleId>(i));
    for (size_t k = 0; k < dim; ++k) {
      out = std::to_chars(out, last, row[k], std::chars_format::general, 17)
                .ptr;
      *out++ = k + 1 == dim ? '\n' : ',';
    }
  }
  return flush(std::string_view(first, out));
}

}  // namespace

Status SaveCsv(const Dataset& data, const std::string& path,
               const std::vector<std::string>& header) {
  if (Status s = CheckHeader(data, header); !s.ok()) {
    return s;
  }
  File file(std::fopen(path.c_str(), "wb"), &std::fclose);
  if (file == nullptr) {
    return Status::IoError("cannot open for writing: " + path);
  }
  const bool written = WriteCsv(data, header, [&](std::string_view bytes) {
    return std::fwrite(bytes.data(), 1, bytes.size(), file.get()) ==
           bytes.size();
  });
  if (std::fclose(file.release()) != 0 || !written) {
    return Status::IoError("write failed: " + path);
  }
  return Status::OK();
}

StatusOr<std::string> SaveCsvToString(
    const Dataset& data, const std::vector<std::string>& header) {
  if (Status s = CheckHeader(data, header); !s.ok()) {
    return s;
  }
  std::string out;
  WriteCsv(data, header, [&](std::string_view bytes) {
    out.append(bytes);
    return true;
  });
  return out;
}

StatusOr<Dataset> LoadCsv(const std::string& path, bool has_header) {
  File file(std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::error_code size_error;
  const uintmax_t bytes = std::filesystem::file_size(path, size_error);
  CsvReader reader(has_header, size_error ? 0 : static_cast<size_t>(bytes));
  // Each fread lands after the carried-over partial line.
  std::vector<char> buffer(kReadChunkBytes);
  size_t carried = 0;
  while (true) {
    if (buffer.size() - carried < kReadChunkBytes / 2) {
      buffer.resize(carried + kReadChunkBytes);
    }
    const size_t read = std::fread(buffer.data() + carried, 1,
                                   buffer.size() - carried, file.get());
    if (read == 0) {
      if (std::ferror(file.get()) != 0) {
        return Status::IoError("failed reading " + path);
      }
      break;
    }
    const size_t filled = carried + read;
    auto consumed =
        reader.Consume(std::string_view(buffer.data(), filled), false);
    if (!consumed.ok()) {
      return consumed.status();
    }
    carried = filled - *consumed;
    std::memmove(buffer.data(), buffer.data() + *consumed, carried);
  }
  if (auto last = reader.Consume(std::string_view(buffer.data(), carried),
                                 /*final=*/true);
      !last.ok()) {
    return last.status();
  }
  return std::move(reader).Finish(path);
}

StatusOr<Dataset> LoadCsvFromString(std::string_view text, bool has_header) {
  CsvReader reader(has_header, text.size());
  if (auto consumed = reader.Consume(text, /*final=*/true); !consumed.ok()) {
    return consumed.status();
  }
  return std::move(reader).Finish("inline text");
}

}  // namespace skymr::data

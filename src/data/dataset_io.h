// CSV import/export for datasets, used by the examples and for feeding real
// data into the library.
//
// What the reader accepts. Lines end in '\n' or "\r\n"; blank lines are
// skipped; every data row has the first row's width. A field is one
// decimal number, optionally after leading blanks (" 0.5", "\t0.5") and a
// lone '+', and optionally inside RFC-4180 quotes ("\"0.5\""). `inf`,
// `-inf` and `infinity` are numbers. Rejected, with the physical 1-based
// line number (the header and blank lines count): trailing blanks, empty
// fields, any other byte after the number (an embedded NUL too), hex
// floats, `nan`, and a magnitude that rounds to infinity or to zero
// ("1e400", "1e-400"; denormals such as 4e-320 load).

#ifndef SKYMR_DATA_DATASET_IO_H_
#define SKYMR_DATA_DATASET_IO_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/relation/dataset.h"

namespace skymr::data {

/// Writes `data` as CSV with %.17g fields, so values round-trip exactly
/// through LoadCsv. When `header` is non-empty it becomes the first row;
/// it must have data.dim() names, none holding a CR or LF.
Status SaveCsv(const Dataset& data, const std::string& path,
               const std::vector<std::string>& header = {});

/// The CSV text SaveCsv would write.
StatusOr<std::string> SaveCsvToString(
    const Dataset& data, const std::vector<std::string>& header = {});

/// Reads a dataset from CSV in one pass over fixed-size chunks. When
/// `has_header` is true the first non-blank line is skipped.
StatusOr<Dataset> LoadCsv(const std::string& path, bool has_header);

/// LoadCsv over in-memory text. Untrusted-input boundary: any byte
/// sequence yields a Dataset or an error Status, never a crash.
StatusOr<Dataset> LoadCsvFromString(std::string_view text, bool has_header);

}  // namespace skymr::data

#endif  // SKYMR_DATA_DATASET_IO_H_

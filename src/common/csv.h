// RFC-4180 CSV line splitting and joining. data::LoadCsv parses most
// lines itself and hands this splitter only a line holding a '"';
// data::SaveCsv joins only its header line here.

#ifndef SKYMR_COMMON_CSV_H_
#define SKYMR_COMMON_CSV_H_

#include <string>
#include <vector>

namespace skymr {

/// Parses one CSV line into fields. Supports RFC-4180 double quoting;
/// a trailing CR outside quotes is dropped.
std::vector<std::string> ParseCsvLine(const std::string& line);

/// Joins fields into one CSV line, quoting fields that need it.
std::string FormatCsvLine(const std::vector<std::string>& fields);

}  // namespace skymr

#endif  // SKYMR_COMMON_CSV_H_

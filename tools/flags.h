// Command-line flags for skymr_cli and skymr_loadgen.
//
// Both binaries take `--name=value` and bare `--name` switches. Each
// command declares the flags it reads, with a kind; Parse rejects a
// positional argument, an undeclared flag, a switch given a value, a
// value flag given none, and a number that does not parse in full
// (`--mappers=13x`, `--qps=fast`). The caller prints usage and exits 2,
// so a misspelt or removed flag can never silently run a default.

#ifndef SKYMR_TOOLS_FLAGS_H_
#define SKYMR_TOOLS_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace skymr::tools {

enum class FlagKind {
  kSwitch,  // bare --name, no value
  kString,
  kInt,
  kDouble,
};

/// One declared flag: its name without the leading dashes, and its kind.
struct FlagSpec {
  std::string_view name;
  FlagKind kind;
};

/// Parses all of `text` as a base-10 integer / a finite double. False on
/// empty text, trailing characters, or overflow.
bool ParseInt64(std::string_view text, int64_t* value);
bool ParseFiniteDouble(std::string_view text, double* value);

/// Flags parsed against one command's declared set. Every value a getter
/// returns already parsed, so the getters cannot fail.
class Flags {
 public:
  /// Parses `args` against `specs`. InvalidArgument names the first bad
  /// token.
  static StatusOr<Flags> Parse(const std::vector<std::string>& args,
                               const std::vector<FlagSpec>& specs);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace skymr::tools

#endif  // SKYMR_TOOLS_FLAGS_H_

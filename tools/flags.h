// Command-line flags for skymr_cli, skymr_loadgen and the self-contained
// microbenches, plus the benches' numeric environment variables.
//
// The binaries take `--name=value` and bare `--name` switches. Each
// command declares the flags it reads, with a kind; Parse rejects a
// positional argument, an undeclared flag, a switch given a value, a
// value flag given none, and a number that does not parse in full
// (`--mappers=13x`, `--qps=fast`). The caller prints usage and exits 2,
// so a misspelt or removed flag can never silently run a default. The
// environment readers below apply the same rule to SKYMR_SCALE and
// SKYMR_BENCH_CACHE_MB (`SKYMR_SCALE=0,1` exits 2 instead of running at
// a size nobody asked for).

#ifndef SKYMR_TOOLS_FLAGS_H_
#define SKYMR_TOOLS_FLAGS_H_

#include <cstddef>
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

/// Environment variable `name` as a finite number > 0, or `fallback` when
/// it is unset. Any other value prints a message naming the variable and
/// exits 2.
double PositiveEnvDouble(const char* name, double fallback);

/// The multiplier every bench applies to its default sizes: SKYMR_SCALE
/// (PositiveEnvDouble, default 1), or 1 when SKYMR_FULL=1, which leaves
/// SKYMR_SCALE unread.
double BenchEnvScale();

/// Pipeline repetitions per bench row: SKYMR_BENCH_REPS as an integer in
/// [1, 100], or 1 when it is unset. Any other value prints a message
/// naming the variable and exits 2.
int BenchEnvReps();

/// `full` scaled by `scale` times BenchEnvScale(), and at least `floor`;
/// `full` itself when SKYMR_FULL=1 (the paper's full size).
size_t BenchScaledCount(size_t full, double scale, size_t floor);

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

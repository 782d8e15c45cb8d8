#include "tools/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace skymr::tools {

bool ParseInt64(std::string_view text, int64_t* value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *value);
  return !text.empty() && ec == std::errc() && ptr == end;
}

bool ParseFiniteDouble(std::string_view text, double* value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *value);
  return !text.empty() && ec == std::errc() && ptr == end &&
         std::isfinite(*value);
}

double PositiveEnvDouble(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) {
    return fallback;
  }
  double value = 0.0;
  if (!ParseFiniteDouble(env, &value) || value <= 0.0) {
    std::fprintf(stderr, "%s=%s is not a finite number > 0\n", name, env);
    std::exit(2);
  }
  return value;
}

namespace {

bool BenchFullScale() {
  const char* full = std::getenv("SKYMR_FULL");
  return full != nullptr && std::strcmp(full, "1") == 0;
}

}  // namespace

double BenchEnvScale() {
  return BenchFullScale() ? 1.0 : PositiveEnvDouble("SKYMR_SCALE", 1.0);
}

int BenchEnvReps() {
  const char* env = std::getenv("SKYMR_BENCH_REPS");
  if (env == nullptr) {
    return 1;
  }
  int64_t reps = 0;
  if (!ParseInt64(env, &reps) || reps < 1 || reps > 100) {
    std::fprintf(stderr, "SKYMR_BENCH_REPS=%s is not an integer in [1, 100]\n",
                 env);
    std::exit(2);
  }
  return static_cast<int>(reps);
}

size_t BenchScaledCount(size_t full, double scale, size_t floor) {
  if (BenchFullScale()) {
    return full;
  }
  const auto scaled = static_cast<size_t>(static_cast<double>(full) *
                                          (scale * BenchEnvScale()));
  return std::max(scaled, floor);
}

StatusOr<Flags> Flags::Parse(const std::vector<std::string>& args,
                             const std::vector<FlagSpec>& specs) {
  Flags flags;
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected positional argument '" +
                                     arg + "'");
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos
                                               ? std::string::npos
                                               : eq - 2);
    const auto spec = std::find_if(
        specs.begin(), specs.end(),
        [&name](const FlagSpec& candidate) { return candidate.name == name; });
    if (spec == specs.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    if (spec->kind == FlagKind::kSwitch) {
      if (eq != std::string::npos) {
        return Status::InvalidArgument("--" + name + " takes no value");
      }
      flags.values_.insert_or_assign(name, std::string());
      continue;
    }
    if (eq == std::string::npos) {
      return Status::InvalidArgument("--" + name + " needs a value");
    }
    const std::string value = arg.substr(eq + 1);
    int64_t int_value = 0;
    double double_value = 0.0;
    if (spec->kind == FlagKind::kInt && !ParseInt64(value, &int_value)) {
      return Status::InvalidArgument("--" + name + "=" + value +
                                     " is not an integer");
    }
    if (spec->kind == FlagKind::kDouble &&
        !ParseFiniteDouble(value, &double_value)) {
      return Status::InvalidArgument("--" + name + "=" + value +
                                     " is not a finite number");
    }
    flags.values_.insert_or_assign(name, value);
  }
  return flags;
}

bool Flags::Has(const std::string& name) const {
  return values_.find(name) != values_.end();
}

std::string Flags::GetString(const std::string& name,
                             const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int64_t Flags::GetInt(const std::string& name, int64_t fallback) const {
  const auto it = values_.find(name);
  int64_t value = fallback;
  if (it != values_.end()) {
    ParseInt64(it->second, &value);  // Parse accepted it, so this holds.
  }
  return value;
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  double value = fallback;
  if (it != values_.end()) {
    ParseFiniteDouble(it->second, &value);  // Parse accepted it too.
  }
  return value;
}

}  // namespace skymr::tools

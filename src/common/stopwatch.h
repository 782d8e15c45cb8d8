// Stopwatch: wall-clock timing for task metrics and benchmarks.

#ifndef SKYMR_COMMON_STOPWATCH_H_
#define SKYMR_COMMON_STOPWATCH_H_

#include <chrono>

namespace skymr {

/// Measures elapsed wall time with steady_clock resolution.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace skymr

#endif  // SKYMR_COMMON_STOPWATCH_H_

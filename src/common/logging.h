// Invariant checks: SKYMR_CHECK (always on) and SKYMR_DCHECK (debug and
// sanitizer builds).
//
// Usage:
//   SKYMR_CHECK(bits.size() == cells) << "bitstring has " << bits.size();
//
// A failed check assembles its complete line — "[F file:line] Check
// failed: cond message" plus the trailing '\n' — in a private buffer,
// emits it with a single std::cerr insert under a process-wide mutex (so
// two failing threads cannot interleave fragments), runs the fatal hook,
// and aborts. Structured, query-scoped logging is obs::Logger
// (src/obs/log.h).

#ifndef SKYMR_COMMON_LOGGING_H_
#define SKYMR_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace skymr {
namespace internal {

/// Callback invoked once, right before a failed check aborts the
/// process. The observability layer registers a flight-recorder dump
/// here (obs::Logger::InstallAsFatalDumper) so SKYMR_CHECK failures
/// leave a post-mortem trail. The hook must be async-signal-tolerant in
/// spirit: no throwing, no further failing checks.
using FatalHook = void (*)();

/// Installs `hook` (nullptr clears). Thread-safe (relaxed atomic).
void SetFatalHook(FatalHook hook);

/// Accumulates a failed check's line; writes it and aborts on
/// destruction.
class CheckFailure {
 public:
  CheckFailure(const char* file, int line);
  ~CheckFailure();

  CheckFailure(const CheckFailure&) = delete;
  CheckFailure& operator=(const CheckFailure&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

/// Gives the streamed check expression type void, so it fits the other
/// arm of the conditional in SKYMR_CHECK.
struct Voidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace skymr

/// Always-on invariant check: aborts with a message when `cond` is false.
#define SKYMR_CHECK(cond)                                              \
  (cond) ? (void)0                                                     \
         : ::skymr::internal::Voidify() &                              \
               ::skymr::internal::CheckFailure(__FILE__, __LINE__)     \
                   .stream()                                           \
               << "Check failed: " #cond " "

// Debug-only checks guard hot-path invariants (grid cell ranges,
// bitstring sizes, group coverage) that are too expensive for release
// builds. They are on in debug builds and whenever SKYMR_FORCE_DCHECKS
// is defined — the sanitizer CMake configurations define it so
// ASan/UBSan/TSan CI exercises every invariant.
#if !defined(NDEBUG) || defined(SKYMR_FORCE_DCHECKS)
#define SKYMR_DCHECK_IS_ON 1
#else
#define SKYMR_DCHECK_IS_ON 0
#endif

#if SKYMR_DCHECK_IS_ON
#define SKYMR_DCHECK(cond) SKYMR_CHECK(cond)
#else
// `true || (cond)` keeps `cond` compiled (names stay checked and used)
// while the short-circuit guarantees it is never evaluated; the dead
// branch — including streamed operands — folds away entirely.
#define SKYMR_DCHECK(cond) SKYMR_CHECK(true || (cond))
#endif

namespace skymr {

/// Runtime view of SKYMR_DCHECK_IS_ON, for gating verification passes
/// too expensive to hide behind a single macro expression.
inline constexpr bool DchecksEnabled() { return SKYMR_DCHECK_IS_ON != 0; }

}  // namespace skymr

#endif  // SKYMR_COMMON_LOGGING_H_

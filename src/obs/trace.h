// Low-overhead span tracer for the MapReduce engine and the skyline
// algorithms, exported as Chrome trace-event JSON (schema skymr-trace-v1,
// loadable in chrome://tracing or Perfetto).
//
// Design:
//  * Collection is off by default. StartTracing() flips one process-wide
//    atomic; a disabled SKYMR_TRACE_SPAN costs a single relaxed load.
//  * Each thread appends completed spans to its own buffer — no locks or
//    atomics on the recording path. Buffers are registered once per
//    thread under a mutex and owned by a global registry, so events
//    survive thread exit (worker pools wind down before export anyway).
//  * Spans are RAII: SKYMR_TRACE_SPAN("name") records a complete ("X")
//    event from construction to scope exit, with up to two static-named
//    int64 args and the span's nesting depth on its thread.
//  * Spans carry no ids or cross-thread edges: a trace is for viewing.
//    The critical path is analyzed from the engine's per-task metrics
//    (critical_path.h), which only successful attempts write.
//  * When the build is configured with -DSKYMR_TRACING=OFF the macros
//    compile to nothing (argument expressions are type-checked but never
//    evaluated), so hot paths carry zero cost.
//
// Start/Stop/Clear/Write/Snapshot must be called while no spans are
// executing (between jobs): the registry cannot atomically freeze buffers
// that other threads are appending to. The engine only opens spans inside
// Job::Run, so any point outside a running job is safe.

#ifndef SKYMR_OBS_TRACE_H_
#define SKYMR_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"

// Compile-time master switch, normally set by CMake (SKYMR_TRACING).
#ifndef SKYMR_TRACING_ENABLED
#define SKYMR_TRACING_ENABLED 1
#endif

namespace skymr::obs {

/// Schema identifier stamped into every exported trace.
inline constexpr const char* kTraceSchemaVersion = "skymr-trace-v1";

/// True when the tracer was compiled in (SKYMR_TRACING=ON).
constexpr bool TracingCompiledIn() { return SKYMR_TRACING_ENABLED != 0; }

namespace internal {
extern std::atomic<bool> g_tracing_active;
}  // namespace internal

/// True when spans are currently being collected.
inline bool TracingActive() {
  return internal::g_tracing_active.load(std::memory_order_relaxed);
}

/// Discards previously collected events and starts collecting. A no-op
/// (collection stays off) when tracing was compiled out.
void StartTracing();

/// Stops collecting. Collected events stay available for export.
void StopTracing();

/// Discards all collected events.
void ClearTrace();

/// Number of events collected so far.
size_t CollectedEventCount();

/// One collected event, decoded for programmatic inspection (tests, the
/// stats surface). ts/dur are microseconds since StartTracing.
struct TraceEventView {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  uint32_t tid = 0;
  uint32_t depth = 0;
  char phase = 'X';  // 'X' complete span, 'i' instant.
  std::vector<std::pair<std::string, int64_t>> args;
};

/// Decodes every collected event (any thread order; per-thread order is
/// span completion order, so children precede parents).
std::vector<TraceEventView> SnapshotTrace();

/// Writes the collected events as Chrome trace-event JSON.
void WriteChromeTrace(std::ostream& os);

/// WriteChromeTrace to a file.
Status WriteChromeTraceFile(const std::string& path);

namespace internal {

/// Maximum span name length stored inline (longer names are truncated).
inline constexpr size_t kMaxNameLength = 47;

struct TraceEvent {
  double ts_us;
  double dur_us;
  uint32_t depth;
  char phase;
  char name[kMaxNameLength + 1];
  // Arg names must be string literals (stored by pointer).
  const char* arg1_name;
  const char* arg2_name;
  int64_t arg1_value;
  int64_t arg2_value;
};

/// Microseconds since the trace epoch (set by StartTracing).
double NowMicros();

/// Appends one completed event to the calling thread's buffer.
void RecordEvent(const TraceEvent& event);

/// Returns the nesting depth of a span opening on this thread and counts
/// it as open; LeaveSpan closes it.
uint32_t EnterSpan();
void LeaveSpan();

/// Sets `event`'s name (truncated to kMaxNameLength), phase and args.
inline void InitEvent(TraceEvent& event, std::string_view name, char phase,
                      const char* arg1_name, int64_t arg1_value,
                      const char* arg2_name, int64_t arg2_value) {
  const size_t n = name.size() < kMaxNameLength ? name.size() : kMaxNameLength;
  std::memcpy(event.name, name.data(), n);
  event.name[n] = '\0';
  event.phase = phase;
  event.arg1_name = arg1_name;
  event.arg1_value = arg1_value;
  event.arg2_name = arg2_name;
  event.arg2_value = arg2_value;
}

/// Swallows macro arguments in compiled-out builds without evaluating
/// them (the call sits in an `if (false)` branch).
template <typename... Args>
inline void IgnoreTraceArgs(Args&&...) {}

}  // namespace internal

/// RAII complete-span recorder. Copies the name (so temporaries are fine);
/// arg names must be string literals.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name, const char* arg1_name = nullptr,
                     int64_t arg1_value = 0, const char* arg2_name = nullptr,
                     int64_t arg2_value = 0) {
    if (!TracingActive()) {
      return;
    }
    active_ = true;
    internal::InitEvent(event_, name, 'X', arg1_name, arg1_value, arg2_name,
                        arg2_value);
    event_.depth = internal::EnterSpan();
    event_.ts_us = internal::NowMicros();
  }

  ~TraceSpan() {
    if (!active_) {
      return;
    }
    event_.dur_us = internal::NowMicros() - event_.ts_us;
    internal::LeaveSpan();
    internal::RecordEvent(event_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool active_ = false;
  internal::TraceEvent event_;
};

/// Records a zero-duration instant event (e.g. a task retry).
inline void TraceInstant(std::string_view name,
                         const char* arg1_name = nullptr,
                         int64_t arg1_value = 0,
                         const char* arg2_name = nullptr,
                         int64_t arg2_value = 0) {
  if (!TracingActive()) {
    return;
  }
  internal::TraceEvent event;
  internal::InitEvent(event, name, 'i', arg1_name, arg1_value, arg2_name,
                      arg2_value);
  event.depth = 0;
  event.ts_us = internal::NowMicros();
  event.dur_us = 0.0;
  internal::RecordEvent(event);
}

}  // namespace skymr::obs

#define SKYMR_TRACE_CONCAT_INNER(a, b) a##b
#define SKYMR_TRACE_CONCAT(a, b) SKYMR_TRACE_CONCAT_INNER(a, b)

#if SKYMR_TRACING_ENABLED
/// Opens a complete-event span for the rest of the enclosing scope:
///   SKYMR_TRACE_SPAN("map.task", "task", task_id, "attempt", attempt);
#define SKYMR_TRACE_SPAN(...)                                       \
  ::skymr::obs::TraceSpan SKYMR_TRACE_CONCAT(skymr_trace_span_,     \
                                             __LINE__)(__VA_ARGS__)
/// Records an instant event: SKYMR_TRACE_INSTANT("task.retry", "task", i);
#define SKYMR_TRACE_INSTANT(...) ::skymr::obs::TraceInstant(__VA_ARGS__)
#else
// Compiled out: arguments are type-checked inside a dead branch (keeping
// names "used" for -Werror) but never evaluated, and the branch folds away.
#define SKYMR_TRACE_SPAN(...)                                  \
  do {                                                         \
    if (false) {                                               \
      ::skymr::obs::internal::IgnoreTraceArgs(__VA_ARGS__);    \
    }                                                          \
  } while (0)
#define SKYMR_TRACE_INSTANT(...)                               \
  do {                                                         \
    if (false) {                                               \
      ::skymr::obs::internal::IgnoreTraceArgs(__VA_ARGS__);    \
    }                                                          \
  } while (0)
#endif

#endif  // SKYMR_OBS_TRACE_H_

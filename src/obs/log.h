// Structured, leveled, query-scoped logging with a crash flight recorder.
//
// Three pieces, designed for a resident query server rather than a batch
// run:
//
//  * LogRecord / Logger  — structured JSON-lines logging. Every record is
//    a fixed-size POD (timestamp, severity, event name, query id, job,
//    task, attempt, message) so the hot path never allocates; sinks render
//    records as one compact JSON object per line (FormatLogLine) that
//    round-trips through obs::ParseJson (ParseLogLine — fuzzed as a
//    fixpoint in fuzz/fuzz_log_parse.cc).
//
//  * Flight recorder — a lock-free bounded ring inside every Logger that
//    always retains the most recent `ring_capacity` records regardless of
//    severity sinks. On a crash (SKYMR_CHECK failure via the
//    common/logging.h fatal hook) or a fatal chaos fault (a task failing
//    permanently inside the engine), the last-N records are dumped as a
//    skymr-flight-v1 JSON-lines document for post-mortem analysis: the
//    dump is the answer to "what was the engine doing in the seconds
//    before it died", with the failing query's id on every line.
//
//  * QueryContext — the correlation spine. A stable query id + deadline +
//    free-form tag threaded through EngineOptions; every log record,
//    trace instant, and engine event emitted on behalf of that query
//    carries the id, so one query's task retries can be picked out of a
//    thousand-query flight recorder dump.
//
// Concurrency contract (exercised by the TSan test configuration):
//  * Log() is safe from any thread, lock-free on the ring path. Sinks
//    are invoked under a per-logger mutex (sinks are for humans and
//    files; the ring is for crashes).
//  * Records arriving while a Snapshot()/dump drains the ring, or racing
//    a laggard writer a full ring-lap behind, are dropped and counted in
//    dropped(). The load harness copies the count into its artifact's
//    log_dropped, where the doctor surfaces a nonzero count as the
//    log-drop finding.

#ifndef SKYMR_OBS_LOG_H_
#define SKYMR_OBS_LOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace skymr::obs {

/// The correlation spine of one query: a stable id every span, metric,
/// and log record of the query's tasks carries. Threaded through
/// mr::EngineOptions into Job::Run and the TaskScheduler.
struct QueryContext {
  /// Stable nonzero query id; 0 means "no query context" (batch runs).
  uint64_t id = 0;
  /// Latency budget in milliseconds from scheduled arrival; 0 = none.
  /// The engine does not enforce it — the admission layer (loadgen, the
  /// future server) uses it to count deadline misses.
  double deadline_ms = 0.0;
  /// Free-form tag rendered into log records ("size=small", user id...).
  std::string tag;
};

/// Severity of one structured record.
enum class LogSeverity : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kFatal = 4,
};

/// Stable lowercase name ("debug", "info", "warn", "error", "fatal").
const char* LogSeverityName(LogSeverity severity);

/// Parses a LogSeverityName back; InvalidArgument on unknown names.
StatusOr<LogSeverity> ParseLogSeverity(std::string_view name);

/// One structured record. Fixed-size POD so the flight-recorder ring can
/// copy it without allocating; oversized event/tag/message strings are
/// truncated, never dropped.
struct LogRecord {
  static constexpr size_t kEventCapacity = 32;
  static constexpr size_t kTagCapacity = 32;
  static constexpr size_t kMessageCapacity = 104;

  /// Microseconds since the owning logger's construction.
  double ts_us = 0.0;
  LogSeverity severity = LogSeverity::kInfo;
  /// QueryContext::id of the originating query; 0 when not query-scoped.
  uint64_t query_id = 0;
  /// Task id / attempt within the originating job; -1 / 0 when absent.
  int32_t task = -1;
  int32_t attempt = 0;
  /// Dotted event name, e.g. "task.retry" (NUL-terminated).
  char event[kEventCapacity] = {};
  /// Job name the record belongs to ("" when not job-scoped).
  char job[kTagCapacity] = {};
  /// QueryContext::tag of the originating query ("" when absent).
  char tag[kTagCapacity] = {};
  /// Human sentence with the numbers baked in (NUL-terminated).
  char message[kMessageCapacity] = {};
};

/// Renders one record as a compact single-line JSON object (no trailing
/// newline): {"ts_us":..,"sev":"warn","event":"task.retry","query":7,...}.
/// Zero/absent fields (query 0, task -1, empty job/tag/message) are
/// omitted so quiet records stay short.
std::string FormatLogLine(const LogRecord& record);

/// Parses a FormatLogLine line back into a record. Untrusted-input
/// boundary (fuzzed): any byte sequence yields a record or an error
/// Status, never a crash; unknown keys are ignored, oversized strings
/// truncate exactly like the Logger does, so
/// FormatLogLine(ParseLogLine(FormatLogLine(r))) is a fixpoint.
StatusOr<LogRecord> ParseLogLine(std::string_view line);

/// A log destination. Sinks observe every record at or above the
/// logger's sink severity; they are invoked under the logger's sink
/// mutex, so a sink itself needs no locking against sibling calls.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void Write(const LogRecord& record) = 0;
};

/// JSON-lines sink: one FormatLogLine object per record, one ostream
/// insert per line (lines from concurrent loggers cannot interleave).
class StreamLogSink : public LogSink {
 public:
  /// The stream must outlive the sink.
  explicit StreamLogSink(std::ostream& os) : os_(os) {}
  void Write(const LogRecord& record) override;

 private:
  std::ostream& os_;
};

/// Schema identifier of the flight-recorder dump's header line.
inline constexpr const char* kFlightSchemaVersion = "skymr-flight-v1";

/// A structured logger plus its flight recorder. Create one per process
/// (CLI) or per harness (loadgen, tests); the engine takes it as a
/// borrowed pointer via EngineOptions::log and never owns it.
class Logger {
 public:
  struct Options {
    /// Records below this severity are not offered to sinks. The flight
    /// recorder retains every record, whatever its severity.
    LogSeverity min_severity = LogSeverity::kInfo;
    /// Ring slots retained for the crash dump (rounded up to a power of
    /// two, minimum 8).
    size_t ring_capacity = 256;
    /// When non-empty, NotifyFatal writes the flight-recorder dump to
    /// this path (once per logger).
    std::string crash_dump_path;
  };

  Logger();
  explicit Logger(const Options& options);
  ~Logger();

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  /// Optional per-record context beyond severity/event/message.
  struct Fields {
    uint64_t query_id = 0;
    std::string_view tag = {};
    std::string_view job = {};
    int32_t task = -1;
    int32_t attempt = 0;
  };

  /// Records one event: into the flight recorder (lock-free) and to every
  /// sink at or above min_severity.
  void Log(LogSeverity severity, std::string_view event,
           std::string_view message, const Fields& fields);
  void Log(LogSeverity severity, std::string_view event,
           std::string_view message) {
    Log(severity, event, message, Fields{});
  }

  /// Convenience: Log with the query context's id/tag pre-filled.
  void LogQuery(LogSeverity severity, const QueryContext& query,
                std::string_view event, std::string_view message,
                std::string_view job = {}, int32_t task = -1,
                int32_t attempt = 0);

  /// Registers a borrowed sink (must outlive the logger or be removed by
  /// destroying the logger first; sinks cannot be unregistered).
  void AddSink(LogSink* sink);

  /// The retained flight-recorder records, oldest first. Quiesces the
  /// ring while draining: concurrent Log() calls during the snapshot are
  /// dropped (and counted) rather than torn.
  std::vector<LogRecord> Snapshot() const;

  /// Records dropped so far: arrivals during a snapshot/dump plus ring
  /// writers overtaken by a full ring lap.
  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  size_t ring_capacity() const { return mask_ + 1; }

  /// Crash hook: logs a fatal record, then — when Options::crash_dump_path
  /// is set and no dump has fired yet — writes the flight-recorder dump
  /// there and reports the outcome (dump written or dump failed) as one
  /// line on stderr: the line is about the ring itself, and no sink can
  /// be relied on at crash time. Called by the engine on a permanent
  /// (chaos-) task failure and by the SKYMR_CHECK fatal hook after
  /// InstallAsFatalDumper().
  void NotifyFatal(std::string_view reason);

  /// Writes the skymr-flight-v1 dump: a header object (schema, reason,
  /// dropped count, record count) then one FormatLogLine line per
  /// retained record, oldest first.
  Status DumpFlightRecorder(std::ostream& os, std::string_view reason) const;
  Status DumpFlightRecorderFile(const std::string& path,
                                std::string_view reason) const;

  /// True once NotifyFatal has written (or attempted) the crash dump.
  bool crash_dumped() const {
    return crash_dumped_.load(std::memory_order_acquire);
  }

  /// Registers this logger as the process-wide fatal dumper: a
  /// SKYMR_CHECK failure calls NotifyFatal("check-failure") before
  /// aborting, so the flight recorder survives even invariant crashes.
  /// The registration is cleared by the destructor.
  void InstallAsFatalDumper();

 private:
  struct Slot;

  /// Claims one ring slot and copies `record` in; returns false (and
  /// counts a drop) when the ring is quiesced or the slot is contended.
  bool Append(const LogRecord& record);

  Options options_;
  /// steady_clock origin for ts_us.
  const std::chrono::steady_clock::time_point epoch_;

  // Flight recorder: power-of-two ring of seqlock-guarded slots.
  size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};
  /// False while a snapshot drains the ring; appends drop instead of
  /// tearing the reader.
  std::atomic<bool> recording_{true};
  mutable std::atomic<int> writers_in_flight_{0};
  std::atomic<int64_t> dropped_{0};

  std::mutex sink_mutex_;
  std::vector<LogSink*> sinks_;

  std::atomic<bool> crash_dumped_{false};
  bool installed_as_fatal_dumper_ = false;
};

}  // namespace skymr::obs

#endif  // SKYMR_OBS_LOG_H_

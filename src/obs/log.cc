#include "src/obs/log.h"

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "src/common/logging.h"
#include "src/obs/json.h"
#include "src/obs/json_parse.h"

namespace skymr::obs {
namespace {

/// The logger a SKYMR_CHECK failure dumps (InstallAsFatalDumper).
std::atomic<Logger*> g_fatal_dumper{nullptr};

void FatalDumpHook() {
  if (Logger* logger = g_fatal_dumper.load(std::memory_order_acquire)) {
    logger->NotifyFatal("check-failure");
  }
}

/// Copies `text` into a NUL-terminated fixed array, truncating silently:
/// a too-long event name must degrade, not drop the record.
template <size_t N>
void CopyTruncated(std::string_view text, char (&out)[N]) {
  const size_t n = std::min(text.size(), N - 1);
  // Stop at an embedded NUL: the array is read back as a C string, so
  // bytes after a NUL would be silently unreachable anyway (keeps
  // Format(Parse(line)) a fixpoint).
  size_t end = 0;
  while (end < n && text[end] != '\0') {
    ++end;
  }
  if (end != 0) {  // empty string_views may carry a null data().
    std::memcpy(out, text.data(), end);
  }
  out[end] = '\0';
}

constexpr uint64_t kSlotEmpty = 0;
constexpr uint64_t SlotBusy(uint64_t seq) { return 2 * seq + 1; }
constexpr uint64_t SlotCommitted(uint64_t seq) { return 2 * seq + 2; }

size_t RoundUpPow2(size_t n) {
  size_t p = 8;
  while (p < n && p < (size_t{1} << 30)) {
    p <<= 1;
  }
  return p;
}

}  // namespace

struct Logger::Slot {
  std::atomic<uint64_t> seq{kSlotEmpty};
  LogRecord record;
};

const char* LogSeverityName(LogSeverity severity) {
  switch (severity) {
    case LogSeverity::kDebug:
      return "debug";
    case LogSeverity::kInfo:
      return "info";
    case LogSeverity::kWarn:
      return "warn";
    case LogSeverity::kError:
      return "error";
    case LogSeverity::kFatal:
      return "fatal";
  }
  return "unknown";
}

StatusOr<LogSeverity> ParseLogSeverity(std::string_view name) {
  for (const LogSeverity severity :
       {LogSeverity::kDebug, LogSeverity::kInfo, LogSeverity::kWarn,
        LogSeverity::kError, LogSeverity::kFatal}) {
    if (name == LogSeverityName(severity)) {
      return severity;
    }
  }
  return Status::InvalidArgument("unknown log severity: " +
                                 std::string(name));
}

std::string FormatLogLine(const LogRecord& record) {
  std::ostringstream os;
  JsonWriter w(os, /*compact=*/true);
  w.BeginObject();
  w.Key("ts_us");
  w.Double(record.ts_us);
  w.Key("sev");
  w.String(LogSeverityName(record.severity));
  w.Key("event");
  w.String(record.event);
  if (record.query_id != 0) {
    w.Key("query");
    w.Uint(record.query_id);
  }
  if (record.tag[0] != '\0') {
    w.Key("tag");
    w.String(record.tag);
  }
  if (record.job[0] != '\0') {
    w.Key("job");
    w.String(record.job);
  }
  if (record.task >= 0) {
    w.Key("task");
    w.Int(record.task);
  }
  if (record.attempt != 0) {
    w.Key("attempt");
    w.Int(record.attempt);
  }
  if (record.message[0] != '\0') {
    w.Key("msg");
    w.String(record.message);
  }
  w.EndObject();
  return os.str();
}

StatusOr<LogRecord> ParseLogLine(std::string_view line) {
  auto doc_or = ParseJson(line);
  if (!doc_or.ok()) {
    return doc_or.status();
  }
  const JsonValue& doc = doc_or.value();
  if (!doc.is_object()) {
    return Status::InvalidArgument("log line is not a JSON object");
  }
  const JsonValue* sev = doc.Find("sev");
  if (sev == nullptr || !sev->is_string()) {
    return Status::InvalidArgument("log line has no \"sev\" string");
  }
  auto severity_or = ParseLogSeverity(sev->AsString());
  if (!severity_or.ok()) {
    return severity_or.status();
  }
  LogRecord record;
  record.severity = severity_or.value();
  record.ts_us = doc.GetDouble("ts_us", 0.0);
  const double query = doc.GetDouble("query", 0.0);
  // A value no uint64 holds is no query id, like a non-positive one.
  record.query_id = query > 0.0 && query < 0x1p64
                        ? static_cast<uint64_t>(query)
                        : uint64_t{0};
  const int64_t task = doc.GetInt("task", -1);
  record.task = task >= 0 && task <= INT32_MAX
                    ? static_cast<int32_t>(task)
                    : int32_t{-1};
  const int64_t attempt = doc.GetInt("attempt", 0);
  record.attempt = attempt > 0 && attempt <= INT32_MAX
                       ? static_cast<int32_t>(attempt)
                       : int32_t{0};
  CopyTruncated(doc.GetString("event", ""), record.event);
  CopyTruncated(doc.GetString("tag", ""), record.tag);
  CopyTruncated(doc.GetString("job", ""), record.job);
  CopyTruncated(doc.GetString("msg", ""), record.message);
  return record;
}

void StreamLogSink::Write(const LogRecord& record) {
  // One insert per line: concurrent writers to a shared stream cannot
  // interleave fragments (same policy as common/logging.cc).
  os_ << FormatLogLine(record) + "\n";
}

Logger::Logger() : Logger(Options()) {}

Logger::Logger(const Options& options)
    : options_(options), epoch_(std::chrono::steady_clock::now()) {
  mask_ = RoundUpPow2(options.ring_capacity) - 1;
  slots_ = std::make_unique<Slot[]>(mask_ + 1);
}

Logger::~Logger() {
  if (installed_as_fatal_dumper_) {
    Logger* self = this;
    g_fatal_dumper.compare_exchange_strong(self, nullptr,
                                           std::memory_order_acq_rel);
  }
}

bool Logger::Append(const LogRecord& record) {
  writers_in_flight_.fetch_add(1, std::memory_order_seq_cst);
  if (!recording_.load(std::memory_order_seq_cst)) {
    writers_in_flight_.fetch_sub(1, std::memory_order_seq_cst);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq & mask_];
  // Claim the slot: its previous occupant must have committed (or the
  // slot is empty on the first lap). A writer a whole ring lap behind is
  // still mid-copy here — overwriting would tear its record, so this
  // record is dropped instead.
  uint64_t expected =
      seq > mask_ ? SlotCommitted(seq - (mask_ + 1)) : kSlotEmpty;
  if (!slot.seq.compare_exchange_strong(expected, SlotBusy(seq),
                                        std::memory_order_acq_rel)) {
    writers_in_flight_.fetch_sub(1, std::memory_order_seq_cst);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  slot.record = record;
  slot.seq.store(SlotCommitted(seq), std::memory_order_release);
  writers_in_flight_.fetch_sub(1, std::memory_order_seq_cst);
  return true;
}

void Logger::Log(LogSeverity severity, std::string_view event,
                 std::string_view message, const Fields& fields) {
  LogRecord record;
  record.ts_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - epoch_)
          .count();
  record.severity = severity;
  record.query_id = fields.query_id;
  record.task = fields.task;
  record.attempt = fields.attempt;
  CopyTruncated(event, record.event);
  CopyTruncated(fields.tag, record.tag);
  CopyTruncated(fields.job, record.job);
  CopyTruncated(message, record.message);
  Append(record);
  if (severity >= options_.min_severity) {
    std::lock_guard<std::mutex> lock(sink_mutex_);
    for (LogSink* sink : sinks_) {
      sink->Write(record);
    }
  }
}

void Logger::LogQuery(LogSeverity severity, const QueryContext& query,
                      std::string_view event, std::string_view message,
                      std::string_view job, int32_t task, int32_t attempt) {
  Fields fields;
  fields.query_id = query.id;
  fields.tag = query.tag;
  fields.job = job;
  fields.task = task;
  fields.attempt = attempt;
  Log(severity, event, message, fields);
}

void Logger::AddSink(LogSink* sink) {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  sinks_.push_back(sink);
}

std::vector<LogRecord> Logger::Snapshot() const {
  // Quiesce the ring: no new writers enter, in-flight writers finish.
  // Log() calls racing the drain are dropped (and counted) — a torn
  // record in a crash dump is worse than a missing one.
  Logger* self = const_cast<Logger*>(this);
  self->recording_.store(false, std::memory_order_seq_cst);
  while (writers_in_flight_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  const uint64_t head = head_.load(std::memory_order_seq_cst);
  const uint64_t capacity = mask_ + 1;
  const uint64_t first = head > capacity ? head - capacity : 0;
  std::vector<LogRecord> out;
  out.reserve(head - first);
  for (uint64_t seq = first; seq < head; ++seq) {
    const Slot& slot = slots_[seq & mask_];
    if (slot.seq.load(std::memory_order_acquire) == SlotCommitted(seq)) {
      out.push_back(slot.record);
    }
  }
  self->recording_.store(true, std::memory_order_seq_cst);
  return out;
}

Status Logger::DumpFlightRecorder(std::ostream& os,
                                  std::string_view reason) const {
  const std::vector<LogRecord> records = Snapshot();
  {
    std::ostringstream header;
    JsonWriter w(header, /*compact=*/true);
    w.BeginObject();
    w.Key("schema");
    w.String(kFlightSchemaVersion);
    w.Key("reason");
    w.String(reason);
    w.Key("records");
    w.Uint(records.size());
    w.Key("ring_capacity");
    w.Uint(ring_capacity());
    w.Key("dropped");
    w.Int(dropped());
    w.EndObject();
    os << header.str() + "\n";
  }
  for (const LogRecord& record : records) {
    os << FormatLogLine(record) + "\n";
  }
  if (!os) {
    return Status::Internal("flight recorder dump: stream write failed");
  }
  return Status::OK();
}

Status Logger::DumpFlightRecorderFile(const std::string& path,
                                      std::string_view reason) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    return Status::Internal("flight recorder dump: cannot open " + path);
  }
  return DumpFlightRecorder(file, reason);
}

void Logger::NotifyFatal(std::string_view reason) {
  Log(LogSeverity::kFatal, "log.fatal", std::string(reason));
  if (options_.crash_dump_path.empty()) {
    return;
  }
  bool expected = false;
  if (!crash_dumped_.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
    return;  // First fatal wins: the dump shows the events *before* it.
  }
  const Status dumped =
      DumpFlightRecorderFile(options_.crash_dump_path, reason);
  const std::string line =
      dumped.ok() ? "flight recorder: dumped " +
                        std::to_string(ring_capacity()) + "-slot ring to " +
                        options_.crash_dump_path + " (" +
                        std::string(reason) + ")\n"
                  : "flight recorder: dump failed: " + dumped.message() +
                        "\n";
  std::cerr << line;  // One insert, so the line cannot interleave.
}

void Logger::InstallAsFatalDumper() {
  installed_as_fatal_dumper_ = true;
  g_fatal_dumper.store(this, std::memory_order_release);
  internal::SetFatalHook(&FatalDumpHook);
}

}  // namespace skymr::obs

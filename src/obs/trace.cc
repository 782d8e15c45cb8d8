#include "src/obs/trace.h"

#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>

#include "src/obs/json.h"

namespace skymr::obs {
namespace internal {

std::atomic<bool> g_tracing_active{false};

namespace {

using Clock = std::chrono::steady_clock;

/// One thread's event buffer. Appended to only by its owner thread;
/// read/cleared by the registry functions, which the header contract
/// restricts to quiescent moments (no spans executing).
struct ThreadBuffer {
  uint32_t tid = 0;
  std::vector<TraceEvent> events;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  uint32_t next_tid = 1;
  Clock::time_point epoch = Clock::now();
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // Leaked: outlives all threads.
  return *registry;
}

thread_local ThreadBuffer* t_buffer = nullptr;
/// Number of spans open on this thread.
thread_local uint32_t t_span_depth = 0;

ThreadBuffer* GetThreadBuffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    buffer->tid = registry.next_tid++;
    t_buffer = buffer.get();
    registry.buffers.push_back(std::move(buffer));
  }
  return t_buffer;
}

}  // namespace

double NowMicros() {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   GetRegistry().epoch)
      .count();
}

void RecordEvent(const TraceEvent& event) {
  GetThreadBuffer()->events.push_back(event);
}

uint32_t EnterSpan() { return t_span_depth++; }

void LeaveSpan() { --t_span_depth; }

}  // namespace internal

void StartTracing() {
  if (!TracingCompiledIn()) {
    return;
  }
  internal::Registry& registry = internal::GetRegistry();
  {
    std::lock_guard<std::mutex> lock(registry.mutex);
    for (auto& buffer : registry.buffers) {
      buffer->events.clear();
    }
    registry.epoch = internal::Clock::now();
  }
  internal::g_tracing_active.store(true, std::memory_order_relaxed);
}

void StopTracing() {
  internal::g_tracing_active.store(false, std::memory_order_relaxed);
}

void ClearTrace() {
  internal::Registry& registry = internal::GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (auto& buffer : registry.buffers) {
    buffer->events.clear();
  }
}

size_t CollectedEventCount() {
  internal::Registry& registry = internal::GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  size_t count = 0;
  for (const auto& buffer : registry.buffers) {
    count += buffer->events.size();
  }
  return count;
}

std::vector<TraceEventView> SnapshotTrace() {
  internal::Registry& registry = internal::GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::vector<TraceEventView> out;
  for (const auto& buffer : registry.buffers) {
    for (const internal::TraceEvent& event : buffer->events) {
      TraceEventView view;
      view.name = event.name;
      view.ts_us = event.ts_us;
      view.dur_us = event.dur_us;
      view.tid = buffer->tid;
      view.depth = event.depth;
      view.phase = event.phase;
      if (event.arg1_name != nullptr) {
        view.args.emplace_back(event.arg1_name, event.arg1_value);
      }
      if (event.arg2_name != nullptr) {
        view.args.emplace_back(event.arg2_name, event.arg2_value);
      }
      out.push_back(std::move(view));
    }
  }
  return out;
}

void WriteChromeTrace(std::ostream& os) {
  internal::Registry& registry = internal::GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  JsonWriter w(os, /*compact=*/true);
  w.BeginObject();
  w.Key("schema");
  w.String(kTraceSchemaVersion);
  w.Key("displayTimeUnit");
  w.String("ms");
  w.Key("traceEvents");
  w.BeginArray();
  for (const auto& buffer : registry.buffers) {
    for (const internal::TraceEvent& event : buffer->events) {
      w.BeginObject();
      w.Key("name");
      w.String(event.name);
      w.Key("cat");
      w.String("skymr");
      w.Key("ph");
      w.String(std::string_view(&event.phase, 1));
      w.Key("ts");
      w.Double(event.ts_us);
      if (event.phase == 'X') {
        w.Key("dur");
        w.Double(event.dur_us);
      } else {
        // Chrome requires a scope for instant events; "t" = this thread.
        w.Key("s");
        w.String("t");
      }
      w.Key("pid");
      w.Int(1);
      w.Key("tid");
      w.Int(buffer->tid);
      w.Key("args");
      w.BeginObject();
      w.Key("depth");
      w.Uint(event.depth);
      if (event.arg1_name != nullptr) {
        w.Key(event.arg1_name);
        w.Int(event.arg1_value);
      }
      if (event.arg2_name != nullptr) {
        w.Key(event.arg2_name);
        w.Int(event.arg2_value);
      }
      w.EndObject();
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  os << '\n';
}

Status WriteChromeTraceFile(const std::string& path) {
  std::ofstream file(path);
  if (!file.is_open()) {
    return Status::Internal("cannot open trace output file: " + path);
  }
  WriteChromeTrace(file);
  file.flush();
  if (!file.good()) {
    return Status::Internal("failed writing trace to: " + path);
  }
  return Status::OK();
}

}  // namespace skymr::obs

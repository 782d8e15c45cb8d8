#include "src/common/logging.h"

#include <atomic>
#include <mutex>

namespace skymr::internal {
namespace {

std::mutex g_check_mutex;
std::atomic<FatalHook> g_fatal_hook{nullptr};

}  // namespace

void SetFatalHook(FatalHook hook) {
  g_fatal_hook.store(hook, std::memory_order_relaxed);
}

CheckFailure::CheckFailure(const char* file, int line) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  stream_ << "[F " << base << ":" << line << "] ";
}

CheckFailure::~CheckFailure() {
  // Assemble the full line — newline included — before touching the sink,
  // then emit it with one insert: a single write that other threads (and,
  // since stderr is unbuffered, other processes sharing the fd) cannot
  // split mid-line.
  stream_ << '\n';
  const std::string line = stream_.str();
  {
    std::lock_guard<std::mutex> lock(g_check_mutex);
    std::cerr << line;
  }
  // Give the flight recorder its last chance to dump before the abort;
  // the hook is cleared first so a hook that itself fails a check cannot
  // recurse.
  if (FatalHook hook =
          g_fatal_hook.exchange(nullptr, std::memory_order_acq_rel)) {
    hook();
  }
  std::abort();
}

}  // namespace skymr::internal

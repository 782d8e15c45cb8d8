#include "src/mapreduce/chaos.h"

#include <cmath>

namespace skymr::mr {
namespace {

/// Decision-site salts: each injection site hashes with its own salt so
/// e.g. "attempt 2 crashes" and "attempt 2 is slow" are independent coins.
enum Salt : uint64_t {
  kSaltCrash = 0x1,
  kSaltSlow = 0x2,
  kSaltCorrupt = 0x3,
  kSaltCorruptIndex = 0x4,
  kSaltCache = 0x5,
};

uint64_t HashString(const std::string& s) {
  // FNV-1a, then one splitmix64 round to spread short names.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return ChaosMix64(h);
}

/// Maps a 64-bit hash onto [0, 1) with 53 bits of precision.
double UnitDouble(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

Status BadRate(const char* knob, double value) {
  return Status::InvalidArgument(
      std::string("chaos: ") + knob + " = " + std::to_string(value) +
      " is out of range");
}

}  // namespace

uint64_t ChaosMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

StatusOr<ChaosSchedule> ChaosProfile(const std::string& name) {
  ChaosSchedule schedule;
  if (name == "none") {
    return schedule;
  }
  if (name == "crash5") {
    schedule.crash_rate = 0.05;
    return schedule;
  }
  if (name == "crash20") {
    schedule.crash_rate = 0.20;
    return schedule;
  }
  if (name == "slow") {
    schedule.slow_rate = 0.15;
    schedule.slow_ms = 25.0;
    return schedule;
  }
  if (name == "corrupt") {
    schedule.corrupt_rate = 0.25;
    return schedule;
  }
  if (name == "flaky-cache") {
    schedule.cache_fail_rate = 0.10;
    return schedule;
  }
  if (name == "mixed") {
    schedule.crash_rate = 0.05;
    schedule.slow_rate = 0.05;
    schedule.slow_ms = 10.0;
    schedule.corrupt_rate = 0.05;
    schedule.cache_fail_rate = 0.05;
    return schedule;
  }
  if (name == "storm") {
    // Every task crashes on its first two attempts: 2 retries per task,
    // guaranteed to trip the doctor's retry-storm heuristic. Requires an
    // attempt budget of at least 3.
    schedule.crash_until_attempt = 2;
    return schedule;
  }
  std::string known;
  for (const std::string& profile : ChaosProfileNames()) {
    known += known.empty() ? profile : " " + profile;
  }
  return Status::InvalidArgument("unknown chaos profile '" + name +
                                 "' (known: " + known + ")");
}

std::vector<std::string> ChaosProfileNames() {
  return {"none", "crash5", "crash20", "slow", "corrupt", "flaky-cache",
          "mixed", "storm"};
}

Status ValidateChaosSchedule(const ChaosSchedule& schedule,
                             int max_task_attempts) {
  // Failure-site rates must leave room for a clean retry; a rate of 1
  // guarantees the job can never finish. Accept-form comparisons so NaN
  // (which fails every ordering) is rejected instead of slipping through
  // a reject-form `x < 0.0 || x >= 1.0` check.
  if (!(schedule.crash_rate >= 0.0 && schedule.crash_rate < 1.0)) {
    return BadRate("crash_rate (must be in [0, 1))", schedule.crash_rate);
  }
  if (!(schedule.corrupt_rate >= 0.0 && schedule.corrupt_rate < 1.0)) {
    return BadRate("corrupt_rate (must be in [0, 1))", schedule.corrupt_rate);
  }
  if (!(schedule.cache_fail_rate >= 0.0 && schedule.cache_fail_rate < 1.0)) {
    return BadRate("cache_fail_rate (must be in [0, 1))",
                   schedule.cache_fail_rate);
  }
  if (!(schedule.slow_rate >= 0.0 && schedule.slow_rate <= 1.0)) {
    return BadRate("slow_rate (must be in [0, 1])", schedule.slow_rate);
  }
  if (!(schedule.slow_ms >= 0.0 && std::isfinite(schedule.slow_ms))) {
    return BadRate("slow_ms (must be finite and >= 0)", schedule.slow_ms);
  }
  if (schedule.crash_until_attempt < 0) {
    return Status::InvalidArgument(
        "chaos: crash_until_attempt must be >= 0");
  }
  if (schedule.crash_until_attempt >= max_task_attempts &&
      schedule.crash_until_attempt > 0) {
    return Status::InvalidArgument(
        "chaos: crash_until_attempt = " +
        std::to_string(schedule.crash_until_attempt) +
        " with max_task_attempts = " + std::to_string(max_task_attempts) +
        " crashes every allowed attempt; no task can ever succeed");
  }
  return Status::OK();
}

ChaosEngine::ChaosEngine(const ChaosSchedule& schedule,
                         const std::string& job_name)
    : schedule_(schedule),
      job_hash_(HashString(job_name)),
      fail_job_hit_(!schedule.fail_job.empty() &&
                    job_name.find(schedule.fail_job) != std::string::npos) {}

double ChaosEngine::UnitHash(uint64_t salt, uint64_t a, uint64_t b,
                             uint64_t c, uint64_t d) const {
  uint64_t h = schedule_.seed ^ 0x6a09e667f3bcc909ULL;
  h = ChaosMix64(h ^ job_hash_);
  h = ChaosMix64(h ^ salt);
  h = ChaosMix64(h ^ a);
  h = ChaosMix64(h ^ b);
  h = ChaosMix64(h ^ c);
  h = ChaosMix64(h ^ d);
  return UnitDouble(h);
}

bool ChaosEngine::ShouldCrash(int kind, int task, int attempt) {
  bool hit = fail_job_hit_ || attempt <= schedule_.crash_until_attempt;
  if (!hit && schedule_.crash_rate > 0.0) {
    hit = UnitHash(kSaltCrash, static_cast<uint64_t>(kind),
                   static_cast<uint64_t>(task),
                   static_cast<uint64_t>(attempt)) < schedule_.crash_rate;
  }
  if (hit) {
    crashes_.fetch_add(1, std::memory_order_relaxed);
  }
  return hit;
}

double ChaosEngine::SlowDelayMs(int kind, int task, int attempt) {
  bool hit = schedule_.slow_task >= 0 && task == schedule_.slow_task &&
             attempt <= schedule_.slow_until_attempt;
  if (!hit && schedule_.slow_rate > 0.0) {
    hit = UnitHash(kSaltSlow, static_cast<uint64_t>(kind),
                   static_cast<uint64_t>(task),
                   static_cast<uint64_t>(attempt)) < schedule_.slow_rate;
  }
  if (!hit) {
    return 0.0;
  }
  slow_.fetch_add(1, std::memory_order_relaxed);
  return schedule_.slow_ms;
}

bool ChaosEngine::ShouldCorruptShuffle(int task, int attempt) {
  if (schedule_.corrupt_rate <= 0.0) {
    return false;
  }
  const bool hit =
      UnitHash(kSaltCorrupt, static_cast<uint64_t>(task),
               static_cast<uint64_t>(attempt), 0) < schedule_.corrupt_rate;
  if (hit) {
    corruptions_.fetch_add(1, std::memory_order_relaxed);
  }
  return hit;
}

size_t ChaosEngine::CorruptIndex(int task, int attempt,
                                 size_t count) const {
  uint64_t h = schedule_.seed ^ job_hash_;
  h = ChaosMix64(h ^ kSaltCorruptIndex);
  h = ChaosMix64(h ^ static_cast<uint64_t>(task));
  h = ChaosMix64(h ^ static_cast<uint64_t>(attempt));
  return static_cast<size_t>(h % count);
}

bool ChaosEngine::ShouldFailCacheRead(int kind, int task, int attempt,
                                      uint64_t sequence) {
  if (schedule_.cache_fail_rate <= 0.0) {
    return false;
  }
  const bool hit = UnitHash(kSaltCache, static_cast<uint64_t>(kind),
                            static_cast<uint64_t>(task),
                            static_cast<uint64_t>(attempt),
                            sequence) < schedule_.cache_fail_rate;
  if (hit) {
    cache_faults_.fetch_add(1, std::memory_order_relaxed);
  }
  return hit;
}

namespace {

/// The thread's active task attempt. Lookups inside the attempt count up
/// `sequence` so each Get rolls its own deterministic coin.
struct TaskScopeState {
  ChaosEngine* engine;
  int kind;
  int task;
  int attempt;
  uint64_t sequence;
  TaskScopeState* previous;
};

thread_local TaskScopeState* tls_task_scope = nullptr;

}  // namespace

ChaosTaskScope::ChaosTaskScope(ChaosEngine* engine, int kind, int task,
                               int attempt) {
  auto* state = new TaskScopeState{engine, kind, task, attempt, 0,
                                   tls_task_scope};
  previous_ = tls_task_scope;
  tls_task_scope = state;
}

ChaosTaskScope::~ChaosTaskScope() {
  TaskScopeState* state = tls_task_scope;
  tls_task_scope = static_cast<TaskScopeState*>(previous_);
  delete state;
}

bool ChaosInjectCacheFault() {
  TaskScopeState* scope = tls_task_scope;
  if (scope == nullptr || scope->engine == nullptr) {
    return false;
  }
  return scope->engine->ShouldFailCacheRead(scope->kind, scope->task,
                                            scope->attempt,
                                            scope->sequence++);
}

}  // namespace skymr::mr

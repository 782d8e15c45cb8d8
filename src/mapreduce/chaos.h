// Deterministic fault injection for the simulated MapReduce engine.
//
// The paper's setting is a cluster where tasks crash, straggle, and get
// re-executed; a ChaosSchedule reproduces those conditions inside the
// in-process engine so the fault-tolerance machinery (retry with backoff,
// the GPMRS -> GPSRS degradation) can be exercised and regression-tested.
// Every injection decision is a pure hash of (seed, job, task kind, task
// id, attempt[, extras]) — no shared RNG state — so thread scheduling
// cannot perturb which attempts fail: the same seed yields the same
// failures, the same retry counters, and a bit-identical skyline on every
// run.
//
// Injection sites:
//  * crash     — the scheduler throws TaskFailure at attempt start
//                (the attempt dies before writing any output);
//  * slow      — the scheduler sleeps slow_ms before running the attempt
//                (straggler); cancelling the job ends the sleep early;
//  * corrupt   — one serialized shuffle value of a reduce attempt is
//                truncated in an attempt-local copy of the slice index;
//                the reducer's Serde read hits the existing
//                SerdeUnderflow path and the retry reads clean bytes;
//  * cache     — DistributedCache lookups made inside a task attempt
//                return a miss (nullptr), exercising the user-code
//                missing-side-data failure paths. Routed through a
//                thread-local task-attempt scope so the cache needs no
//                knowledge of the engine.

#ifndef SKYMR_MAPREDUCE_CHAOS_H_
#define SKYMR_MAPREDUCE_CHAOS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace skymr::mr {

/// One job-wide fault-injection plan. All-default means chaos is off and
/// the engine takes its zero-overhead path.
struct ChaosSchedule {
  /// Seed for every injection hash. Two runs with equal seeds (and equal
  /// schedules) inject exactly the same faults.
  uint64_t seed = 0;
  /// Probability that a given (task, attempt) crashes before running.
  double crash_rate = 0.0;
  /// Attempts <= this value always crash (crash-on-attempt-N: a task
  /// succeeds only from attempt crash_until_attempt + 1 on). 0 = off.
  int crash_until_attempt = 0;
  /// Probability that a given (task, attempt) is delayed by slow_ms.
  double slow_rate = 0.0;
  /// Straggler delay in milliseconds for slow attempts.
  double slow_ms = 20.0;
  /// Deterministic straggler: this task id (when >= 0) is delayed by
  /// slow_ms on attempts <= slow_until_attempt.
  int slow_task = -1;
  int slow_until_attempt = 1;
  /// Probability that a reduce (task, attempt) reads one truncated
  /// shuffle value (SerdeUnderflow on deserialization).
  double corrupt_rate = 0.0;
  /// Probability that a DistributedCache lookup inside a task attempt
  /// misses even though the entry exists.
  double cache_fail_rate = 0.0;
  /// Poisoned job: every task attempt of jobs whose name contains this
  /// substring crashes. Drives the GPMRS -> GPSRS degradation path.
  std::string fail_job;

  /// True when any injection can fire.
  bool enabled() const {
    return crash_rate > 0.0 || crash_until_attempt > 0 || slow_rate > 0.0 ||
           slow_task >= 0 || corrupt_rate > 0.0 || cache_fail_rate > 0.0 ||
           !fail_job.empty();
  }
};

/// Named chaos profiles for the CLI / CI (--chaos-profile). "none" is the
/// empty schedule; unknown names are InvalidArgument.
StatusOr<ChaosSchedule> ChaosProfile(const std::string& name);
std::vector<std::string> ChaosProfileNames();

/// Rejects schedules that cannot terminate (rates >= 1 on failure paths,
/// crash_until_attempt >= max_task_attempts) or are out of range.
Status ValidateChaosSchedule(const ChaosSchedule& schedule,
                             int max_task_attempts);

/// Per-job injection oracle plus injection totals (for the mr.chaos_*
/// counters). Decision methods are deterministic pure hashes; the atomics
/// only count how often each site fired.
class ChaosEngine {
 public:
  ChaosEngine(const ChaosSchedule& schedule, const std::string& job_name);

  const ChaosSchedule& schedule() const { return schedule_; }

  /// True when this (kind, task, attempt) crashes at start.
  bool ShouldCrash(int kind, int task, int attempt);
  /// Injected straggler delay in ms for this attempt; 0 when not slow.
  double SlowDelayMs(int kind, int task, int attempt);
  /// True when this reduce attempt should read one corrupted value.
  bool ShouldCorruptShuffle(int task, int attempt);
  /// Which of `count` shuffle values to truncate. Requires count > 0.
  size_t CorruptIndex(int task, int attempt, size_t count) const;
  /// True when the `sequence`-th cache lookup of this attempt misses.
  bool ShouldFailCacheRead(int kind, int task, int attempt,
                           uint64_t sequence);

  int64_t crashes_injected() const { return crashes_.load(); }
  int64_t slow_injected() const { return slow_.load(); }
  int64_t corruptions_injected() const { return corruptions_.load(); }
  int64_t cache_faults_injected() const { return cache_faults_.load(); }

 private:
  /// Uniform [0, 1) hash of the mixed decision inputs.
  double UnitHash(uint64_t salt, uint64_t a, uint64_t b, uint64_t c,
                  uint64_t d = 0) const;

  ChaosSchedule schedule_;
  uint64_t job_hash_;
  bool fail_job_hit_;
  std::atomic<int64_t> crashes_{0};
  std::atomic<int64_t> slow_{0};
  std::atomic<int64_t> corruptions_{0};
  std::atomic<int64_t> cache_faults_{0};
};

/// RAII marker: "this thread is running task attempt (kind, task,
/// attempt) under `engine`". While a scope is active, ChaosInjectCacheFault
/// consults the engine; scopes nest (the inner one wins) and a null
/// engine disables injection. Installed by the TaskScheduler around every
/// attempt, including the user code it runs.
class ChaosTaskScope {
 public:
  ChaosTaskScope(ChaosEngine* engine, int kind, int task, int attempt);
  ~ChaosTaskScope();
  ChaosTaskScope(const ChaosTaskScope&) = delete;
  ChaosTaskScope& operator=(const ChaosTaskScope&) = delete;

 private:
  void* previous_;
};

/// Called by DistributedCache on every lookup: true means "pretend the
/// entry is missing". Always false outside a ChaosTaskScope or when the
/// active schedule has cache_fail_rate == 0.
bool ChaosInjectCacheFault();

/// splitmix64 finalizer — the mixing primitive behind every injection
/// hash, exported so the scheduler derives deterministic backoff jitter
/// the same way.
uint64_t ChaosMix64(uint64_t x);

}  // namespace skymr::mr

#endif  // SKYMR_MAPREDUCE_CHAOS_H_

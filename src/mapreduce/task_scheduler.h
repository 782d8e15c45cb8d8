// TaskScheduler: the fault-tolerant wave executor behind Job::Run.
//
// Every task of a wave runs as one chain of attempts on a pool worker:
// each attempt first waits out its retry backoff, then takes the chaos
// crash or slow fault (when chaos is on), then runs the attempt body,
// and on a retryable failure the chain retries or, with the budget spent,
// fails the task:
//
//  * retry with exponential backoff + deterministic jitter — a failed
//    attempt waits base * 2^(k-1) ms (capped), scaled by a jitter factor
//    hashed from (seed, job, task, attempt), before re-running;
//  * chaos — when EngineOptions::chaos is enabled, a ChaosEngine decides
//    per attempt whether to crash it, delay it, or fail its cache reads
//    (see chaos.h), all deterministically.
//
// One runner per task means an attempt that returns normally has
// published its task's output, and nothing else can write that slot.
//
// The scheduler is type-erased (attempt bodies are std::function), so it
// compiles once in task_scheduler.cc while the templated Job stays
// header-only.

#ifndef SKYMR_MAPREDUCE_TASK_SCHEDULER_H_
#define SKYMR_MAPREDUCE_TASK_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/mapreduce/chaos.h"
#include "src/obs/log.h"

namespace skymr::obs {
class MetricsRegistry;  // metrics.h
}  // namespace skymr::obs

namespace skymr::mr {

/// Thrown by user code to signal a recoverable task failure; the engine
/// retries the task up to EngineOptions::max_task_attempts times.
class TaskFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown inside an attempt of a cancelled job (TaskScheduler::Cancel).
/// Not a failure: the scheduler stops the task without consuming retry
/// budget. User code may throw it from long loops after polling
/// TaskAttempt::Cancelled().
class TaskCancelled : public std::exception {
 public:
  const char* what() const noexcept override {
    return "task attempt cancelled (the job was cancelled)";
  }
};

/// Map wave or reduce wave (chaos decisions hash the kind so the same
/// task id fails independently in each wave).
enum class TaskKind { kMap = 0, kReduce = 1 };

/// Engine configuration for one job.
struct EngineOptions {
  /// Number of map tasks (m in the paper). The input is split into this
  /// many contiguous splits.
  int num_map_tasks = 4;
  /// Number of reduce tasks (r in the paper).
  int num_reducers = 1;
  /// Worker threads simulating cluster slots; 0 = hardware concurrency.
  int num_threads = 0;
  /// Maximum attempts per task before the job fails (Hadoop default: 4).
  int max_task_attempts = 1;

  // -- Fault tolerance --
  /// First-retry backoff in milliseconds; doubles per failure. 0 turns
  /// backoff off (failed attempts re-run immediately, as before).
  // lint:allow(config-field-set) tests and fuzzers switch backoff off.
  double retry_backoff_base_ms = 1.0;
  /// Backoff cap in milliseconds.
  // lint:allow(config-field-set) tests and fuzzers switch backoff off.
  double retry_backoff_max_ms = 32.0;
  /// Fault injection (off by default; see chaos.h).
  ChaosSchedule chaos;

  // -- Observability --
  /// Live metrics sink (obs/metrics.h). When set, Job::Run records
  /// in-flight job gauges, completion counters, and task/shuffle latency
  /// sketches into it while the job executes. Null (the default) keeps
  /// the engine metrics-free; the registry must outlive the run.
  obs::MetricsRegistry* metrics = nullptr;
  /// Structured log + flight recorder (obs/log.h). When set, Job::Run
  /// and the TaskScheduler emit job/task lifecycle records into it, and
  /// a permanent (chaos-) task failure triggers the flight-recorder
  /// crash dump (Logger::NotifyFatal). Null (the default) keeps the
  /// engine log-free; the logger must outlive the run.
  obs::Logger* log = nullptr;
  /// Correlation spine of the query this job serves: its id and tag are
  /// stamped on every span instant and log record the job's tasks emit,
  /// so one query's events can be picked out of a shared flight
  /// recorder. Default (id 0) means "not query-scoped" (batch runs).
  obs::QueryContext query;
};

/// Rejects nonsensical engine configurations: non-positive task counts,
/// zero attempt budgets, bad backoff tunables, and chaos schedules that
/// can never finish (ValidateChaosSchedule).
Status ValidateEngineOptions(const EngineOptions& options);

/// One scheduled task attempt, handed to the attempt body. The body
/// publishes the task's output slot by returning normally; a failing
/// attempt throws before it writes anything, so a retry starts clean.
struct TaskAttempt {
  int task_id = 0;
  /// 1-based attempt number.
  int attempt = 1;

  /// Cooperative cancellation: set once the job is cancelled. Long-running
  /// user loops may poll and throw TaskCancelled.
  bool Cancelled() const {
    return cancel_flag->load(std::memory_order_relaxed);
  }

  const std::atomic<bool>* cancel_flag = nullptr;
};

/// Per-wave scheduling outcome, merged into the job's mr.* counters.
struct WaveStats {
  /// Failed attempts that were retried (the task.retry instants).
  int64_t retries = 0;
  /// Backoff sleeps taken and their total (deterministic) duration.
  int64_t backoff_waits = 0;
  int64_t backoff_total_ms = 0;
};

/// Runs waves of tasks for one job; construct one scheduler per Job::Run.
class TaskScheduler {
 public:
  /// Attempt body contract: compute the attempt's result, publish it to
  /// the task's output slot and return OK. Throw TaskFailure /
  /// SerdeUnderflow (before writing the slot) for retryable failures; a
  /// non-OK Status is a permanent, non-retryable failure.
  using AttemptBody = std::function<Status(const TaskAttempt&)>;

  TaskScheduler(const EngineOptions& options, std::string job_name);
  ~TaskScheduler();

  /// Runs `num_tasks` tasks to completion on `pool`, retrying per the
  /// options. Returns the error of the lowest-numbered task that failed
  /// or was cancelled, or OK when every task succeeded.
  Status RunWave(ThreadPool* pool, TaskKind kind, int num_tasks,
                 const AttemptBody& body, WaveStats* stats);

  /// Cancels the job: running attempts see TaskAttempt::Cancelled(),
  /// backoff and chaos sleeps end early, no further attempt starts, and
  /// every wave with an unfinished task fails. Safe from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// The job's fault injector; null when chaos is disabled.
  ChaosEngine* chaos() const { return chaos_.get(); }

 private:
  struct TaskOutcome;

  TaskOutcome RunTask(TaskKind kind, int task, const AttemptBody& body);
  /// Logs a task's permanent failure (triggering the flight-recorder
  /// dump) and returns it.
  Status Fail(Status status, int task);
  void Backoff(TaskKind kind, int task, int attempt, TaskOutcome* outcome);
  void SleepCancellable(double delay_ms) const;
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

  const EngineOptions options_;
  const std::string job_name_;
  std::unique_ptr<ChaosEngine> chaos_;
  std::atomic<bool> cancelled_{false};
};

}  // namespace skymr::mr

#endif  // SKYMR_MAPREDUCE_TASK_SCHEDULER_H_

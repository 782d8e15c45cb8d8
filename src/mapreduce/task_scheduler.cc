#include "src/mapreduce/task_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "src/common/serde.h"
#include "src/obs/trace.h"

namespace skymr::mr {
namespace {

using Clock = std::chrono::steady_clock;

const char* KindName(TaskKind kind) {
  return kind == TaskKind::kMap ? "map" : "reduce";
}

}  // namespace

Status ValidateEngineOptions(const EngineOptions& options) {
  if (options.num_map_tasks < 1 || options.num_reducers < 1) {
    return Status::InvalidArgument("engine: task counts must be >= 1");
  }
  if (options.max_task_attempts < 1) {
    return Status::InvalidArgument("engine: max_task_attempts must be >= 1");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument(
        "engine: num_threads must be >= 0 (0 = default)");
  }
  // Accept-form float comparisons: NaN fails every ordering, so
  // `!(x >= 0.0)`-style checks reject it, where the reject-form
  // `x < 0.0` would let a NaN tunable reach the scheduler's arithmetic.
  if (!(options.retry_backoff_base_ms >= 0.0 &&
        options.retry_backoff_max_ms >= 0.0 &&
        std::isfinite(options.retry_backoff_base_ms) &&
        std::isfinite(options.retry_backoff_max_ms))) {
    return Status::InvalidArgument(
        "engine: backoff durations must be finite and >= 0");
  }
  if (options.retry_backoff_base_ms > options.retry_backoff_max_ms) {
    return Status::InvalidArgument(
        "engine: retry_backoff_base_ms exceeds retry_backoff_max_ms");
  }
  return ValidateChaosSchedule(options.chaos, options.max_task_attempts);
}

/// What one task's chain of attempts left behind: its final status and
/// its share of the wave's retry counters.
struct TaskScheduler::TaskOutcome {
  Status status;
  int64_t retries = 0;
  int64_t backoff_waits = 0;
  int64_t backoff_total_ms = 0;
};

TaskScheduler::TaskScheduler(const EngineOptions& options,
                             std::string job_name)
    : options_(options),
      job_name_(std::move(job_name)),
      chaos_(options.chaos.enabled()
                 ? std::make_unique<ChaosEngine>(options.chaos, job_name_)
                 : nullptr) {}

TaskScheduler::~TaskScheduler() = default;

Status TaskScheduler::RunWave(ThreadPool* pool, TaskKind kind, int num_tasks,
                              const AttemptBody& body, WaveStats* stats) {
  // Each task's chain writes only its own outcome slot.
  std::vector<TaskOutcome> outcomes(static_cast<size_t>(num_tasks));
  ParallelFor(pool, num_tasks, [&](int task) {
    outcomes[static_cast<size_t>(task)] = RunTask(kind, task, body);
  });
  Status first_error;
  for (TaskOutcome& outcome : outcomes) {
    if (stats != nullptr) {
      stats->retries += outcome.retries;
      stats->backoff_waits += outcome.backoff_waits;
      stats->backoff_total_ms += outcome.backoff_total_ms;
    }
    if (first_error.ok()) {
      first_error = std::move(outcome.status);
    }
  }
  return first_error;
}

TaskScheduler::TaskOutcome TaskScheduler::RunTask(TaskKind kind, int task,
                                                  const AttemptBody& body) {
  const int kind_id = static_cast<int>(kind);
  const auto task_name = [&] {
    return "job '" + job_name_ + "' " + KindName(kind) + " task " +
           std::to_string(task);
  };
  TaskOutcome outcome;
  for (int attempt = 1;; ++attempt) {
    if (attempt > 1) {
      Backoff(kind, task, attempt, &outcome);
    }
    std::string failure;
    try {
      if (cancelled()) {
        throw TaskCancelled();
      }
      ChaosTaskScope scope(chaos_.get(), kind_id, task, attempt);
      if (chaos_ != nullptr) {
        if (chaos_->ShouldCrash(kind_id, task, attempt)) {
          throw TaskFailure(std::string("chaos: injected crash (") +
                            KindName(kind) + " task " +
                            std::to_string(task) + ", attempt " +
                            std::to_string(attempt) + ")");
        }
        const double delay_ms = chaos_->SlowDelayMs(kind_id, task, attempt);
        if (delay_ms > 0.0) {
          SleepCancellable(delay_ms);
          if (cancelled()) {
            throw TaskCancelled();
          }
        }
      }
      TaskAttempt handle;
      handle.task_id = task;
      handle.attempt = attempt;
      handle.cancel_flag = &cancelled_;
      outcome.status = body(handle);
      if (!outcome.status.ok()) {
        outcome.status = Fail(std::move(outcome.status), task);
      }
      return outcome;
    } catch (const TaskCancelled&) {
      // Not a fault: the task just stops, with no retry budget consumed.
      outcome.status = Status::Internal(task_name() + " was cancelled");
      return outcome;
    } catch (const TaskFailure& e) {
      failure = e.what();
    } catch (const SerdeUnderflow& e) {
      failure = e.what();
    } catch (const std::exception& e) {
      // Anything else is a bug in user code, not a cluster fault: fail the
      // task permanently instead of letting the exception cross the engine
      // boundary (the public API contract is Status, never throw).
      outcome.status = Fail(Status::Internal(task_name() +
                                             " threw unexpected exception: " +
                                             e.what()),
                            task);
      return outcome;
    }
    if (attempt >= options_.max_task_attempts) {
      outcome.status = Fail(Status::Internal(task_name() + " failed after " +
                                             std::to_string(attempt) +
                                             " attempts: " + failure),
                            task);
      return outcome;
    }
    ++outcome.retries;
    SKYMR_TRACE_INSTANT("task.retry", "task", task, "attempt", attempt);
    if (options_.log != nullptr) {
      options_.log->LogQuery(obs::LogSeverity::kWarn, options_.query,
                             "task.retry", failure, job_name_, task, attempt);
    }
  }
}

Status TaskScheduler::Fail(Status status, int task) {
  if (options_.log != nullptr) {
    // The permanent failure is the engine's "fatal chaos fault": record
    // it with the query's id, then trigger the flight-recorder crash
    // dump so the post-mortem shows the events leading up to it.
    options_.log->LogQuery(obs::LogSeverity::kError, options_.query,
                           "task.fatal", status.message(), job_name_, task,
                           0);
    options_.log->NotifyFatal("task.fatal: job '" + job_name_ + "'");
  }
  return status;
}

void TaskScheduler::Backoff(TaskKind kind, int task, int attempt,
                            TaskOutcome* outcome) {
  if (options_.retry_backoff_base_ms <= 0.0) {
    return;
  }
  // attempt 2 waits base, attempt 3 waits 2*base, ... capped at max.
  const int exponent = std::min(attempt - 2, 30);
  double delay_ms = options_.retry_backoff_base_ms *
                    std::ldexp(1.0, std::max(exponent, 0));
  delay_ms = std::min(delay_ms, options_.retry_backoff_max_ms);
  // Deterministic jitter in [0.5, 1.0]: hashed, not drawn from a shared
  // RNG, so retry timing never depends on thread interleaving.
  uint64_t h = ChaosMix64(options_.chaos.seed ^ 0x626f66665f6a6974ULL);
  h = ChaosMix64(h ^ static_cast<uint64_t>(kind));
  h = ChaosMix64(h ^ static_cast<uint64_t>(task));
  h = ChaosMix64(h ^ static_cast<uint64_t>(attempt));
  const double jitter =
      0.5 + 0.5 * (static_cast<double>(h >> 11) * 0x1.0p-53);
  delay_ms *= jitter;
  ++outcome->backoff_waits;
  // Count the planned wait, not the slept wall time: the counter must be
  // identical across runs even when a cancellation cuts the sleep short.
  outcome->backoff_total_ms += static_cast<int64_t>(std::llround(delay_ms));
  SleepCancellable(delay_ms);
}

void TaskScheduler::SleepCancellable(double delay_ms) const {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(delay_ms));
  while (!cancelled()) {
    const auto remaining = deadline - Clock::now();
    if (remaining <= Clock::duration::zero()) {
      return;
    }
    std::this_thread::sleep_for(
        std::min(remaining, std::chrono::duration_cast<Clock::duration>(
                                std::chrono::milliseconds(1))));
  }
}

}  // namespace skymr::mr

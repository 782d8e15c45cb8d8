#include "src/common/thread_pool.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

namespace skymr {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  // Manual predicate loop (not a lambda) so the thread-safety analysis
  // sees the guarded reads happen under mutex_.
  while (!queue_.empty() || active_tasks_ != 0) {
    all_done_.wait(lock);
  }
}

bool ThreadPool::TryRunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) {
      return false;
    }
    task = std::move(queue_.front());
    queue_.pop_front();
    ++active_tasks_;
  }
  RunTask(std::move(task));
  return true;
}

int ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::RunTask(std::function<void()> task) {
  // Caller has already incremented active_tasks_ while popping `task`.
  task();
  std::lock_guard<std::mutex> lock(mutex_);
  --active_tasks_;
  if (queue_.empty() && active_tasks_ == 0) {
    all_done_.notify_all();
  }
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!shutting_down_ && queue_.empty()) {
        work_available_.wait(lock);
      }
      if (queue_.empty()) {
        return;  // Shutting down and fully drained.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_tasks_;
    }
    RunTask(std::move(task));
  }
}

void ParallelFor(ThreadPool* pool, int count,
                 const std::function<void(int)>& fn) {
  if (count <= 0) {
    return;
  }
  // Per-call completion state. A pool-wide WaitIdle would (a) wait on
  // unrelated tasks when several ParallelFor calls share the pool and
  // (b) deadlock when called from inside a task, because the caller
  // itself counts as active. Tracking exactly our `count` tasks — and
  // helping run queued work while waiting — fixes both.
  struct CallState {
    std::mutex mutex;
    std::condition_variable done;
    int remaining = 0;
    std::exception_ptr first_error;
  };
  auto state = std::make_shared<CallState>();
  state->remaining = count;

  for (int i = 0; i < count; ++i) {
    // `fn` is captured by reference: ParallelFor does not return before
    // every wrapper has finished, so the reference cannot dangle.
    pool->Submit([state, &fn, i] {
      std::exception_ptr error;
      try {
        fn(i);
      } catch (...) {
        error = std::current_exception();
      }
      // The exception moves into the shared state, so once it signals
      // this worker holds no reference to what the caller rethrows.
      std::lock_guard<std::mutex> lock(state->mutex);
      if (error != nullptr && state->first_error == nullptr) {
        state->first_error = std::move(error);
      }
      if (--state->remaining == 0) {
        state->done.notify_all();
      }
    });
  }

  while (true) {
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      if (state->remaining == 0) {
        break;
      }
    }
    if (pool->TryRunOneTask()) {
      continue;  // Helped drain the queue; re-check completion.
    }
    // Queue momentarily empty: all of this call's tasks are running on
    // other threads (any nested ParallelFor they start helps itself), so
    // blocking here cannot deadlock.
    std::unique_lock<std::mutex> lock(state->mutex);
    while (state->remaining != 0) {
      state->done.wait(lock);
    }
    break;
  }

  // Take the exception out of the shared state: a worker may destroy its
  // wrapper, and with it the last reference to `state`, after this call
  // returns, and must not free the exception the caller is handling.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    error = std::move(state->first_error);
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

}  // namespace skymr

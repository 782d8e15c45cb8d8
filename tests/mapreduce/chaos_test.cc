#include "src/mapreduce/chaos.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/mapreduce/job.h"

namespace skymr::mr {
namespace {

// ---------------------------------------------------------------------
// Profiles and schedule validation.
// ---------------------------------------------------------------------

TEST(ChaosScheduleTest, NoneProfileIsDisabled) {
  auto schedule = ChaosProfile("none");
  ASSERT_TRUE(schedule.ok());
  EXPECT_FALSE(schedule->enabled());
}

TEST(ChaosScheduleTest, EveryNamedProfileParsesAndValidates) {
  const std::vector<std::string> names = ChaosProfileNames();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    auto schedule = ChaosProfile(name);
    ASSERT_TRUE(schedule.ok()) << name;
    EXPECT_TRUE(ValidateChaosSchedule(*schedule, 4).ok()) << name;
  }
}

TEST(ChaosScheduleTest, UnknownProfileRejected) {
  auto schedule = ChaosProfile("definitely-not-a-profile");
  EXPECT_FALSE(schedule.ok());
  EXPECT_EQ(schedule.status().code(), StatusCode::kInvalidArgument);
}

TEST(ChaosScheduleTest, ValidationRejectsNonTerminatingSchedules) {
  ChaosSchedule schedule;
  schedule.crash_rate = 1.0;  // Every attempt crashes: can never finish.
  EXPECT_FALSE(ValidateChaosSchedule(schedule, 4).ok());

  schedule = ChaosSchedule{};
  schedule.crash_rate = -0.1;
  EXPECT_FALSE(ValidateChaosSchedule(schedule, 4).ok());

  schedule = ChaosSchedule{};
  schedule.corrupt_rate = 1.5;
  EXPECT_FALSE(ValidateChaosSchedule(schedule, 4).ok());

  schedule = ChaosSchedule{};
  schedule.slow_ms = -1.0;
  EXPECT_FALSE(ValidateChaosSchedule(schedule, 4).ok());

  // Contradictory: every attempt within the budget is forced to crash.
  schedule = ChaosSchedule{};
  schedule.crash_until_attempt = 4;
  EXPECT_FALSE(ValidateChaosSchedule(schedule, 4).ok());
  EXPECT_TRUE(ValidateChaosSchedule(schedule, 5).ok());
}

TEST(ChaosScheduleTest, EngineOptionsValidationCoversChaosAndTunables) {
  EngineOptions options;
  options.max_task_attempts = 4;
  options.chaos.crash_rate = 0.5;
  EXPECT_TRUE(ValidateEngineOptions(options).ok());

  options.chaos.crash_rate = 1.0;
  EXPECT_FALSE(ValidateEngineOptions(options).ok());

  options = EngineOptions{};
  options.retry_backoff_base_ms = 10.0;
  options.retry_backoff_max_ms = 1.0;  // base > cap
  EXPECT_FALSE(ValidateEngineOptions(options).ok());

  options = EngineOptions{};
  options.retry_backoff_base_ms = std::nan("");
  EXPECT_FALSE(ValidateEngineOptions(options).ok());
}

// ---------------------------------------------------------------------
// A small deterministic job to drive injection end to end.
// ---------------------------------------------------------------------

class EmitModMapper : public Mapper<int, int, int> {
 public:
  void Map(const int& record, MapContext<int, int>& ctx) override {
    ctx.Emit(record % 4, record);
  }
};

class SumReducer : public Reducer<int, int, std::pair<int, int>> {
 public:
  void Reduce(const int& key, ValueIterator<int>& values,
              ReduceContext<std::pair<int, int>>& ctx) override {
    int total = 0;
    while (values.HasNext()) {
      total += values.Next();
    }
    ctx.Emit({key, total});
  }
};

using ModSumJob = Job<int, int, int, std::pair<int, int>>;

ModSumJob MakeModSumJob() {
  return ModSumJob("mod-sum", [] { return std::make_unique<EmitModMapper>(); },
                   [] { return std::make_unique<SumReducer>(); });
}

std::vector<int> MakeInput(int n) {
  std::vector<int> input;
  input.reserve(n);
  for (int i = 0; i < n; ++i) {
    input.push_back(i);
  }
  return input;
}

/// Expected output of MakeModSumJob over MakeInput(n), computed directly.
std::map<int, int> ExpectedModSums(int n) {
  std::map<int, int> sums;
  for (int i = 0; i < n; ++i) {
    sums[i % 4] += i;
  }
  return sums;
}

std::map<int, int> ToMap(const std::vector<std::pair<int, int>>& outputs) {
  std::map<int, int> result;
  for (const auto& [key, value] : outputs) {
    EXPECT_EQ(result.count(key), 0u) << "duplicate key " << key;
    result[key] = value;
  }
  return result;
}

EngineOptions ChaosOptions() {
  EngineOptions options;
  options.num_map_tasks = 4;
  options.num_reducers = 3;
  options.max_task_attempts = 8;
  options.retry_backoff_base_ms = 0.0;  // Keep tests fast.
  return options;
}

TEST(ChaosEngineTest, CrashInjectionRetriesToExactOutput) {
  EngineOptions options = ChaosOptions();
  options.chaos.seed = 7;
  options.chaos.crash_rate = 0.2;
  ModSumJob job = MakeModSumJob();
  DistributedCache cache;
  auto result = job.Run(MakeInput(64), options, cache);
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(ToMap(result.outputs), ExpectedModSums(64));
}

TEST(ChaosEngineTest, SameSeedSameFaultsSameCounters) {
  EngineOptions options = ChaosOptions();
  options.chaos.seed = 99;
  options.chaos.crash_rate = 0.15;
  options.chaos.corrupt_rate = 0.15;
  DistributedCache cache;

  ModSumJob job1 = MakeModSumJob();
  auto a = job1.Run(MakeInput(64), options, cache);
  ModSumJob job2 = MakeModSumJob();
  auto b = job2.Run(MakeInput(64), options, cache);
  ASSERT_TRUE(a.ok()) << a.status;
  ASSERT_TRUE(b.ok()) << b.status;

  EXPECT_EQ(a.outputs, b.outputs);  // Same order, not just same set.
  for (const char* counter :
       {"mr.task_retries", "mr.chaos_crashes_injected",
        "mr.chaos_corruptions_injected", "mr.backoff_waits"}) {
    EXPECT_EQ(a.metrics.counters.Get(counter),
              b.metrics.counters.Get(counter))
        << counter;
  }
  // The schedule must actually have fired for this test to mean anything.
  EXPECT_GT(a.metrics.counters.Get("mr.chaos_crashes_injected") +
                a.metrics.counters.Get("mr.chaos_corruptions_injected"),
            0);
}

TEST(ChaosEngineTest, DifferentSeedsInjectDifferentFaults) {
  EngineOptions options = ChaosOptions();
  options.chaos.crash_rate = 0.3;
  DistributedCache cache;

  std::vector<int64_t> crash_counts;
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    options.chaos.seed = seed;
    ModSumJob job = MakeModSumJob();
    auto result = job.Run(MakeInput(64), options, cache);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": " << result.status;
    EXPECT_EQ(ToMap(result.outputs), ExpectedModSums(64)) << "seed " << seed;
    crash_counts.push_back(
        result.metrics.counters.Get("mr.chaos_crashes_injected"));
  }
  // Five seeds all injecting the identical number of crashes would mean
  // the seed is not actually feeding the hash.
  bool all_equal = true;
  for (const int64_t count : crash_counts) {
    all_equal = all_equal && count == crash_counts.front();
  }
  EXPECT_FALSE(all_equal);
}

TEST(ChaosEngineTest, CrashUntilAttemptForcesExactRetryCount) {
  EngineOptions options = ChaosOptions();
  options.num_map_tasks = 2;
  options.num_reducers = 1;
  options.chaos.crash_until_attempt = 2;  // Attempts 1 and 2 always crash.
  ModSumJob job = MakeModSumJob();
  DistributedCache cache;
  auto result = job.Run(MakeInput(8), options, cache);
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(ToMap(result.outputs), ExpectedModSums(8));
  for (const TaskMetrics& task : result.metrics.map_tasks) {
    EXPECT_EQ(task.attempts, 3);
  }
  // 2 forced crashes per task, 2 map + 1 reduce tasks.
  EXPECT_EQ(result.metrics.counters.Get("mr.chaos_crashes_injected"), 6);
  EXPECT_EQ(result.metrics.counters.Get("mr.task_retries"), 6);
}

TEST(ChaosEngineTest, ShuffleCorruptionRetriesReadCleanBytes) {
  EngineOptions options = ChaosOptions();
  // High enough to fire on several first attempts, low enough that eight
  // consecutive corrupted attempts of one task (which would fail the job)
  // is out of reach for this seed.
  options.chaos.seed = 5;
  options.chaos.corrupt_rate = 0.4;
  ModSumJob job = MakeModSumJob();
  DistributedCache cache;
  auto result = job.Run(MakeInput(64), options, cache);
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(ToMap(result.outputs), ExpectedModSums(64));
  EXPECT_GT(result.metrics.counters.Get("mr.chaos_corruptions_injected"), 0);
  EXPECT_GT(result.metrics.counters.Get("mr.task_retries"), 0);
}

TEST(ChaosEngineTest, SlowInjectionDelaysButDoesNotFail) {
  EngineOptions options = ChaosOptions();
  options.chaos.seed = 5;
  options.chaos.slow_rate = 0.5;
  options.chaos.slow_ms = 1.0;
  ModSumJob job = MakeModSumJob();
  DistributedCache cache;
  auto result = job.Run(MakeInput(32), options, cache);
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(ToMap(result.outputs), ExpectedModSums(32));
  EXPECT_GT(result.metrics.counters.Get("mr.chaos_slow_injected"), 0);
  EXPECT_EQ(result.metrics.counters.Get("mr.task_retries"), 0);

  // The deterministic straggler: task 1 of each wave is slow on its first
  // attempt, and nothing else is.
  options.chaos = ChaosSchedule{};
  options.chaos.slow_task = 1;
  options.chaos.slow_until_attempt = 1;
  options.chaos.slow_ms = 1.0;
  result = job.Run(MakeInput(32), options, cache);
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(ToMap(result.outputs), ExpectedModSums(32));
  EXPECT_EQ(result.metrics.counters.Get("mr.chaos_slow_injected"), 2);
  EXPECT_EQ(result.metrics.counters.Get("mr.task_retries"), 0);
}

// ---------------------------------------------------------------------
// Cache fault injection.
// ---------------------------------------------------------------------

TEST(ChaosEngineTest, CacheFaultsSurfaceAsMissesInsideTasks) {
  // The mapper tolerates a missing cache entry by falling back to 0, and
  // counts how often the (present) entry read as missing.
  class CacheReadingMapper : public Mapper<int, int, int> {
   public:
    void Map(const int& record, MapContext<int, int>& ctx) override {
      const auto offset = ctx.cache().Get<int>("offset");
      if (offset == nullptr) {
        ctx.counters().Add("test.cache_faults_seen", 1);
        ctx.Emit(0, record);
      } else {
        ctx.Emit(0, record + *offset);
      }
    }
  };
  class CountReducer : public Reducer<int, int, int> {
   public:
    void Reduce(const int& key, ValueIterator<int>& values,
                ReduceContext<int>& ctx) override {
      (void)key;
      int count = 0;
      while (values.HasNext()) {
        values.Next();
        ++count;
      }
      ctx.Emit(count);
    }
  };
  Job<int, int, int, int> job(
      "cache-chaos", [] { return std::make_unique<CacheReadingMapper>(); },
      [] { return std::make_unique<CountReducer>(); });
  DistributedCache cache;
  ASSERT_TRUE(cache.PutValue<int>("offset", 100).ok());
  EngineOptions options = ChaosOptions();
  options.num_reducers = 1;
  options.chaos.seed = 3;
  options.chaos.cache_fail_rate = 0.5;
  auto result = job.Run(MakeInput(64), options, cache);
  ASSERT_TRUE(result.ok()) << result.status;
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0], 64);  // Every record still processed.
  EXPECT_GT(result.metrics.counters.Get("test.cache_faults_seen"), 0);
  EXPECT_GT(result.metrics.counters.Get("mr.chaos_cache_faults_injected"),
            0);
}

TEST(ChaosEngineTest, CacheFaultsNeverFireOutsideTaskScope) {
  // No ChaosTaskScope is active on the test thread, so injection is off
  // regardless of any schedule used elsewhere.
  EXPECT_FALSE(ChaosInjectCacheFault());
}

TEST(ChaosEngineTest, NullInnerScopeSuppressesOuterThenOuterResumes) {
  ChaosSchedule schedule;
  schedule.seed = 11;
  schedule.cache_fail_rate = 0.5;
  // The outer scope's coins for its first eight lookups, drawn directly.
  ChaosEngine reference(schedule, "job");
  std::vector<bool> expected;
  for (uint64_t sequence = 0; sequence < 8; ++sequence) {
    expected.push_back(reference.ShouldFailCacheRead(0, 1, 1, sequence));
  }
  ASSERT_NE(std::count(expected.begin(), expected.end(), true), 0);
  ASSERT_NE(std::count(expected.begin(), expected.end(), false), 0);

  ChaosEngine engine(schedule, "job");
  std::vector<bool> seen;
  {
    ChaosTaskScope outer(&engine, 0, 1, 1);
    for (int i = 0; i < 4; ++i) {
      seen.push_back(ChaosInjectCacheFault());
    }
    {
      // A null engine turns injection off for the inner scope's lookups
      // and leaves the outer scope's sequence untouched.
      ChaosTaskScope inner(nullptr, 0, 2, 1);
      for (int i = 0; i < 16; ++i) {
        EXPECT_FALSE(ChaosInjectCacheFault());
      }
    }
    for (int i = 0; i < 4; ++i) {
      seen.push_back(ChaosInjectCacheFault());
    }
  }
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(engine.cache_faults_injected(),
            std::count(expected.begin(), expected.end(), true));
  EXPECT_FALSE(ChaosInjectCacheFault());  // Every scope has closed.
}

TEST(ChaosEngineTest, ChaosFreeRunKeepsCounterSetLean) {
  ModSumJob job = MakeModSumJob();
  EngineOptions options;
  options.num_map_tasks = 2;
  DistributedCache cache;
  auto result = job.Run(MakeInput(16), options, cache);
  ASSERT_TRUE(result.ok());
  // Chaos-free runs without a retry must not grow fault-tolerance
  // counter keys (committed bench baselines diff the exact key set).
  const auto& values = result.metrics.counters.values();
  for (const auto& [name, value] : values) {
    EXPECT_NE(name.rfind("mr.chaos_", 0), 0u) << name;
  }
  EXPECT_EQ(values.count("mr.backoff_waits"), 0u);
  EXPECT_EQ(values.count("mr.backoff_total_ms"), 0u);
  EXPECT_EQ(result.metrics.counters.Get("mr.task_retries"), 0);
}

// ---------------------------------------------------------------------
// Cancellation.
// ---------------------------------------------------------------------

TEST(TaskSchedulerTest, CancelStopsTheWaveWithoutRetrying) {
  EngineOptions options;
  options.max_task_attempts = 4;
  TaskScheduler scheduler(options, "cancelled");
  ThreadPool pool(2);
  std::atomic<int> bodies{0};
  WaveStats stats;
  // The task cancels the job from inside its attempt; the attempt sees
  // the flag and stops, and no retry follows. A later wave of the
  // cancelled job runs no attempt body at all.
  const Status status = scheduler.RunWave(
      &pool, TaskKind::kMap, 1,
      [&](const TaskAttempt& attempt) -> Status {
        bodies.fetch_add(1);
        scheduler.Cancel();
        if (attempt.Cancelled()) {
          throw TaskCancelled();
        }
        return Status::OK();
      },
      &stats);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cancelled"), std::string::npos)
      << status;
  EXPECT_EQ(bodies.load(), 1);
  EXPECT_EQ(stats.retries, 0);

  const Status later = scheduler.RunWave(
      &pool, TaskKind::kReduce, 3,
      [&](const TaskAttempt&) -> Status {
        bodies.fetch_add(1);
        return Status::OK();
      },
      &stats);
  EXPECT_FALSE(later.ok());
  EXPECT_EQ(bodies.load(), 1);
}

// ---------------------------------------------------------------------
// ValueIterator re-entrancy across reduce retries.
// ---------------------------------------------------------------------

TEST(ChaosEngineTest, ReducerRetryMidIterationSeesFreshValueIterator) {
  // First attempt consumes part of the iterator then dies; the retry must
  // observe every value again (the shuffle data is immutable and each
  // attempt gets a fresh iterator).
  class MidIterationFlakyReducer : public Reducer<int, int, int> {
   public:
    explicit MidIterationFlakyReducer(std::atomic<int>* attempts)
        : attempts_(attempts) {}
    void Reduce(const int& key, ValueIterator<int>& values,
                ReduceContext<int>& ctx) override {
      (void)key;
      int total = 0;
      int seen = 0;
      while (values.HasNext()) {
        total += values.Next();
        ++seen;
        if (seen == 2 && attempts_->fetch_add(1) < 1) {
          throw TaskFailure("died mid-iteration");
        }
      }
      ctx.Emit(total);
    }

   private:
    std::atomic<int>* attempts_;
  };
  class IdentityMapper : public Mapper<int, int, int> {
   public:
    void Map(const int& record, MapContext<int, int>& ctx) override {
      ctx.Emit(0, record);
    }
  };
  auto attempts = std::make_shared<std::atomic<int>>(0);
  Job<int, int, int, int> job(
      "mid-iteration", [] { return std::make_unique<IdentityMapper>(); },
      [attempts] {
        return std::make_unique<MidIterationFlakyReducer>(attempts.get());
      });
  EngineOptions options;
  options.num_map_tasks = 2;
  options.max_task_attempts = 3;
  DistributedCache cache;
  auto result = job.Run(std::vector<int>{1, 2, 3, 4, 5}, options, cache);
  ASSERT_TRUE(result.ok()) << result.status;
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0], 15);  // All five values seen by the retry.
  EXPECT_EQ(result.metrics.reduce_tasks[0].attempts, 2);
}

}  // namespace
}  // namespace skymr::mr

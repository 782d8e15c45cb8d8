// Engine stress: randomized jobs compared against a sequential oracle,
// across random task counts, thread counts, partitioners, and failure
// injection. The engine's contract — grouping, ordering, determinism —
// must hold under every configuration.

#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/mapreduce/job.h"

namespace skymr::mr {
namespace {

/// Emits (value % buckets, value) for each input value.
class ModMapper : public Mapper<int, int, int> {
 public:
  explicit ModMapper(int buckets) : buckets_(buckets) {}
  void Map(const int& value, MapContext<int, int>& ctx) override {
    ctx.Emit(value % buckets_, value);
  }

 private:
  int buckets_;
};

/// Emits (key, sum of values, count of values).
struct GroupStat {
  int key;
  long sum;
  size_t count;
  bool operator==(const GroupStat& other) const {
    return key == other.key && sum == other.sum && count == other.count;
  }
};

}  // namespace
}  // namespace skymr::mr

namespace skymr {
template <>
struct Serde<mr::GroupStat> {
  static void Write(const mr::GroupStat& v, ByteSink* sink) {
    sink->AppendRaw(v.key);
    sink->AppendRaw(v.sum);
    sink->AppendRaw<uint64_t>(v.count);
  }
  static mr::GroupStat Read(ByteSource* source) {
    mr::GroupStat v;
    v.key = source->ReadRaw<int>();
    v.sum = source->ReadRaw<long>();
    v.count = static_cast<size_t>(source->ReadRaw<uint64_t>());
    return v;
  }
};
}  // namespace skymr

namespace skymr::mr {
namespace {

class StatReducer : public Reducer<int, int, GroupStat> {
 public:
  void Reduce(const int& key, ValueIterator<int>& values,
              ReduceContext<GroupStat>& ctx) override {
    GroupStat stat{key, 0, values.remaining()};
    while (values.HasNext()) {
      stat.sum += values.Next();
    }
    ctx.Emit(stat);
  }
};

TEST(EngineStressTest, RandomConfigurationsMatchSequentialOracle) {
  Rng rng(777);
  for (int trial = 0; trial < 40; ++trial) {
    const int buckets = 1 + static_cast<int>(rng.NextBounded(9));
    const size_t n = rng.NextBounded(500);
    std::vector<int> input(n);
    for (auto& v : input) {
      v = static_cast<int>(rng.NextBounded(1000));
    }

    // Sequential oracle.
    std::map<int, GroupStat> expected;
    for (const int v : input) {
      auto [it, inserted] =
          expected.try_emplace(v % buckets, GroupStat{v % buckets, 0, 0});
      it->second.sum += v;
      ++it->second.count;
    }

    Job<int, int, int, GroupStat> job(
        "stress",
        [buckets] { return std::make_unique<ModMapper>(buckets); },
        [] { return std::make_unique<StatReducer>(); });
    if (rng.NextBounded(2) == 0) {
      job.UseModuloPartitioner();
    }
    EngineOptions options;
    options.num_map_tasks = 1 + static_cast<int>(rng.NextBounded(12));
    options.num_reducers = 1 + static_cast<int>(rng.NextBounded(8));
    options.num_threads = 1 + static_cast<int>(rng.NextBounded(8));
    DistributedCache cache;
    auto result = job.Run(input, options, cache);
    ASSERT_TRUE(result.ok()) << "trial " << trial << ": " << result.status;

    std::map<int, GroupStat> actual;
    for (const GroupStat& stat : result.outputs) {
      ASSERT_EQ(actual.count(stat.key), 0u)
          << "key " << stat.key << " reduced twice (trial " << trial << ")";
      actual[stat.key] = stat;
    }
    ASSERT_EQ(actual.size(), expected.size()) << "trial " << trial;
    for (const auto& [key, stat] : expected) {
      ASSERT_TRUE(actual[key] == stat)
          << "trial " << trial << " key " << key;
    }
  }
}

TEST(EngineStressTest, RandomTransientFailuresAlwaysRecover) {
  Rng rng(888);
  for (int trial = 0; trial < 15; ++trial) {
    // Every map task fails on its first attempt, succeeds afterwards.
    class FirstAttemptFails : public Mapper<int, int, int> {
     public:
      FirstAttemptFails(std::atomic<int>* failures, int buckets)
          : failures_(failures), buckets_(buckets) {}
      void Setup(MapContext<int, int>& ctx) override {
        // One failure per (task, trial): key the attempt on the task id.
        const int mask = 1 << ctx.task_id();
        const int before = failures_->fetch_or(mask);
        if ((before & mask) == 0) {
          throw TaskFailure("first attempt dies");
        }
      }
      void Map(const int& value, MapContext<int, int>& ctx) override {
        ctx.Emit(value % buckets_, value);
      }

     private:
      std::atomic<int>* failures_;
      int buckets_;
    };

    auto failures = std::make_shared<std::atomic<int>>(0);
    const int buckets = 1 + static_cast<int>(rng.NextBounded(4));
    Job<int, int, int, GroupStat> job(
        "flaky-stress",
        [failures, buckets] {
          return std::make_unique<FirstAttemptFails>(failures.get(),
                                                     buckets);
        },
        [] { return std::make_unique<StatReducer>(); });
    EngineOptions options;
    options.num_map_tasks = 1 + static_cast<int>(rng.NextBounded(6));
    options.num_reducers = 1 + static_cast<int>(rng.NextBounded(4));
    options.max_task_attempts = 3;
    std::vector<int> input(100);
    long total = 0;
    for (auto& v : input) {
      v = static_cast<int>(rng.NextBounded(50));
      total += v;
    }
    DistributedCache cache;
    auto result = job.Run(input, options, cache);
    ASSERT_TRUE(result.ok()) << "trial " << trial << ": " << result.status;
    long sum = 0;
    size_t count = 0;
    for (const GroupStat& stat : result.outputs) {
      sum += stat.sum;
      count += stat.count;
    }
    EXPECT_EQ(sum, total) << "trial " << trial;
    EXPECT_EQ(count, input.size()) << "trial " << trial;
    for (const TaskMetrics& t : result.metrics.map_tasks) {
      EXPECT_EQ(t.attempts, 2);
    }
  }
}

}  // namespace
}  // namespace skymr::mr

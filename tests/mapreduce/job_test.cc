#include "src/mapreduce/job.h"

#include <atomic>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace skymr::mr {
namespace {

// ---------------------------------------------------------------------
// Word count: the canonical MapReduce program, exercising multi-value
// grouping, multiple reducers, and deterministic output.
// ---------------------------------------------------------------------

class WordCountMapper : public Mapper<std::string, std::string, int> {
 public:
  void Map(const std::string& line,
           MapContext<std::string, int>& ctx) override {
    std::istringstream stream(line);
    std::string word;
    while (stream >> word) {
      ctx.Emit(word, 1);
    }
  }
};

class WordCountReducer
    : public Reducer<std::string, int, std::pair<std::string, int>> {
 public:
  void Reduce(const std::string& word, ValueIterator<int>& counts,
              ReduceContext<std::pair<std::string, int>>& ctx) override {
    int total = 0;
    while (counts.HasNext()) {
      total += counts.Next();
    }
    ctx.Emit({word, total});
  }
};

using WordCountJob =
    Job<std::string, std::string, int, std::pair<std::string, int>>;

WordCountJob MakeWordCountJob() {
  return WordCountJob(
      "wordcount", [] { return std::make_unique<WordCountMapper>(); },
      [] { return std::make_unique<WordCountReducer>(); });
}

std::map<std::string, int> ToMap(
    const std::vector<std::pair<std::string, int>>& outputs) {
  std::map<std::string, int> result;
  for (const auto& [word, count] : outputs) {
    EXPECT_EQ(result.count(word), 0u) << "duplicate key " << word;
    result[word] = count;
  }
  return result;
}

const std::vector<std::string> kCorpus = {
    "the quick brown fox", "jumps over the lazy dog",
    "the dog barks",       "quick quick slow",
};

TEST(JobTest, WordCountSingleReducer) {
  WordCountJob job = MakeWordCountJob();
  EngineOptions options;
  options.num_map_tasks = 2;
  options.num_reducers = 1;
  DistributedCache cache;
  auto result = job.Run(kCorpus, options, cache);
  ASSERT_TRUE(result.ok()) << result.status;
  const auto counts = ToMap(result.outputs);
  EXPECT_EQ(counts.at("the"), 3);
  EXPECT_EQ(counts.at("quick"), 3);
  EXPECT_EQ(counts.at("dog"), 2);
  EXPECT_EQ(counts.at("fox"), 1);
  EXPECT_EQ(counts.size(), 10u);
}

TEST(JobTest, WordCountManyReducersSameResult) {
  for (const int reducers : {2, 3, 7}) {
    WordCountJob job = MakeWordCountJob();
    EngineOptions options;
    options.num_map_tasks = 3;
    options.num_reducers = reducers;
    DistributedCache cache;
    auto result = job.Run(kCorpus, options, cache);
    ASSERT_TRUE(result.ok());
    const auto counts = ToMap(result.outputs);
    EXPECT_EQ(counts.at("the"), 3) << reducers << " reducers";
    EXPECT_EQ(counts.size(), 10u);
    EXPECT_EQ(result.metrics.reduce_tasks.size(),
              static_cast<size_t>(reducers));
  }
}

TEST(JobTest, MoreMapTasksThanRecords) {
  WordCountJob job = MakeWordCountJob();
  EngineOptions options;
  options.num_map_tasks = 16;  // More than 4 input lines.
  options.num_reducers = 2;
  DistributedCache cache;
  auto result = job.Run(kCorpus, options, cache);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ToMap(result.outputs).at("quick"), 3);
  EXPECT_EQ(result.metrics.map_tasks.size(), 16u);
}

TEST(JobTest, EmptyInputRunsCleanly) {
  WordCountJob job = MakeWordCountJob();
  EngineOptions options;
  options.num_map_tasks = 4;
  options.num_reducers = 2;
  DistributedCache cache;
  auto result = job.Run(std::vector<std::string>{}, options, cache);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.outputs.empty());
}

TEST(JobTest, DeterministicOutputOrderAcrossRuns) {
  EngineOptions options;
  options.num_map_tasks = 3;
  options.num_reducers = 3;
  options.num_threads = 4;
  DistributedCache cache;
  WordCountJob job1 = MakeWordCountJob();
  WordCountJob job2 = MakeWordCountJob();
  auto a = job1.Run(kCorpus, options, cache);
  auto b = job2.Run(kCorpus, options, cache);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.outputs, b.outputs);  // Same order, not just same set.
}

TEST(JobTest, InvalidOptionsRejected) {
  WordCountJob job = MakeWordCountJob();
  DistributedCache cache;
  EngineOptions options;
  options.num_map_tasks = 0;
  EXPECT_FALSE(job.Run(kCorpus, options, cache).ok());
  options.num_map_tasks = 1;
  options.num_reducers = 0;
  EXPECT_FALSE(job.Run(kCorpus, options, cache).ok());
}

// ---------------------------------------------------------------------
// Lifecycle, grouping semantics, value ordering.
// ---------------------------------------------------------------------

class LifecycleMapper : public Mapper<int, int, int> {
 public:
  void Setup(MapContext<int, int>& ctx) override {
    setup_seen_ = true;
    ctx.counters().Add("setup", 1);
  }
  void Map(const int& record, MapContext<int, int>& ctx) override {
    ASSERT_TRUE(setup_seen_);
    // Key 0 collects everything; value encodes (task, sequence).
    ctx.Emit(0, ctx.task_id() * 1000 + record);
  }
  void Cleanup(MapContext<int, int>& ctx) override {
    ctx.counters().Add("cleanup", 1);
  }

 private:
  bool setup_seen_ = false;
};

class CollectReducer : public Reducer<int, int, std::vector<int>> {
 public:
  void Reduce(const int& key, ValueIterator<int>& values,
              ReduceContext<std::vector<int>>& ctx) override {
    (void)key;
    std::vector<int> all;
    while (values.HasNext()) {
      all.push_back(values.Next());
    }
    ctx.Emit(std::move(all));
  }
};

TEST(JobTest, SetupCleanupCalledOncePerTask) {
  Job<int, int, int, std::vector<int>> job(
      "lifecycle", [] { return std::make_unique<LifecycleMapper>(); },
      [] { return std::make_unique<CollectReducer>(); });
  EngineOptions options;
  options.num_map_tasks = 5;
  options.num_reducers = 1;
  DistributedCache cache;
  const std::vector<int> input = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto result = job.Run(input, options, cache);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.metrics.counters.Get("setup"), 5);
  EXPECT_EQ(result.metrics.counters.Get("cleanup"), 5);
}

class SketchingMapper : public Mapper<int, int, int> {
 public:
  void Map(const int& record, MapContext<int, int>& ctx) override {
    ctx.sketches()["values"].Add(static_cast<double>(record));
    ctx.Emit(0, record);
  }
};

TEST(JobTest, TaskSketchesMergeIntoJobSketches) {
  std::vector<int> input;
  obs::QuantileSketch expected;
  for (int i = 0; i < 500; ++i) {
    input.push_back(i * 37 % 101);  // Includes zeros.
    expected.Add(static_cast<double>(input.back()));
  }
  for (const int tasks : {1, 4}) {
    Job<int, int, int, std::vector<int>> job(
        "sketching", [] { return std::make_unique<SketchingMapper>(); },
        [] { return std::make_unique<CollectReducer>(); });
    EngineOptions options;
    options.num_map_tasks = tasks;
    options.num_reducers = 1;
    DistributedCache cache;
    auto result = job.Run(input, options, cache);
    ASSERT_TRUE(result.ok()) << result.status;
    uint64_t task_count = 0;
    for (const TaskMetrics& t : result.metrics.map_tasks) {
      task_count += t.sketches.at("values").count();
    }
    EXPECT_EQ(task_count, input.size()) << tasks << " map tasks";
    ASSERT_EQ(result.metrics.sketches.size(), 1u) << tasks << " map tasks";
    EXPECT_EQ(result.metrics.sketches.at("values"), expected)
        << tasks << " map tasks";
  }
}

TEST(JobTest, ValuesOrderedByMapperThenEmitOrder) {
  Job<int, int, int, std::vector<int>> job(
      "ordering", [] { return std::make_unique<LifecycleMapper>(); },
      [] { return std::make_unique<CollectReducer>(); });
  EngineOptions options;
  options.num_map_tasks = 2;  // Split: {1,2,3} to task 0, {4,5,6} to task 1.
  options.num_reducers = 1;
  options.num_threads = 4;
  DistributedCache cache;
  auto result = job.Run(std::vector<int>{1, 2, 3, 4, 5, 6}, options, cache);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0],
            (std::vector<int>{1, 2, 3, 1004, 1005, 1006}));
}

TEST(JobTest, KeysArriveSortedWithinReducer) {
  class EmitKeyMapper : public Mapper<int, int, int> {
   public:
    void Map(const int& record, MapContext<int, int>& ctx) override {
      ctx.Emit(record, record);
    }
  };
  class KeyOrderReducer : public Reducer<int, int, int> {
   public:
    void Reduce(const int& key, ValueIterator<int>& values,
                ReduceContext<int>& ctx) override {
      (void)values;  // Never pulled: the values stay serialized.
      ctx.Emit(key);
    }
  };
  Job<int, int, int, int> job(
      "key-order", [] { return std::make_unique<EmitKeyMapper>(); },
      [] { return std::make_unique<KeyOrderReducer>(); });
  EngineOptions options;
  options.num_map_tasks = 3;
  options.num_reducers = 1;
  DistributedCache cache;
  auto result =
      job.Run(std::vector<int>{9, 3, 7, 1, 8, 2}, options, cache);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.outputs, (std::vector<int>{1, 2, 3, 7, 8, 9}));
}

// ---------------------------------------------------------------------
// Distributed cache access from tasks.
// ---------------------------------------------------------------------

TEST(JobTest, TasksReadDistributedCache) {
  class AddOffsetMapper : public Mapper<int, int, int> {
   public:
    void Setup(MapContext<int, int>& ctx) override {
      offset_ = *ctx.cache().Get<int>("offset");
    }
    void Map(const int& record, MapContext<int, int>& ctx) override {
      ctx.Emit(0, record + offset_);
    }

   private:
    int offset_ = 0;
  };
  class SumReducer : public Reducer<int, int, int> {
   public:
    void Reduce(const int& key, ValueIterator<int>& values,
                ReduceContext<int>& ctx) override {
      (void)key;
      int total = 0;
      while (values.HasNext()) {
        total += values.Next();
      }
      ctx.Emit(total);
    }
  };
  Job<int, int, int, int> job(
      "cache", [] { return std::make_unique<AddOffsetMapper>(); },
      [] { return std::make_unique<SumReducer>(); });
  DistributedCache cache;
  ASSERT_TRUE(cache.PutValue<int>("offset", 100).ok());
  EngineOptions options;
  options.num_map_tasks = 2;
  auto result = job.Run(std::vector<int>{1, 2, 3}, options, cache);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0], 306);
}

// ---------------------------------------------------------------------
// Failure injection and retries.
// ---------------------------------------------------------------------

class FlakyMapper : public Mapper<int, int, int> {
 public:
  explicit FlakyMapper(std::atomic<int>* attempts) : attempts_(attempts) {}
  void Map(const int& record, MapContext<int, int>& ctx) override {
    ctx.Emit(0, record);
  }
  void Cleanup(MapContext<int, int>& ctx) override {
    (void)ctx;
    if (attempts_->fetch_add(1) < 2) {
      throw TaskFailure("injected failure");
    }
  }

 private:
  std::atomic<int>* attempts_;
};

class SumAllReducer : public Reducer<int, int, int> {
 public:
  void Reduce(const int& key, ValueIterator<int>& values,
              ReduceContext<int>& ctx) override {
    (void)key;
    int total = 0;
    while (values.HasNext()) {
      total += values.Next();
    }
    ctx.Emit(total);
  }
};

TEST(JobTest, TaskRetriesUntilSuccess) {
  auto attempts = std::make_shared<std::atomic<int>>(0);
  Job<int, int, int, int> job(
      "flaky",
      [attempts] { return std::make_unique<FlakyMapper>(attempts.get()); },
      [] { return std::make_unique<SumAllReducer>(); });
  EngineOptions options;
  options.num_map_tasks = 1;
  options.max_task_attempts = 4;
  DistributedCache cache;
  auto result = job.Run(std::vector<int>{1, 2, 3}, options, cache);
  ASSERT_TRUE(result.ok()) << result.status;
  EXPECT_EQ(result.outputs[0], 6);  // No duplicated emits from retries.
  EXPECT_EQ(result.metrics.map_tasks[0].attempts, 3);
}

TEST(JobTest, TaskFailsAfterMaxAttempts) {
  auto attempts = std::make_shared<std::atomic<int>>(0);
  Job<int, int, int, int> job(
      "flaky",
      [attempts] { return std::make_unique<FlakyMapper>(attempts.get()); },
      [] { return std::make_unique<SumAllReducer>(); });
  EngineOptions options;
  options.num_map_tasks = 1;
  options.max_task_attempts = 2;  // FlakyMapper needs 3.
  DistributedCache cache;
  auto result = job.Run(std::vector<int>{1}, options, cache);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInternal);
}

TEST(JobTest, ReducerRetriesDoNotDuplicateOutput) {
  class FlakyReducer : public Reducer<int, int, int> {
   public:
    explicit FlakyReducer(std::atomic<int>* attempts)
        : attempts_(attempts) {}
    void Reduce(const int& key, ValueIterator<int>& values,
                ReduceContext<int>& ctx) override {
      (void)key;
      int total = 0;
      while (values.HasNext()) {
        total += values.Next();
      }
      ctx.Emit(total);
      if (attempts_->fetch_add(1) < 1) {
        throw TaskFailure("reducer hiccup");
      }
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
      "flaky-reduce", [] { return std::make_unique<IdentityMapper>(); },
      [attempts] { return std::make_unique<FlakyReducer>(attempts.get()); });
  EngineOptions options;
  options.max_task_attempts = 3;
  DistributedCache cache;
  auto result = job.Run(std::vector<int>{2, 3}, options, cache);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0], 5);
}

// ---------------------------------------------------------------------
// Partitioner routing, metrics, and serialization of the shuffle.
// ---------------------------------------------------------------------

TEST(JobTest, ModuloPartitionerRoutesKeys) {
  class EmitKeyMapper : public Mapper<int, int, int> {
   public:
    void Map(const int& record, MapContext<int, int>& ctx) override {
      ctx.Emit(record, record);
    }
  };
  class TagReducer : public Reducer<int, int, std::pair<int, int>> {
   public:
    void Reduce(const int& key, ValueIterator<int>& values,
                ReduceContext<std::pair<int, int>>& ctx) override {
      (void)values;
      ctx.Emit({ctx.task_id(), key});
    }
  };
  Job<int, int, int, std::pair<int, int>> job(
      "partitioned", [] { return std::make_unique<EmitKeyMapper>(); },
      [] { return std::make_unique<TagReducer>(); });
  job.UseModuloPartitioner();
  EngineOptions options;
  options.num_map_tasks = 2;
  options.num_reducers = 3;
  DistributedCache cache;
  std::vector<int> keys(12);
  std::iota(keys.begin(), keys.end(), 0);
  auto result = job.Run(keys, options, cache);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.outputs.size(), keys.size());
  for (const auto& [reducer, key] : result.outputs) {
    EXPECT_EQ(reducer, key % 3) << "key " << key;
  }
}

TEST(JobTest, MetricsCountRecordsAndBytes) {
  WordCountJob job = MakeWordCountJob();
  EngineOptions options;
  options.num_map_tasks = 2;
  options.num_reducers = 2;
  DistributedCache cache;
  auto result = job.Run(kCorpus, options, cache);
  ASSERT_TRUE(result.ok());

  uint64_t map_in = 0;
  uint64_t map_out = 0;
  uint64_t map_bytes = 0;
  for (const TaskMetrics& t : result.metrics.map_tasks) {
    map_in += t.input_records;
    map_out += t.output_records;
    map_bytes += t.output_bytes;
  }
  EXPECT_EQ(map_in, kCorpus.size());
  EXPECT_EQ(map_out, 15u);  // 15 words in the corpus.
  EXPECT_EQ(map_bytes, result.metrics.shuffle_bytes);

  uint64_t reduce_in_bytes = 0;
  uint64_t reduce_in_records = 0;
  for (const TaskMetrics& t : result.metrics.reduce_tasks) {
    reduce_in_bytes += t.input_bytes;
    reduce_in_records += t.input_records;
  }
  EXPECT_EQ(reduce_in_bytes, result.metrics.shuffle_bytes);
  EXPECT_EQ(reduce_in_records, 15u);
  EXPECT_GT(result.metrics.wall_seconds, 0.0);

  // Map output bytes come from the arenas, reduce output bytes from the
  // counting sink: both are the encodings' lengths.
  uint64_t encoded_shuffle = 0;
  for (const std::string& line : kCorpus) {
    std::istringstream stream(line);
    std::string word;
    while (stream >> word) {
      encoded_shuffle +=
          SerializeToBytes(word).size() + SerializeToBytes(1).size();
    }
  }
  EXPECT_EQ(result.metrics.shuffle_bytes, encoded_shuffle);
  uint64_t encoded_output = 0;
  for (const auto& out : result.outputs) {
    encoded_output += SerializeToBytes(out).size();
  }
  uint64_t output_bytes = 0;
  for (const TaskMetrics& t : result.metrics.reduce_tasks) {
    output_bytes += t.output_bytes;
  }
  EXPECT_EQ(output_bytes, encoded_output);
}

TEST(JobTest, ValuesPhysicallySerializedThroughShuffle) {
  // A value type whose pointer identity would leak if the engine passed
  // objects by reference: the reducer must observe a distinct buffer.
  class VectorMapper
      : public Mapper<int, int, std::vector<double>> {
   public:
    void Map(const int& record,
             MapContext<int, std::vector<double>>& ctx) override {
      payload_.assign(3, static_cast<double>(record));
      ctx.Emit(0, payload_);
      payload_[0] = -1.0;  // Mutation after Emit must not affect delivery.
    }

   private:
    std::vector<double> payload_;
  };
  class CheckReducer
      : public Reducer<int, std::vector<double>, double> {
   public:
    void Reduce(const int& key, ValueIterator<std::vector<double>>& values,
                ReduceContext<double>& ctx) override {
      (void)key;
      while (values.HasNext()) {
        const std::vector<double> v = values.Next();
        EXPECT_EQ(v[0], v[1]);  // Mutation after Emit not visible.
        ctx.Emit(v[0]);
      }
    }
  };
  Job<int, int, std::vector<double>, double> job(
      "serialize", [] { return std::make_unique<VectorMapper>(); },
      [] { return std::make_unique<CheckReducer>(); });
  EngineOptions options;
  DistributedCache cache;
  auto result = job.Run(std::vector<int>{5, 6}, options, cache);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.outputs, (std::vector<double>{5.0, 6.0}));
}

}  // namespace
}  // namespace skymr::mr

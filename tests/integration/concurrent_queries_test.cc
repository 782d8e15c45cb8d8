// Many one-query sessions sharing one ThreadPool must behave exactly
// like serial calls: bit-identical skylines and deterministic counters,
// no cross-query state. This is the concurrency-labeled test the TSan CI
// job runs — the engine's nested parallelism (each query fans its map/
// reduce tasks onto the same pool via work-helping) is where a data race
// between queries would surface.

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"
#include "src/obs/bench_artifact.h"
#include "src/obs/metrics.h"
#include "src/skymr.h"
#include "tests/serve/session_test_util.h"

namespace skymr {
namespace {

using session_testing::SubmitOnce;

struct CaseSpec {
  size_t cardinality;
  size_t dim;
  uint64_t seed;
  Algorithm algorithm;
  bool anti_correlated;
};

Dataset MakeDataset(const CaseSpec& spec) {
  return spec.anti_correlated
             ? data::GenerateAntiCorrelated(spec.cardinality, spec.dim,
                                            spec.seed)
             : data::GenerateIndependent(spec.cardinality, spec.dim,
                                         spec.seed);
}

SessionOptions MakeOptions(ThreadPool* pool) {
  SessionOptions options;
  options.engine.num_map_tasks = 3;
  options.engine.num_reducers = 3;
  options.ppd.max_candidate = 5;
  options.pool = pool;
  return options;
}

QuerySpec MakeQuery(const CaseSpec& spec) {
  QuerySpec query;
  query.algorithm = spec.algorithm;
  return query;
}

/// The deterministic fingerprint of one query's result.
struct QuerySignal {
  std::vector<TupleId> skyline_ids;
  std::map<std::string, int64_t> counters;

  bool operator==(const QuerySignal& other) const {
    return skyline_ids == other.skyline_ids && counters == other.counters;
  }
};

QuerySignal SignalOf(const SkylineResult& result, size_t input_tuples) {
  QuerySignal signal;
  signal.skyline_ids = result.SkylineIds();
  std::sort(signal.skyline_ids.begin(), signal.skyline_ids.end());
  signal.counters = obs::DeterministicCounters(result, input_tuples);
  return signal;
}

TEST(ConcurrentQueriesTest, SharedPoolMatchesSerialBitForBit) {
  const std::vector<CaseSpec> specs = {
      {900, 3, 101, Algorithm::kMrGpmrs, false},
      {1200, 4, 102, Algorithm::kMrGpsrs, true},
      {700, 3, 103, Algorithm::kMrGpmrs, true},
      {1500, 4, 104, Algorithm::kMrGpmrs, false},
      {800, 5, 105, Algorithm::kMrGpsrs, false},
      {1000, 3, 106, Algorithm::kSkyMr, false},
  };

  // Serial reference: each query alone, each with its own private pool.
  std::vector<QuerySignal> serial(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const Dataset data = MakeDataset(specs[i]);
    auto result =
        SubmitOnce(data, MakeOptions(nullptr), MakeQuery(specs[i]));
    ASSERT_TRUE(result.ok()) << "query " << i << ": " << result.status();
    serial[i] = SignalOf(*result, specs[i].cardinality);
  }

  // Concurrent: every query at once, all nesting onto one shared pool,
  // repeated a few rounds so interleavings vary.
  ThreadPool pool(4);
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<QuerySignal> concurrent(specs.size());
    std::vector<Status> statuses(specs.size(), Status::OK());
    std::vector<std::thread> threads;
    threads.reserve(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      threads.emplace_back([&, i] {
        const Dataset data = MakeDataset(specs[i]);
        auto result =
            SubmitOnce(data, MakeOptions(&pool), MakeQuery(specs[i]));
        if (!result.ok()) {
          statuses[i] = result.status();
          return;
        }
        concurrent[i] = SignalOf(*result, specs[i].cardinality);
      });
    }
    for (std::thread& t : threads) t.join();
    for (size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(statuses[i].ok())
          << "round " << round << " query " << i << ": " << statuses[i];
      EXPECT_EQ(concurrent[i].skyline_ids, serial[i].skyline_ids)
          << "round " << round << " query " << i;
      EXPECT_EQ(concurrent[i].counters, serial[i].counters)
          << "round " << round << " query " << i;
    }
  }
}

TEST(ConcurrentQueriesTest, ResidentSessionMatchesSerialRunsBitForBit) {
  // The serve-path analogue of the test above: one resident Session over
  // one dataset, answering a mixed set of QuerySpecs from many threads
  // at once. Every result must be bit-identical (skyline ids) to a
  // serial one-query session, and the single-flight cache must miss
  // exactly once per distinct bitstring fingerprint.
  const Dataset data = data::GenerateAntiCorrelated(1400, 3, 108);

  Box box;
  box.lo = {0.0, 0.0, 0.0};
  box.hi = {0.6, 0.6, 0.6};
  std::vector<QuerySpec> specs(4);
  specs[0].algorithm = Algorithm::kMrGpsrs;
  specs[1].algorithm = Algorithm::kMrGpmrs;
  specs[2].algorithm = Algorithm::kMrGpmrs;
  specs[2].constraint = box;
  specs[3].algorithm = Algorithm::kMrBnl;

  // Serial reference: each query on its own fresh session.
  std::vector<std::vector<TupleId>> serial(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    auto result = SubmitOnce(data, MakeOptions(nullptr), specs[i]);
    ASSERT_TRUE(result.ok()) << "query " << i << ": " << result.status();
    serial[i] = result->SkylineIds();
    std::sort(serial[i].begin(), serial[i].end());
  }

  ThreadPool pool(4);
  auto session = Session::Open(data, MakeOptions(&pool));
  ASSERT_TRUE(session.ok()) << session.status();

  constexpr int kRounds = 3;
  const size_t total = kRounds * specs.size();
  std::vector<std::vector<TupleId>> concurrent(total);
  std::vector<Status> statuses(total, Status::OK());
  std::vector<std::thread> threads;
  threads.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    threads.emplace_back([&, i] {
      auto result = (*session)->Submit(specs[i % specs.size()]);
      if (!result.ok()) {
        statuses[i] = result.status();
        return;
      }
      concurrent[i] = result->SkylineIds();
      std::sort(concurrent[i].begin(), concurrent[i].end());
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < total; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << "query " << i << ": " << statuses[i];
    EXPECT_EQ(concurrent[i], serial[i % specs.size()]) << "query " << i;
  }
  // Two distinct fingerprints (shared unconstrained + constrained); the
  // baseline never touches the cache.
  const SessionStats stats = (*session)->stats();
  EXPECT_EQ(stats.cache_misses, 2);
  EXPECT_EQ(stats.cache_hits, kRounds * 3 - 2);
  EXPECT_EQ(stats.errors, 0);
}

TEST(ConcurrentQueriesTest, SharedMetricsRegistrySeesEveryQuery) {
  // Queries sharing a MetricsRegistry (the loadgen arrangement) must not
  // lose counter increments to races.
  obs::MetricsRegistry metrics;
  ThreadPool pool(4);
  const CaseSpec spec = {800, 3, 107, Algorithm::kMrGpmrs, false};
  const Dataset data = MakeDataset(spec);

  // One serial run to learn how many MapReduce jobs a query launches.
  auto serial = SubmitOnce(data, MakeOptions(nullptr), MakeQuery(spec));
  ASSERT_TRUE(serial.ok());
  const auto jobs_per_query = static_cast<int64_t>(serial->jobs.size());
  ASSERT_GT(jobs_per_query, 0);

  constexpr int kQueries = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int q = 0; q < kQueries; ++q) {
    threads.emplace_back([&] {
      SessionOptions options = MakeOptions(&pool);
      options.engine.metrics = &metrics;
      auto result = SubmitOnce(data, options, MakeQuery(spec));
      if (!result.ok()) failures.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  const obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters.at("mr.jobs_completed"),
            jobs_per_query * kQueries);
  EXPECT_EQ(snap.sketches.at("mr.job_wall_us").count(),
            static_cast<uint64_t>(jobs_per_query * kQueries));
}

}  // namespace
}  // namespace skymr

// Session API tests (DESIGN.md §17): a resident skymr::Session must
// answer QuerySpecs bit-identically to a fresh session per query, share
// the bitstring phase across queries via the fingerprint-keyed cache
// (single-flight under concurrency), respect the two-lane admission
// bounds, never serve a stale phase when the dataset or the bounds
// policy changes, and reject out-of-range options before any job runs.

#include "src/serve/session.h"

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/checkpoint.h"
#include "src/core/runner.h"
#include "src/data/generator.h"
#include "src/obs/bench_artifact.h"
#include "src/relation/skyline_verify.h"
#include "src/serve/query_spec.h"
#include "tests/serve/session_test_util.h"

namespace skymr {
namespace {

using session_testing::SubmitOnce;

Dataset MakeData(uint32_t cardinality, uint32_t dim, uint64_t seed) {
  data::GeneratorConfig gen;
  gen.distribution = data::Distribution::kIndependent;
  gen.cardinality = cardinality;
  gen.dim = dim;
  gen.seed = seed;
  return std::move(data::Generate(gen)).value();
}

SessionOptions BaseOptions() {
  SessionOptions options;
  options.engine.num_map_tasks = 3;
  options.engine.num_reducers = 3;
  options.ppd.max_candidate = 6;  // Keep candidate sweeps cheap in tests.
  return options;
}

std::vector<TupleId> SortedIds(const SkylineResult& result) {
  std::vector<TupleId> ids = result.SkylineIds();
  std::sort(ids.begin(), ids.end());
  return ids;
}

Box MiddleBox(uint32_t dim) {
  Box box;
  box.lo.assign(dim, 0.0);
  box.hi.assign(dim, 0.6);
  return box;
}

/// A mixed workload: both grid algorithms, a constrained query, and a
/// baseline with no bitstring phase.
std::vector<QuerySpec> MixedSpecs(uint32_t dim) {
  std::vector<QuerySpec> specs;
  QuerySpec gpsrs;
  gpsrs.algorithm = Algorithm::kMrGpsrs;
  specs.push_back(gpsrs);
  QuerySpec gpmrs;
  gpmrs.algorithm = Algorithm::kMrGpmrs;
  specs.push_back(gpmrs);
  QuerySpec constrained;
  constrained.algorithm = Algorithm::kMrGpmrs;
  constrained.constraint = MiddleBox(dim);
  specs.push_back(constrained);
  QuerySpec baseline;
  baseline.algorithm = Algorithm::kMrBnl;
  specs.push_back(baseline);
  return specs;
}

// ---------------------------------------------------------------------
// Parity with independent one-query sessions
// ---------------------------------------------------------------------

TEST(SessionTest, CachedSessionAnswersMixBitIdenticalToIndependentRuns) {
  const Dataset data = MakeData(2000, 3, 72);
  auto session = Session::Open(data, BaseOptions());
  ASSERT_TRUE(session.ok()) << session.status();

  const std::vector<QuerySpec> specs = MixedSpecs(data.dim());
  for (const QuerySpec& spec : specs) {
    SubmitInfo info;
    auto served = (*session)->Submit(spec, &info);
    ASSERT_TRUE(served.ok()) << served.status();
    auto direct = SubmitOnce(data, BaseOptions(), spec);
    ASSERT_TRUE(direct.ok()) << direct.status();
    EXPECT_EQ(SortedIds(*served), SortedIds(*direct));
    EXPECT_EQ(served->skyline.size(), direct->skyline.size());
    EXPECT_EQ(served->ppd, direct->ppd);
    EXPECT_EQ(served->nonempty_partitions, direct->nonempty_partitions);
    EXPECT_EQ(served->pruned_partitions, direct->pruned_partitions);
    // A hit skips exactly the bitstring job; the skyline job itself is
    // bit-identical down to its counters.
    EXPECT_EQ(served->jobs.size() + (info.cache_hit ? 1 : 0),
              direct->jobs.size());
    EXPECT_EQ(served->jobs.back().counters.values(),
              direct->jobs.back().counters.values());
  }
  // gpsrs leads the shared unconstrained fingerprint, gpmrs hits it;
  // the constrained query is its own fingerprint; the baseline never
  // touches the bitstring cache.
  const SessionStats stats = (*session)->stats();
  EXPECT_EQ(stats.submitted, static_cast<int64_t>(specs.size()));
  EXPECT_EQ(stats.completed, static_cast<int64_t>(specs.size()));
  EXPECT_EQ(stats.errors, 0);
  EXPECT_EQ(stats.cache_misses, 2);
  EXPECT_EQ(stats.cache_hits, 1);
}

// ---------------------------------------------------------------------
// Cache semantics
// ---------------------------------------------------------------------

TEST(SessionTest, CacheHitSkipsBitstringJobAndMatchesColdResult) {
  const Dataset data = MakeData(1800, 3, 73);
  auto session = Session::Open(data, BaseOptions());
  ASSERT_TRUE(session.ok()) << session.status();

  QuerySpec spec;
  spec.algorithm = Algorithm::kMrGpsrs;
  SubmitInfo info;
  auto cold = (*session)->Submit(spec, &info);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_FALSE(info.cache_hit);
  EXPECT_EQ(cold->jobs.size(), 2u);  // bitstring + skyline

  auto warm = (*session)->Submit(spec, &info);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(info.cache_hit);
  EXPECT_EQ(warm->jobs.size(), 1u);  // bitstring phase served from cache

  // The cached phase must reproduce the cold run exactly.
  EXPECT_EQ(SortedIds(*warm), SortedIds(*cold));
  EXPECT_EQ(warm->ppd, cold->ppd);
  EXPECT_EQ(warm->nonempty_partitions, cold->nonempty_partitions);
  EXPECT_EQ(warm->pruned_partitions, cold->pruned_partitions);
  EXPECT_EQ(ExplainSkylineMismatch(data, warm->SkylineIds()), "");
}

TEST(SessionTest, UnconstrainedPhaseSharedAcrossAlgorithms) {
  const Dataset data = MakeData(1500, 3, 74);
  auto session = Session::Open(data, BaseOptions());
  ASSERT_TRUE(session.ok()) << session.status();

  QuerySpec gpsrs;
  gpsrs.algorithm = Algorithm::kMrGpsrs;
  QuerySpec gpmrs;
  gpmrs.algorithm = Algorithm::kMrGpmrs;
  ASSERT_TRUE((*session)->Submit(gpsrs).ok());
  SubmitInfo info;
  auto second = (*session)->Submit(gpmrs, &info);
  ASSERT_TRUE(second.ok()) << second.status();
  // The phase depends on dataset+grid policy, never on the skyline
  // algorithm, so the gpmrs query rides the gpsrs-built phase.
  EXPECT_TRUE(info.cache_hit);
  EXPECT_EQ((*session)->stats().cache_misses, 1);
  EXPECT_EQ((*session)->stats().cache_hits, 1);
}

TEST(SessionTest, ConstraintBoxChangesFingerprint) {
  const Dataset data = MakeData(1500, 3, 75);
  auto session = Session::Open(data, BaseOptions());
  ASSERT_TRUE(session.ok()) << session.status();

  QuerySpec plain;
  plain.algorithm = Algorithm::kMrGpmrs;
  QuerySpec constrained = plain;
  constrained.constraint = MiddleBox(data.dim());
  ASSERT_TRUE((*session)->Submit(plain).ok());
  SubmitInfo info;
  auto first_constrained = (*session)->Submit(constrained, &info);
  ASSERT_TRUE(first_constrained.ok());
  EXPECT_FALSE(info.cache_hit);
  auto second_constrained = (*session)->Submit(constrained, &info);
  ASSERT_TRUE(second_constrained.ok());
  EXPECT_TRUE(info.cache_hit);
  EXPECT_EQ(SortedIds(*first_constrained), SortedIds(*second_constrained));
  EXPECT_EQ((*session)->stats().cache_misses, 2);
  EXPECT_EQ((*session)->stats().cache_hits, 1);
}

TEST(SessionTest, WarmupPrimesCacheSoFirstSubmitHits) {
  const Dataset data = MakeData(1500, 3, 76);
  auto session = Session::Open(data, BaseOptions());
  ASSERT_TRUE(session.ok()) << session.status();

  QuerySpec spec;
  spec.algorithm = Algorithm::kMrGpsrs;
  ASSERT_TRUE((*session)->Warmup(spec).ok());
  EXPECT_EQ((*session)->stats().cache_misses, 1);
  EXPECT_EQ((*session)->stats().submitted, 0);  // warmup is off-ledger

  SubmitInfo info;
  auto result = (*session)->Submit(spec, &info);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(info.cache_hit);
  EXPECT_EQ(result->jobs.size(), 1u);
  EXPECT_EQ(ExplainSkylineMismatch(data, result->SkylineIds()), "");

  // Warming a baseline is a no-op: there is no bitstring phase to keep.
  QuerySpec bnl;
  bnl.algorithm = Algorithm::kMrBnl;
  ASSERT_TRUE((*session)->Warmup(bnl).ok());
  EXPECT_EQ((*session)->stats().cache_misses, 1);
}

// ---------------------------------------------------------------------
// Fingerprint discipline across sessions (external checkpoint store)
// ---------------------------------------------------------------------

TEST(SessionTest, FingerprintMissesWhenDatasetOrBoundsChange) {
  const Dataset data_a = MakeData(1200, 3, 77);
  const Dataset data_b = MakeData(1200, 3, 78);  // same shape, new content
  core::PipelineCheckpoint checkpoint;
  SessionOptions options = BaseOptions();
  options.checkpoint = &checkpoint;

  QuerySpec spec;
  spec.algorithm = Algorithm::kMrGpsrs;

  // Session over A stores its phase in the shared checkpoint.
  {
    auto session = Session::Open(data_a, options);
    ASSERT_TRUE(session.ok()) << session.status();
    auto result = (*session)->Submit(spec);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_FALSE(result->resumed_from_checkpoint);
    EXPECT_EQ(checkpoint.size(), 1u);
  }
  // A fresh session over the SAME dataset resumes from it...
  {
    auto session = Session::Open(data_a, options);
    ASSERT_TRUE(session.ok()) << session.status();
    auto result = (*session)->Submit(spec);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->resumed_from_checkpoint);
    EXPECT_EQ(result->jobs.size(), 1u);
  }
  // ...but a different dataset must miss, never resume stale state.
  {
    auto session = Session::Open(data_b, options);
    ASSERT_TRUE(session.ok()) << session.status();
    auto result = (*session)->Submit(spec);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_FALSE(result->resumed_from_checkpoint);
    EXPECT_EQ(checkpoint.size(), 2u);
    EXPECT_EQ(ExplainSkylineMismatch(data_b, result->SkylineIds()), "");
  }
  // ...and so must the same dataset under a different bounds policy.
  {
    SessionOptions computed_bounds = options;
    computed_bounds.unit_bounds = false;
    auto session = Session::Open(data_a, computed_bounds);
    ASSERT_TRUE(session.ok()) << session.status();
    auto result = (*session)->Submit(spec);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_FALSE(result->resumed_from_checkpoint);
    EXPECT_EQ(checkpoint.size(), 3u);
  }
  // ...and so must a dataset that agrees with a stored one on the rows the
  // fingerprint probes (0, n/2, n-1) and nowhere else. `upper` lies in
  // [0.5,1]^3, so its bitstring marks every cell of `lower`'s other rows,
  // [0,0.5)^3, empty; resuming it would drop them.
  {
    const Dataset base = MakeData(1200, 3, 80);
    Dataset upper(3);
    Dataset lower(3);
    for (size_t i = 0; i < base.size(); ++i) {
      const double* row = base.RowPtr(static_cast<TupleId>(i));
      const bool probe = i == 0 || i == base.size() / 2 ||
                         i == base.size() - 1;
      std::vector<double> high(3);
      std::vector<double> low(3);
      for (size_t d = 0; d < 3; ++d) {
        high[d] = 0.5 + 0.5 * row[d];
        low[d] = 0.49 * row[d];
      }
      upper.Append(high);
      lower.Append(probe ? high : low);
    }
    for (const Dataset* data : {&upper, &lower}) {
      auto session = Session::Open(*data, options);
      ASSERT_TRUE(session.ok()) << session.status();
      auto result = (*session)->Submit(spec);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_FALSE(result->resumed_from_checkpoint);
      EXPECT_EQ(ExplainSkylineMismatch(*data, result->SkylineIds()), "");
    }
    EXPECT_EQ(checkpoint.size(), 5u);
  }
}

// ---------------------------------------------------------------------
// Concurrency: single-flight cache and admission bounds
// ---------------------------------------------------------------------

TEST(SessionTest, ConcurrentSubmitSingleFlightMissesOncePerFingerprint) {
  const Dataset data = MakeData(1500, 3, 79);
  auto session = Session::Open(data, BaseOptions());
  ASSERT_TRUE(session.ok()) << session.status();

  // Serial references, each from its own fresh session.
  const std::vector<QuerySpec> specs = MixedSpecs(data.dim());
  std::vector<std::vector<TupleId>> expected;
  for (const QuerySpec& spec : specs) {
    auto result = SubmitOnce(data, BaseOptions(), spec);
    ASSERT_TRUE(result.ok()) << result.status();
    expected.push_back(SortedIds(*result));
  }

  constexpr int kRounds = 4;
  const int total = kRounds * static_cast<int>(specs.size());
  std::vector<std::vector<TupleId>> got(total);
  std::vector<Status> failures(total, Status::OK());
  std::vector<std::thread> threads;
  threads.reserve(total);
  for (int i = 0; i < total; ++i) {
    threads.emplace_back([&, i] {
      auto result = (*session)->Submit(specs[i % specs.size()]);
      if (!result.ok()) {
        failures[i] = result.status();
        return;
      }
      got[i] = SortedIds(*result);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int i = 0; i < total; ++i) {
    ASSERT_TRUE(failures[i].ok()) << failures[i];
    EXPECT_EQ(got[i], expected[i % specs.size()]) << "query " << i;
  }
  // Single-flight: exactly one miss per distinct fingerprint (shared
  // unconstrained + constrained), no matter how the threads interleave.
  const SessionStats stats = (*session)->stats();
  EXPECT_EQ(stats.cache_misses, 2);
  // 3 grid queries per round touch the cache; 2 of the touches led.
  EXPECT_EQ(stats.cache_hits, kRounds * 3 - 2);
  EXPECT_EQ(stats.completed, total);
  EXPECT_EQ(stats.errors, 0);
}

TEST(SessionTest, AdmissionSlotsBoundConcurrentInflight) {
  const Dataset data = MakeData(1200, 3, 80);
  SessionOptions options = BaseOptions();
  options.admission_slots = 2;
  auto session = Session::Open(data, options);
  ASSERT_TRUE(session.ok()) << session.status();

  QuerySpec spec;
  spec.algorithm = Algorithm::kMrGpsrs;
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      auto result = (*session)->Submit(spec);
      ASSERT_TRUE(result.ok()) << result.status();
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const SessionStats stats = (*session)->stats();
  EXPECT_LE(stats.peak_inflight, 2);
  EXPECT_GE(stats.peak_inflight, 1);
  EXPECT_EQ(stats.completed, 8);
}

TEST(SessionTest, ReservedSlotsExcludeLargeQueries) {
  // 1200 tuples is past the default small_query_max_tuples (1000): every
  // query of this session rides the large lane.
  const Dataset data = MakeData(1200, 3, 81);
  SessionOptions options = BaseOptions();
  options.admission_slots = 3;
  options.small_reserved_slots = 2;  // large queries get one slot
  auto session = Session::Open(data, options);
  ASSERT_TRUE(session.ok()) << session.status();

  QuerySpec spec;
  spec.algorithm = Algorithm::kMrGpsrs;
  std::vector<std::thread> threads;
  for (int i = 0; i < 6; ++i) {
    threads.emplace_back([&] {
      SubmitInfo info;
      auto result = (*session)->Submit(spec, &info);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_FALSE(info.small_lane);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  // Only one large query may run at a time: the other two slots are
  // reserved for the small lane, which this workload never uses.
  EXPECT_EQ((*session)->stats().peak_inflight, 1);

  // Raising the lane split to the dataset's size moves the session's
  // queries to the small lane.
  options.small_query_max_tuples = data.size();
  auto small_session = Session::Open(data, options);
  ASSERT_TRUE(small_session.ok()) << small_session.status();
  SubmitInfo info;
  auto result = (*small_session)->Submit(spec, &info);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(info.small_lane);
}

// ---------------------------------------------------------------------
// Section 3.3's c is the number of rows in scope
// ---------------------------------------------------------------------

/// Candidate grids the query's bitstring job swept: every mapper emits
/// one local bitstring per candidate PPD.
uint64_t CandidatesSwept(const SkylineResult& result) {
  return result.jobs.front().map_tasks.front().output_records;
}

TEST(SessionTest, GridIsSizedForTheRowsInsideTheBox) {
  const Dataset data = MakeData(20000, 3, 84);
  SessionOptions options;
  options.engine.num_map_tasks = 3;
  options.engine.num_reducers = 3;
  auto session = Session::Open(data, options);
  ASSERT_TRUE(session.ok()) << session.status();

  // Unconstrained: c = n exactly, so the series is 2 .. floor(20000^(1/3))
  // = 27, and TPP 512 picks PPD 4 (20000 / 64 cells = 312 rows per cell).
  QuerySpec whole;
  whole.algorithm = Algorithm::kMrGpmrs;
  auto unconstrained = (*session)->Submit(whole);
  ASSERT_TRUE(unconstrained.ok()) << unconstrained.status();
  EXPECT_EQ(CandidatesSwept(*unconstrained), 26u);
  EXPECT_EQ(unconstrained->ppd, 4u);
  EXPECT_EQ(unconstrained->ppd_rule, "target-tpp");

  // An eighth of the unit cube: c is the box's share of the stride
  // sample scaled to n, so the series stops at floor(2402^(1/3)) = 13
  // instead of 27, and PPD 4 puts the box's rows in 8 cells of ~300.
  QuerySpec boxed = whole;
  boxed.constraint = Box{{0.0, 0.0, 0.0}, {0.5, 0.5, 0.5}};
  EXPECT_EQ(core::EstimateInScopeRows(data, boxed.constraint), 2402u);
  auto constrained = (*session)->Submit(boxed);
  ASSERT_TRUE(constrained.ok()) << constrained.status();
  EXPECT_EQ(CandidatesSwept(*constrained), 12u);
  EXPECT_EQ(constrained->ppd, 4u);
  EXPECT_TRUE(SameIdSet(constrained->SkylineIds(),
                        ReferenceSkyline(data, *boxed.constraint)));
}

TEST(SessionTest, BoxWithNoSampledRowFallsBackToPpdTwo) {
  // 4,096 rows: the stride sample reads the even ids, and only odd ids
  // lie in the box, so c = 0 and PPD 2 is the only candidate.
  std::vector<double> values;
  for (int i = 0; i < 4096; ++i) {
    const double u = static_cast<double>((i * 37) % 101) / 101.0;
    const double v = static_cast<double>((i * 53) % 97) / 97.0;
    const double base = i % 2 == 1 ? 0.9 : 0.0;
    const double span = i % 2 == 1 ? 0.1 : 0.8;
    values.push_back(base + span * u);
    values.push_back(base + span * v);
  }
  const Dataset data = std::move(Dataset::FromFlat(2, values)).value();
  QuerySpec spec;
  spec.algorithm = Algorithm::kMrGpmrs;
  spec.constraint = Box{{0.85, 0.85}, {1.0, 1.0}};
  ASSERT_EQ(core::EstimateInScopeRows(data, spec.constraint), 0u);
  auto result = SubmitOnce(data, BaseOptions(), spec);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(CandidatesSwept(*result), 1u);
  EXPECT_EQ(result->ppd, 2u);
  const std::vector<TupleId> expected =
      ReferenceSkyline(data, *spec.constraint);
  ASSERT_FALSE(expected.empty());
  EXPECT_TRUE(SameIdSet(result->SkylineIds(), expected));
}

// ---------------------------------------------------------------------
// Options validation
// ---------------------------------------------------------------------

TEST(SessionTest, OpenRejectsInvalidOptions) {
  const Dataset data = MakeData(300, 2, 82);

  SessionOptions negative_slots = BaseOptions();
  negative_slots.admission_slots = -1;
  EXPECT_FALSE(Session::Open(data, negative_slots).ok());

  SessionOptions no_large_slot = BaseOptions();
  no_large_slot.admission_slots = 2;
  no_large_slot.small_reserved_slots = 2;
  EXPECT_FALSE(Session::Open(data, no_large_slot).ok());

  ThreadPool pool(2);
  SessionOptions contradicting_pool = BaseOptions();
  contradicting_pool.pool = &pool;
  contradicting_pool.engine.num_threads = 4;
  auto open = Session::Open(data, contradicting_pool);
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.status().code(), StatusCode::kInvalidArgument);

  // Out-of-range enums (options can arrive as untrusted bytes): an
  // unknown prune mode would prune nothing, an unknown PPD strategy
  // would pick the largest candidate.
  SessionOptions bad_prune = BaseOptions();
  bad_prune.prune_mode = static_cast<core::PruneMode>(7);
  SessionOptions bad_strategy = BaseOptions();
  bad_strategy.ppd.strategy = static_cast<core::PpdStrategy>(7);
  for (const SessionOptions& bad : {bad_prune, bad_strategy}) {
    auto rejected = Session::Open(data, bad);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SessionTest, HugeAndInfiniteCoordinatesGiveTheReferenceSkyline) {
  // Past 2^64 the double->integer cast in Grid::CellOf used to send a
  // tuple to cell 0, the all-low cell, where it pruned cells it does not
  // dominate: GPSRS and GPMRS returned extra tuples with OK.
  for (const double far : {1e20, std::numeric_limits<double>::infinity()}) {
    const Dataset anti = data::GenerateAntiCorrelated(3000, 3, 5);
    std::vector<double> values = anti.values();
    for (size_t i = 0; i < anti.size(); i += 97) {
      values[i * 3 + i % 3] = far;
    }
    const Dataset data = std::move(Dataset::FromFlat(3, values)).value();
    const std::vector<TupleId> expected = ReferenceSkyline(data);
    for (const Algorithm algorithm :
         {Algorithm::kMrGpsrs, Algorithm::kMrGpmrs}) {
      QuerySpec spec;
      spec.algorithm = algorithm;
      auto result = SubmitOnce(data, SessionOptions{}, spec);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_TRUE(SameIdSet(result->SkylineIds(), expected))
          << AlgorithmName(algorithm) << " at " << far << ": "
          << ExplainSkylineMismatch(data, result->SkylineIds());
    }
  }
}

TEST(SessionTest, SubmitRejectsInvalidQuerySpec) {
  const Dataset data = MakeData(300, 2, 83);
  auto session = Session::Open(data, BaseOptions());
  ASSERT_TRUE(session.ok()) << session.status();

  QuerySpec bad_box;
  bad_box.constraint = Box{};  // wrong dimensionality
  bad_box.constraint->lo = {0.0, 0.0, 0.0};
  bad_box.constraint->hi = {1.0, 1.0, 1.0};
  auto result = (*session)->Submit(bad_box);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  // Out-of-range enums are rejected before any job runs. Unchecked, an
  // unknown algorithm would run as GPSRS and report "unknown", and an
  // unknown merge strategy would place no group on any reducer.
  QuerySpec bad_algorithm;
  bad_algorithm.algorithm = static_cast<Algorithm>(77);
  QuerySpec bad_merge;
  bad_merge.merge = static_cast<core::GroupMergeStrategy>(7);
  QuerySpec bad_local;
  bad_local.local_algorithm = static_cast<core::LocalAlgorithm>(9);
  for (const QuerySpec& bad : {bad_algorithm, bad_merge, bad_local}) {
    auto rejected = (*session)->Submit(bad);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  }
  // Spec validation runs before admission: only the bad box, which
  // fails inside the pipeline, reached the ledger.
  EXPECT_EQ((*session)->stats().errors, 1);

  // The silent wrong answer the merge check prevents: with more
  // independent groups than reducers, merge = 7 would place no group on
  // any reducer and return OK with an empty skyline.
  const Dataset anti = data::GenerateAntiCorrelated(20000, 4, 84);
  SessionOptions options;
  options.engine.num_map_tasks = 4;
  options.engine.num_reducers = 2;
  auto anti_session = Session::Open(anti, options);
  ASSERT_TRUE(anti_session.ok()) << anti_session.status();
  QuerySpec gpmrs;
  gpmrs.algorithm = Algorithm::kMrGpmrs;
  gpmrs.merge = static_cast<core::GroupMergeStrategy>(7);
  auto unknown_merge = (*anti_session)->Submit(gpmrs);
  ASSERT_FALSE(unknown_merge.ok())
      << "answered with " << unknown_merge->skyline.size() << " tuples";
  EXPECT_EQ(unknown_merge.status().code(), StatusCode::kInvalidArgument);
  gpmrs.merge = core::GroupMergeStrategy::kComputationCost;
  auto valid = (*anti_session)->Submit(gpmrs);
  ASSERT_TRUE(valid.ok()) << valid.status();
  EXPECT_FALSE(valid->skyline.empty());
}

}  // namespace
}  // namespace skymr

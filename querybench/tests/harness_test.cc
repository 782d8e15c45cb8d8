// Self-test of the benchmark's own rules: the nearest-rank percentile and
// its ten-samples-beyond requirement, the oracle gate (a tampered skyline
// must count as a failed query), the box round-trip through CSV rows, the
// serve query plan, and span self times.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <thread>

#include "querybench/harness.h"
#include "querybench/workload.h"

namespace querybench {
namespace {

TEST(PercentileTest, NearestRankOnKnownSample) {
  std::vector<double> samples(100);
  std::iota(samples.begin(), samples.end(), 1.0);  // 1 .. 100
  std::reverse(samples.begin(), samples.end());     // order must not matter
  EXPECT_EQ(Percentile(samples, 50), 50.0);
  EXPECT_EQ(Percentile(samples, 90), 90.0);
  EXPECT_EQ(Percentile(samples, 100), 100.0);
  EXPECT_EQ(Percentile({7.0}, 90), 7.0);
  EXPECT_EQ(Percentile({}, 50), 0.0);
  // Odd count: the median is the middle sample, not an interpolation.
  EXPECT_EQ(Percentile({3.0, 1.0, 2.0}, 50), 2.0);
  EXPECT_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 50), 2.0);
}

TEST(PercentileTest, TenSamplesBeyondRule) {
  EXPECT_EQ(NearestRank(100, 90), 90u);
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(99, 90), 9u);  // ceil(89.1) = 90
  EXPECT_EQ(SamplesBeyond(101, 90), 10u);
  EXPECT_EQ(SamplesBeyond(0, 90), 0u);
  EXPECT_EQ(MinSamplesFor(90), 100u);
  EXPECT_EQ(MinSamplesFor(50), 20u);
  EXPECT_EQ(MinSamplesFor(99), 1000u);
}

skymr::Dataset SmallData() {
  return skymr::data::GenerateAntiCorrelated(400, 3, 11);
}

TEST(GateTest, OracleMatchesSessionAnswer) {
  const skymr::Dataset data = SmallData();
  skymr::SessionOptions options;
  options.engine.num_threads = 2;
  auto session = skymr::Session::Open(data, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto result = (*session)->Submit(skymr::QuerySpec{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const std::vector<skymr::TupleId> oracle =
      OracleSkylineIds(data, std::nullopt);
  ASSERT_FALSE(oracle.empty());
  EXPECT_TRUE(std::is_sorted(oracle.begin(), oracle.end()));
  GateTally tally;
  tally.Record(AnswerMatches(result->skyline.ids(), oracle));
  EXPECT_EQ(tally.attempted, 1);
  EXPECT_EQ(tally.failed, 0);
}

TEST(GateTest, TamperedSkylineCountsAsFailed) {
  const skymr::Dataset data = SmallData();
  const std::vector<skymr::TupleId> oracle =
      OracleSkylineIds(data, std::nullopt);
  ASSERT_GE(oracle.size(), 2u);

  // A skyline tuple dropped.
  std::vector<skymr::TupleId> dropped = oracle;
  dropped.pop_back();
  // A non-skyline tuple swapped in for a skyline one.
  std::vector<skymr::TupleId> swapped = oracle;
  for (skymr::TupleId id = 0; id < data.size(); ++id) {
    if (!std::binary_search(oracle.begin(), oracle.end(), id)) {
      swapped.front() = id;
      break;
    }
  }
  // A duplicate answer row.
  std::vector<skymr::TupleId> duplicated = oracle;
  duplicated.push_back(oracle.front());

  GateTally tally;
  tally.Record(AnswerMatches(oracle, oracle));
  tally.Record(AnswerMatches(dropped, oracle));
  tally.Record(AnswerMatches(swapped, oracle));
  tally.Record(AnswerMatches(duplicated, oracle));
  EXPECT_EQ(tally.attempted, 4);
  EXPECT_EQ(tally.failed, 3);
}

TEST(GateTest, ConstrainedOracleMapsIdsBack) {
  skymr::Dataset data(2);
  data.Append({0.9, 0.9});  // 0: outside the box
  data.Append({0.1, 0.1});  // 1: outside, would dominate everything
  data.Append({0.5, 0.6});  // 2
  data.Append({0.6, 0.5});  // 3
  data.Append({0.7, 0.7});  // 4: dominated by 2 and 3
  skymr::Box box;
  box.lo = {0.4, 0.4};
  box.hi = {0.8, 0.8};
  EXPECT_EQ(OracleSkylineIds(data, box),
            (std::vector<skymr::TupleId>{2, 3}));
  EXPECT_EQ(OracleSkylineIds(data, std::nullopt),
            (std::vector<skymr::TupleId>{1}));
}

TEST(WorkloadTest, BoxesRoundTripThroughCsvRows) {
  const std::vector<skymr::Box> boxes = DrawBoxes(4, 5);
  ASSERT_EQ(boxes.size(), kHotBoxes + kFreshBoxes);
  EXPECT_EQ(DrawBoxes(4, 5)[17].lo, boxes[17].lo);  // seed-exact
  EXPECT_NE(DrawBoxes(4, 6)[17].lo, boxes[17].lo);
  for (const skymr::Box& box : boxes) {
    for (size_t k = 0; k < 4; ++k) {
      ASSERT_GE(box.lo[k], 0.0);
      ASSERT_LE(box.hi[k], 1.0);
    }
  }
  auto text = skymr::data::SaveCsvToString(BoxesToRows(boxes));
  ASSERT_TRUE(text.ok());
  auto rows = skymr::data::LoadCsvFromString(*text, false);
  ASSERT_TRUE(rows.ok());
  auto back = BoxesFromRows(*rows);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), boxes.size());
  for (size_t i = 0; i < boxes.size(); ++i) {
    ASSERT_EQ((*back)[i].lo, boxes[i].lo);
    ASSERT_EQ((*back)[i].hi, boxes[i].hi);
  }
}

TEST(WorkloadTest, ServePlanMixesHitsMissesAndAlgorithms) {
  const Workload& serve = *FindWorkload("serve-boxes");
  const std::vector<skymr::Box> boxes = DrawBoxes(serve.dim, 1);
  int hits = 0;
  int gpmrs_hits = 0;
  int gpmrs_misses = 0;
  std::vector<int64_t> fresh;
  for (int64_t i = 0; i < 400; ++i) {
    const PlannedQuery q = PlanQuery(serve, boxes, i);
    ASSERT_TRUE(q.spec.constraint.has_value());
    const bool gpmrs = q.spec.algorithm == skymr::Algorithm::kMrGpmrs;
    if (q.hot) {
      ++hits;
      gpmrs_hits += gpmrs ? 1 : 0;
      EXPECT_LT(q.box, static_cast<int64_t>(kHotBoxes));
    } else {
      gpmrs_misses += gpmrs ? 1 : 0;
      fresh.push_back(q.box);
    }
  }
  EXPECT_EQ(hits, 300);
  EXPECT_EQ(gpmrs_hits, 150);
  EXPECT_EQ(gpmrs_misses, 50);
  std::sort(fresh.begin(), fresh.end());
  EXPECT_EQ(std::unique(fresh.begin(), fresh.end()), fresh.end());
  EXPECT_EQ(PlanQuery(serve, boxes, 0).spec.algorithm,
            skymr::Algorithm::kMrGpmrs);
  EXPECT_FALSE(PlanQuery(serve, boxes, 3).hot);

  const Workload& batch = *FindWorkload("batch-anti-d6");
  EXPECT_FALSE(PlanQuery(batch, {}, 7).spec.constraint.has_value());
  EXPECT_EQ(FindWorkload("nope"), nullptr);
}

TEST(SpanTest, SelfTimeSubtractsChildren) {
  SpanRecorder recorder;
  {
    SpanRecorder::Scope outer(&recorder, "outer", 1);
    {
      SpanRecorder::Scope inner(&recorder, "inner", 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::vector<SpanRecord> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord& inner = spans[0];
  const SpanRecord& outer = spans[1];
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(outer.parent, 0u);
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], inner.duration_s());
  EXPECT_NEAR(self[1], outer.duration_s() - inner.duration_s(), 1e-12);
  EXPECT_GE(self[1], 0.004);
}

}  // namespace
}  // namespace querybench

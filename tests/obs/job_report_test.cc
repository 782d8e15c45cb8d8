#include "src/obs/job_report.h"

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/runner.h"
#include "src/cost/cost_model.h"
#include "src/data/generator.h"
#include "src/mapreduce/job.h"
#include "src/obs/json_parse.h"
#include "src/obs/metrics.h"
#include "tests/serve/session_test_util.h"
#include "tests/obs/json_test_util.h"

namespace skymr::obs {
namespace {

using session_testing::SubmitOnce;

SkylineResult SmallGridRun() {
  data::GeneratorConfig gen;
  gen.distribution = data::Distribution::kAntiCorrelated;
  gen.cardinality = 600;
  gen.dim = 3;
  gen.seed = 17;
  const Dataset data = std::move(data::Generate(gen)).value();
  SessionOptions options;
  QuerySpec query;
  query.algorithm = Algorithm::kMrGpmrs;
  options.engine.num_map_tasks = 3;
  options.engine.num_reducers = 2;
  options.ppd.max_candidate = 8;
  auto result = SubmitOnce(data, options, query);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

/// The report's jobs[0] object for a run whose only job is `metrics`.
JsonValue JobJson(const mr::JobMetrics& metrics) {
  SkylineResult result;
  result.jobs = {metrics};
  std::ostringstream os;
  WriteJobReport(result, os);
  EXPECT_EQ(testing::JsonParseError(os.str()), "") << os.str();
  auto doc = ParseJson(os.str());
  const JsonValue* jobs = doc.ok() ? doc->Find("jobs") : nullptr;
  if (jobs == nullptr || !jobs->is_array() || jobs->AsArray().empty()) {
    ADD_FAILURE() << "no jobs[0] in " << os.str();
    return JsonValue();
  }
  return jobs->AsArray()[0];
}

TEST(JobReportTest, ReportIsValidJsonWithSchemaAndCostModel) {
  const SkylineResult result = SmallGridRun();
  std::ostringstream os;
  WriteJobReport(result, os);
  const std::string json = os.str();

  EXPECT_EQ(testing::JsonParseError(json), "") << json;
  EXPECT_NE(json.find("\"schema\": \"skymr-report-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"algorithm\": \"mr-gpmrs\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\": ["), std::string::npos);
  // Both chained jobs are reported.
  EXPECT_NE(json.find("\"name\": \"bitstring-generation\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"mr-gpmrs\""), std::string::npos);
  // The skyline job's sketches hold work counts only: the mapper window
  // sizes and the reducer group load, and no task timings (those live in
  // map_tasks / reduce_tasks).
  auto doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const JsonValue* jobs = doc->Find("jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_TRUE(jobs->is_array());
  ASSERT_FALSE(jobs->AsArray().empty());
  const JsonValue* sketches = jobs->AsArray().back().Find("sketches");
  ASSERT_NE(sketches, nullptr);
  ASSERT_TRUE(sketches->is_object());
  for (const char* name : {"skymr.window_size", "skymr.reducer_group_cells",
                           "skymr.reducer_group_cost"}) {
    const JsonValue* sketch = sketches->Find(name);
    ASSERT_NE(sketch, nullptr) << name;
    EXPECT_GT(sketch->GetInt("count", 0), 0) << name;
    EXPECT_NE(sketch->Find("relative_error"), nullptr) << name;
  }
  EXPECT_EQ(json.find("_busy_us\""), std::string::npos);
  EXPECT_EQ(json.find("\"histograms\""), std::string::npos);
  // A grid run carries the Section 6 cost-model comparison.
  EXPECT_NE(json.find("\"cost_model\""), std::string::npos);
  EXPECT_NE(json.find("\"predicted_mapper_comparisons\""), std::string::npos);
  EXPECT_NE(json.find("\"observed_max_reducer_comparisons\""),
            std::string::npos);
}

TEST(JobReportTest, CostModelComparesObservedAgainstPredictions) {
  const SkylineResult result = SmallGridRun();
  ASSERT_FALSE(result.jobs.empty());
  const mr::JobMetrics& skyline_job = result.jobs.back();
  ASSERT_GT(result.ppd, 0u);
  const size_t dim = result.skyline.dim();
  // The predictions are estimates, not bounds (they assume uniform data),
  // so assert the comparison is meaningful rather than an inequality: both
  // sides present, finite, and positive for a run that did real work.
  EXPECT_GT(cost::MapperCost(result.ppd, dim), 0.0);
  EXPECT_GT(cost::ReducerCost(result.ppd, dim), 0.0);
  EXPECT_GT(skyline_job.MaxMapCounter(mr::kCounterPartitionComparisons), 0);
  EXPECT_GT(skyline_job.MaxReduceCounter(mr::kCounterPartitionComparisons),
            0);
}

TEST(JobReportTest, StatsTextSummarizesJobsAndCostModel) {
  const SkylineResult result = SmallGridRun();
  const std::string text = RenderStatsText(result);
  EXPECT_NE(text.find("algorithm mr-gpmrs"), std::string::npos) << text;
  EXPECT_NE(text.find("job bitstring-generation"), std::string::npos);
  EXPECT_NE(text.find("job mr-gpmrs"), std::string::npos);
  EXPECT_NE(text.find("map busy max/median"), std::string::npos);
  EXPECT_NE(text.find("retries:"), std::string::npos);
  EXPECT_NE(text.find("cache hits/misses:"), std::string::npos);
  EXPECT_NE(text.find("cost model"), std::string::npos);
}

TEST(JobReportTest, JobMetricsJsonRendersSketchQuantiles) {
  // Three reducer groups of cost {335, 335, 360}: the rendered p50 must
  // be the sketch's estimate of 335, not a power-of-two bucket's.
  mr::JobMetrics metrics;
  metrics.name = "groups";
  for (const double cost : {335.0, 335.0, 360.0}) {
    metrics.sketches["skymr.reducer_group_cost"].Add(cost);
  }
  const JsonValue job = JobJson(metrics);
  const JsonValue* sketches = job.Find("sketches");
  ASSERT_NE(sketches, nullptr);
  const JsonValue* cost = sketches->Find("skymr.reducer_group_cost");
  ASSERT_NE(cost, nullptr);
  EXPECT_EQ(cost->GetInt("count", 0), 3);
  EXPECT_DOUBLE_EQ(cost->GetDouble("min", 0.0), 335.0);
  EXPECT_DOUBLE_EQ(cost->GetDouble("max", 0.0), 360.0);
  EXPECT_NEAR(cost->GetDouble("p50", 0.0), 335.0,
              335.0 * QuantileSketch::kRelativeError);
  EXPECT_DOUBLE_EQ(cost->GetDouble("relative_error", 0.0),
                   QuantileSketch::kRelativeError);
}

TEST(JobReportTest, WriteJobReportFileRejectsBadPath) {
  const SkylineResult result = SmallGridRun();
  const Status status =
      WriteJobReportFile(result, "/nonexistent-dir/report.json");
  EXPECT_FALSE(status.ok());
}

// ---------------------------------------------------------------------
// Fault injection: a retried task and its cache traffic must be visible
// in the rendered job metrics.
// ---------------------------------------------------------------------

/// Reads one present and one absent cache key per attempt, and fails its
/// first attempt, so the job metrics show exactly one retry and two
/// hit/miss pairs (one per attempt).
class FlakyCachingMapper : public mr::Mapper<int, int, int> {
 public:
  explicit FlakyCachingMapper(std::atomic<int>* attempts)
      : attempts_(attempts) {}
  void Setup(mr::MapContext<int, int>& ctx) override {
    ASSERT_NE(ctx.cache().Get<int>("present"), nullptr);
    EXPECT_EQ(ctx.cache().Get<int>("absent"), nullptr);
  }
  void Map(const int& record, mr::MapContext<int, int>& ctx) override {
    ctx.Emit(0, record);
  }
  void Cleanup(mr::MapContext<int, int>& ctx) override {
    (void)ctx;
    if (attempts_->fetch_add(1) < 1) {
      throw mr::TaskFailure("injected failure");
    }
  }

 private:
  std::atomic<int>* attempts_;
};

class SumReducer : public mr::Reducer<int, int, int> {
 public:
  void Reduce(const int& key, mr::ValueIterator<int>& values,
              mr::ReduceContext<int>& ctx) override {
    (void)key;
    int total = 0;
    while (values.HasNext()) {
      total += values.Next();
    }
    ctx.Emit(total);
  }
};

TEST(JobReportTest, RetriesAndCacheTrafficSurfaceInJobMetricsJson) {
  auto attempts = std::make_shared<std::atomic<int>>(0);
  mr::Job<int, int, int, int> job(
      "flaky",
      [attempts] {
        return std::make_unique<FlakyCachingMapper>(attempts.get());
      },
      [] { return std::make_unique<SumReducer>(); });
  mr::EngineOptions options;
  options.num_map_tasks = 1;
  options.num_reducers = 1;
  options.max_task_attempts = 3;
  mr::DistributedCache cache;
  ASSERT_TRUE(cache.PutValue<int>("present", 1).ok());
  auto result = job.Run(std::vector<int>{4, 5}, options, cache);
  ASSERT_TRUE(result.ok()) << result.status;
  ASSERT_EQ(result.metrics.map_tasks.size(), 1u);
  EXPECT_EQ(result.metrics.map_tasks[0].attempts, 2);

  const JsonValue rendered = JobJson(result.metrics);
  EXPECT_EQ(rendered.GetString("name", ""), "flaky");
  // One retry, and one cache hit + one miss per attempt.
  EXPECT_EQ(rendered.GetInt("task_retries", 0), 1);
  EXPECT_EQ(rendered.GetInt("cache_hits", 0), 2);
  EXPECT_EQ(rendered.GetInt("cache_misses", 0), 2);
  const JsonValue* map_tasks = rendered.Find("map_tasks");
  ASSERT_NE(map_tasks, nullptr);
  ASSERT_TRUE(map_tasks->is_array());
  ASSERT_EQ(map_tasks->AsArray().size(), 1u);
  EXPECT_EQ(map_tasks->AsArray()[0].GetInt("attempts", 0), 2);
}

}  // namespace
}  // namespace skymr::obs

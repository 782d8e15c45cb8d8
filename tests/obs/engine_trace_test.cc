// End-to-end tracing of a chained two-job run: the grid pipeline executes
// the bitstring-generation job and then the skyline job, and the trace
// must show that structure — one pipeline span containing both job spans,
// each job span containing its waves, each wave containing its tasks.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/runner.h"
#include "src/data/generator.h"
#include "src/obs/trace.h"
#include "tests/serve/session_test_util.h"

namespace skymr::obs {
namespace {

using session_testing::SubmitOnce;

std::vector<TraceEventView> ByName(const std::vector<TraceEventView>& events,
                                   const std::string& name) {
  std::vector<TraceEventView> out;
  for (const TraceEventView& e : events) {
    if (e.name == name) {
      out.push_back(e);
    }
  }
  return out;
}

/// True when `inner` lies within `outer` in time. Spans on one thread are
/// strictly nested by construction; across threads a worker's task span
/// completes before the wave barrier releases the enclosing span, so
/// containment holds on the shared clock (with a rounding allowance).
bool ContainedIn(const TraceEventView& inner, const TraceEventView& outer) {
  constexpr double kSlackUs = 1.0;
  return inner.ts_us >= outer.ts_us - kSlackUs &&
         inner.ts_us + inner.dur_us <=
             outer.ts_us + outer.dur_us + kSlackUs;
}

TEST(EngineTraceTest, ChainedJobsNestUnderThePipelineSpan) {
  if (!TracingCompiledIn()) {
    GTEST_SKIP() << "tracing compiled out";
  }
  data::GeneratorConfig gen;
  gen.distribution = data::Distribution::kAntiCorrelated;
  gen.cardinality = 800;
  gen.dim = 3;
  gen.seed = 99;
  const Dataset data = std::move(data::Generate(gen)).value();

  SessionOptions options;
  QuerySpec query;
  query.algorithm = Algorithm::kMrGpmrs;
  options.engine.num_map_tasks = 3;
  options.engine.num_reducers = 2;
  options.ppd.max_candidate = 8;

  StopTracing();
  ClearTrace();
  StartTracing();
  auto result = SubmitOnce(data, options, query);
  StopTracing();
  ASSERT_TRUE(result.ok()) << result.status();
  const std::vector<TraceEventView> events = SnapshotTrace();
  ClearTrace();

  // Exactly one pipeline span, at depth 0 on its thread.
  const auto pipelines = ByName(events, "skyline.pipeline");
  ASSERT_EQ(pipelines.size(), 1u);
  const TraceEventView& pipeline = pipelines[0];
  EXPECT_EQ(pipeline.depth, 0u);

  // Both chained jobs appear, nested one level under the pipeline on the
  // same thread, and contained in it in time — bitstring first.
  const auto bitstring_jobs = ByName(events, "job.bitstring-generation");
  const auto skyline_jobs = ByName(events, "job.mr-gpmrs");
  ASSERT_EQ(bitstring_jobs.size(), 1u);
  ASSERT_EQ(skyline_jobs.size(), 1u);
  for (const TraceEventView* job : {&bitstring_jobs[0], &skyline_jobs[0]}) {
    EXPECT_EQ(job->tid, pipeline.tid);
    EXPECT_EQ(job->depth, 1u);
    EXPECT_TRUE(ContainedIn(*job, pipeline));
  }
  EXPECT_LE(bitstring_jobs[0].ts_us + bitstring_jobs[0].dur_us,
            skyline_jobs[0].ts_us + 1.0);

  // Each job drives one map wave and one reduce wave, nested at depth 2
  // under its job span.
  const auto map_waves = ByName(events, "map.wave");
  const auto reduce_waves = ByName(events, "reduce.wave");
  ASSERT_EQ(map_waves.size(), 2u);
  ASSERT_EQ(reduce_waves.size(), 2u);
  for (const auto& waves : {map_waves, reduce_waves}) {
    for (const TraceEventView& wave : waves) {
      EXPECT_EQ(wave.tid, pipeline.tid);
      EXPECT_EQ(wave.depth, 2u);
      EXPECT_TRUE(ContainedIn(wave, pipeline));
      EXPECT_TRUE(ContainedIn(wave, bitstring_jobs[0]) ||
                  ContainedIn(wave, skyline_jobs[0]));
    }
  }

  // Task spans may run on worker threads (so depth restarts there), but
  // every one completes inside some job span.
  const auto map_tasks = ByName(events, "map.task");
  const auto reduce_tasks = ByName(events, "reduce.task");
  EXPECT_EQ(map_tasks.size(), 6u);  // 3 per job.
  EXPECT_EQ(reduce_tasks.size(), 3u);  // 1 (bitstring) + 2 (gpmrs).
  for (const auto& tasks : {map_tasks, reduce_tasks}) {
    for (const TraceEventView& task : tasks) {
      EXPECT_TRUE(ContainedIn(task, bitstring_jobs[0]) ||
                  ContainedIn(task, skyline_jobs[0]))
          << task.name << " at ts " << task.ts_us;
    }
  }

  // The paper-phase spans fired: PPD selection and pruning inside the
  // bitstring job, group assignment once before the GPMRS job, merging
  // inside it.
  EXPECT_EQ(ByName(events, "ppd.select").size(), 1u);
  EXPECT_EQ(ByName(events, "bitstring.prune").size(), 1u);
  EXPECT_EQ(ByName(events, "gpmrs.group_assign").size(), 1u);  // Per job.
  EXPECT_GE(ByName(events, "gpmrs.merge").size(), 1u);
  EXPECT_GE(ByName(events, "core.compare_partitions").size(), 1u);
  EXPECT_EQ(ByName(events, "shuffle.bucket").size(), 3u);
  EXPECT_EQ(ByName(events, "shuffle.sort").size(), 3u);

  // Every map/shuffle/reduce span carries its task/reducer arg.
  for (const TraceEventView& task : map_tasks) {
    ASSERT_FALSE(task.args.empty());
    EXPECT_EQ(task.args[0].first, "task");
  }
}

TEST(EngineTraceTest, GpsrsMergeSpanAppearsForSingleReducerRun) {
  if (!TracingCompiledIn()) {
    GTEST_SKIP() << "tracing compiled out";
  }
  data::GeneratorConfig gen;
  gen.cardinality = 400;
  gen.dim = 3;
  gen.seed = 5;
  const Dataset data = std::move(data::Generate(gen)).value();
  SessionOptions options;
  QuerySpec query;
  query.algorithm = Algorithm::kMrGpsrs;
  options.engine.num_map_tasks = 2;
  options.ppd.max_candidate = 8;

  StopTracing();
  ClearTrace();
  StartTracing();
  auto result = SubmitOnce(data, options, query);
  StopTracing();
  ASSERT_TRUE(result.ok()) << result.status();
  const std::vector<TraceEventView> events = SnapshotTrace();
  ClearTrace();

  EXPECT_EQ(ByName(events, "job.mr-gpsrs").size(), 1u);
  EXPECT_GE(ByName(events, "gpsrs.merge").size(), 1u);
}

}  // namespace
}  // namespace skymr::obs

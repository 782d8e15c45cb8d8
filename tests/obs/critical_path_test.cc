#include "src/obs/critical_path.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/runner.h"
#include "src/data/generator.h"
#include "src/mapreduce/task_metrics.h"
#include "tests/serve/session_test_util.h"

namespace skymr::obs {
namespace {

using session_testing::SubmitOnce;

// ---------------------------------------------------------------------
// LongestPath golden tests over hand-built DAGs.
// ---------------------------------------------------------------------

DagNode Node(uint64_t id, std::string name, std::string phase, double weight,
             std::vector<uint64_t> deps) {
  DagNode n;
  n.id = id;
  n.name = std::move(name);
  n.phase = std::move(phase);
  n.weight = weight;
  n.deps = std::move(deps);
  return n;
}

/// The golden diamond: a(2) -> {b(3), c(5)} -> d(4). Longest path is
/// a,c,d with length 11; b carries 2 units of slack.
std::vector<DagNode> Diamond() {
  return {Node(1, "a", "load", 2.0, {}),
          Node(2, "b", "work", 3.0, {1}),
          Node(3, "c", "work", 5.0, {1}),
          Node(4, "d", "save", 4.0, {2, 3})};
}

TEST(LongestPathTest, DiamondGolden) {
  auto path = LongestPath(Diamond());
  ASSERT_TRUE(path.ok()) << path.status();
  EXPECT_DOUBLE_EQ(path->length, 11.0);
  EXPECT_EQ(path->nodes, (std::vector<uint64_t>{1, 3, 4}));
}

TEST(LongestPathTest, PhaseFreeExposesSlack) {
  // Freeing "work" zeroes b and c but keeps the a -> d dependency chain:
  // the path shrinks to a + d = 6, a 5-second (45%) slack.
  auto freed = LongestPathWithPhaseFree(Diamond(), "work");
  ASSERT_TRUE(freed.ok()) << freed.status();
  EXPECT_DOUBLE_EQ(freed->length, 6.0);
  // Freeing a phase not on the DAG changes nothing.
  auto same = LongestPathWithPhaseFree(Diamond(), "nope");
  ASSERT_TRUE(same.ok());
  EXPECT_DOUBLE_EQ(same->length, 11.0);
}

TEST(LongestPathTest, TiesBreakDeterministically) {
  // b and c tie at weight 3: the predecessor choice must take the first
  // strict maximum in d's dependency-list order — b.
  auto path = LongestPath({Node(1, "a", "p", 2.0, {}),
                           Node(2, "b", "p", 3.0, {1}),
                           Node(3, "c", "p", 3.0, {1}),
                           Node(4, "d", "p", 4.0, {2, 3})});
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->nodes, (std::vector<uint64_t>{1, 2, 4}));

  // Two equal-length disjoint chains: the path ends at the first sink in
  // input order.
  auto two = LongestPath({Node(1, "x", "p", 5.0, {}),
                          Node(2, "y", "p", 5.0, {})});
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two->nodes, (std::vector<uint64_t>{1}));
}

TEST(LongestPathTest, EmptyDagIsEmptyPath) {
  auto path = LongestPath({});
  ASSERT_TRUE(path.ok());
  EXPECT_DOUBLE_EQ(path->length, 0.0);
  EXPECT_TRUE(path->nodes.empty());
}

TEST(LongestPathTest, RejectsMalformedDags) {
  // Zero id.
  EXPECT_FALSE(LongestPath({Node(0, "z", "p", 1.0, {})}).ok());
  // Duplicate id.
  EXPECT_FALSE(LongestPath({Node(1, "a", "p", 1.0, {}),
                            Node(1, "b", "p", 1.0, {})})
                   .ok());
  // Unknown dependency.
  EXPECT_FALSE(LongestPath({Node(1, "a", "p", 1.0, {99})}).ok());
  // Cycle.
  EXPECT_FALSE(LongestPath({Node(1, "a", "p", 1.0, {2}),
                            Node(2, "b", "p", 1.0, {1})})
                   .ok());
}

// ---------------------------------------------------------------------
// AnalyzeCriticalPath over synthetic job metrics.
// ---------------------------------------------------------------------

mr::TaskMetrics Task(double busy, uint64_t in, uint64_t out,
                     double shuffle = 0.0, int attempts = 1) {
  mr::TaskMetrics t;
  t.busy_seconds = busy;
  t.input_records = in;
  t.output_records = out;
  t.shuffle_seconds = shuffle;
  t.attempts = attempts;
  return t;
}

/// Two chained jobs with hand-picked weights. Wall critical path:
///   j0.map1 (3.0) -> j0.shf0 (0.5) -> j0.red0 (2.0)
///   -> j1.map1 (2.0) -> j1.shf1 (1.0) -> j1.red1 (0.5)
/// makespan 9.0s. The deterministic (record-count) path takes the same
/// route because the record weights rank the same way.
std::vector<mr::JobMetrics> TwoJobPipeline() {
  mr::JobMetrics bitstring;
  bitstring.name = "bitstring-generation";
  bitstring.map_tasks = {Task(1.0, 10, 5), Task(3.0, 100, 50)};
  bitstring.reduce_tasks = {Task(2.0, 55, 20, /*shuffle=*/0.5)};

  mr::JobMetrics skyline;
  skyline.name = "mr-gpmrs";
  skyline.map_tasks = {Task(1.0, 20, 10), Task(2.0, 200, 100)};
  skyline.reduce_tasks = {Task(1.0, 30, 5, /*shuffle=*/0.25),
                          Task(0.5, 300, 10, /*shuffle=*/1.0)};
  return {bitstring, skyline};
}

TEST(AnalyzeCriticalPathTest, AttributesPhasesSummingToMakespan) {
  const CriticalPathReport report = AnalyzeCriticalPath(TwoJobPipeline());
  ASSERT_TRUE(report.valid);
  EXPECT_DOUBLE_EQ(report.makespan_seconds, 9.0);

  // The path walks both jobs' map -> shuffle -> reduce chains.
  ASSERT_EQ(report.steps.size(), 6u);
  const std::vector<std::string> kinds = {"map",    "shuffle", "reduce",
                                          "map",    "shuffle", "reduce"};
  const std::vector<int> tasks = {1, 0, 0, 1, 1, 1};
  for (size_t i = 0; i < report.steps.size(); ++i) {
    EXPECT_EQ(report.steps[i].kind, kinds[i]) << "step " << i;
    EXPECT_EQ(report.steps[i].task, tasks[i]) << "step " << i;
  }
  EXPECT_EQ(report.steps[0].job, "bitstring-generation");
  EXPECT_EQ(report.steps[5].job, "mr-gpmrs");

  // Paper-phase mapping, in first-appearance order, summing to 100%.
  ASSERT_EQ(report.phases.size(), 5u);
  EXPECT_EQ(report.phases[0].phase, "ppd.select");
  EXPECT_EQ(report.phases[1].phase, "shuffle");
  EXPECT_EQ(report.phases[2].phase, "bitstring.prune");
  EXPECT_EQ(report.phases[3].phase, "local-skyline");
  EXPECT_EQ(report.phases[4].phase, "merge");
  EXPECT_DOUBLE_EQ(report.phases[0].seconds, 3.0);
  EXPECT_DOUBLE_EQ(report.phases[1].seconds, 1.5);  // 0.5 + 1.0
  EXPECT_DOUBLE_EQ(report.phases[2].seconds, 2.0);
  EXPECT_DOUBLE_EQ(report.phases[3].seconds, 2.0);
  EXPECT_DOUBLE_EQ(report.phases[4].seconds, 0.5);
  double percent_sum = 0.0;
  for (const CpPhase& p : report.phases) {
    percent_sum += p.percent;
  }
  EXPECT_NEAR(percent_sum, 100.0, 1e-9);

  // What-if: shuffle free drops j0 to 5.0 and j1 to 3.0 -> makespan 8.0,
  // an 11.1% reduction (j1's path re-routes through reducer 0).
  EXPECT_NEAR(report.phases[1].what_if_free_percent, 100.0 * 1.0 / 9.0,
              1e-9);

  EXPECT_EQ(report.dag_signature,
            "jobs=2;j0=bitstring-generation:m2:r1;j1=mr-gpmrs:m2:r2;"
            "det=j0.map1>j0.shf0>j0.red0>j1.map1>j1.shf1>j1.red1");

  // Deterministic attribution covers the same phases and sums to 100%.
  ASSERT_EQ(report.deterministic_phases.size(), 5u);
  double det_sum = 0.0;
  for (const CpDeterministicPhase& p : report.deterministic_phases) {
    det_sum += p.percent;
  }
  EXPECT_NEAR(det_sum, 100.0, 1e-9);
}

TEST(AnalyzeCriticalPathTest, IsDeterministicAcrossCalls) {
  const CriticalPathReport a = AnalyzeCriticalPath(TwoJobPipeline());
  const CriticalPathReport b = AnalyzeCriticalPath(TwoJobPipeline());
  EXPECT_EQ(a.dag_signature, b.dag_signature);
  ASSERT_EQ(a.deterministic_phases.size(), b.deterministic_phases.size());
  for (size_t i = 0; i < a.deterministic_phases.size(); ++i) {
    EXPECT_EQ(a.deterministic_phases[i].phase,
              b.deterministic_phases[i].phase);
    EXPECT_EQ(a.deterministic_phases[i].records,
              b.deterministic_phases[i].records);
  }
}

TEST(AnalyzeCriticalPathTest, EmptyPipelineIsInvalid) {
  EXPECT_FALSE(AnalyzeCriticalPath({}).valid);
  mr::JobMetrics empty_job;
  empty_job.name = "empty";
  EXPECT_FALSE(AnalyzeCriticalPath({empty_job}).valid);
}

TEST(AnalyzeCriticalPathTest, RendersAttributionTable) {
  const std::string text = RenderCriticalPathText(
      AnalyzeCriticalPath(TwoJobPipeline()));
  EXPECT_NE(text.find("makespan"), std::string::npos);
  EXPECT_NE(text.find("ppd.select"), std::string::npos);
  EXPECT_NE(text.find("if free"), std::string::npos);
  EXPECT_NE(text.find("dag"), std::string::npos);
  // The invalid report renders a placeholder, not garbage.
  EXPECT_NE(RenderCriticalPathText(AnalyzeCriticalPath({}))
                .find("no jobs"),
            std::string::npos);
}

TEST(AnalyzeCriticalPathTest, RetriedTaskAttemptsSurfaceOnSteps) {
  // A retried map straggler: the critical path must carry its attempt
  // count so the doctor's straggler check can see the scar.
  std::vector<mr::JobMetrics> jobs(1);
  jobs[0].name = "mr-gpsrs";
  jobs[0].map_tasks = {Task(0.1, 10, 5),
                       Task(2.0, 10, 5, 0.0, /*attempts=*/3)};
  jobs[0].reduce_tasks = {Task(0.2, 10, 5, 0.05)};
  const CriticalPathReport report = AnalyzeCriticalPath(jobs);
  ASSERT_TRUE(report.valid);
  ASSERT_GE(report.steps.size(), 1u);
  EXPECT_EQ(report.steps[0].kind, "map");
  EXPECT_EQ(report.steps[0].task, 1);
  EXPECT_EQ(report.steps[0].attempts, 3);
}

TEST(AnalyzeCriticalPathTest, RetriesLeaveTheDeterministicPathUnchanged) {
  // Only the attempt that returns normally writes its TaskMetrics, so a
  // failed attempt must never reach the analyzer: a run that retried tasks
  // has the chaos-free run's DAG shape and record-count path.
  data::GeneratorConfig gen;
  gen.distribution = data::Distribution::kIndependent;
  gen.cardinality = 800;
  gen.dim = 3;
  gen.seed = 7;
  const Dataset data = std::move(data::Generate(gen)).value();
  SessionOptions options;
  QuerySpec query;
  query.algorithm = Algorithm::kMrGpmrs;
  options.engine.num_map_tasks = 3;
  options.engine.num_reducers = 3;
  options.engine.max_task_attempts = 4;
  options.ppd.max_candidate = 8;

  auto clean = SubmitOnce(data, options, query);
  ASSERT_TRUE(clean.ok()) << clean.status();
  const CriticalPathReport expected = AnalyzeCriticalPath(clean->jobs);
  ASSERT_TRUE(expected.valid);

  // Crashes fail attempts before the body and corruption fails reduce
  // attempts mid-body. The injection is a seed-keyed hash; sweep seeds
  // until a run finishes having retried at least one task.
  options.engine.chaos.crash_rate = 0.3;
  options.engine.chaos.corrupt_rate = 0.3;
  bool exercised = false;
  for (uint64_t seed = 1; seed <= 20 && !exercised; ++seed) {
    options.engine.chaos.seed = seed;
    auto chaotic = SubmitOnce(data, options, query);
    if (!chaotic.ok()) {
      continue;  // Some task failed all four attempts; try another seed.
    }
    int64_t retries = 0;
    for (const mr::JobMetrics& job : chaotic->jobs) {
      retries += job.counters.Get("mr.task_retries");
    }
    if (retries == 0) {
      continue;  // This seed failed nothing; try another.
    }
    exercised = true;
    EXPECT_EQ(chaotic->SkylineIds(), clean->SkylineIds());
    const CriticalPathReport report = AnalyzeCriticalPath(chaotic->jobs);
    ASSERT_TRUE(report.valid);
    EXPECT_EQ(report.dag_signature, expected.dag_signature)
        << "chaos seed " << seed;
    ASSERT_EQ(report.deterministic_phases.size(),
              expected.deterministic_phases.size());
    for (size_t i = 0; i < report.deterministic_phases.size(); ++i) {
      EXPECT_EQ(report.deterministic_phases[i].phase,
                expected.deterministic_phases[i].phase);
      EXPECT_EQ(report.deterministic_phases[i].records,
                expected.deterministic_phases[i].records);
    }
  }
  EXPECT_TRUE(exercised)
      << "no chaos seed in 1..20 produced a finished run with a retried "
         "task; loosen the sweep";
}

}  // namespace
}  // namespace skymr::obs

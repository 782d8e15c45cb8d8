#include "src/obs/critical_path.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/runner.h"
#include "src/data/generator.h"
#include "src/mapreduce/task_metrics.h"
#include "tests/serve/session_test_util.h"

namespace skymr::obs {
namespace {

using session_testing::SubmitOnce;

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

TEST(AnalyzeCriticalPathTest, EqualWeightsTakeTheLowestTaskAndEarliestStep) {
  // Every map and every reducer of job 0 ties, and job 1 adds nothing:
  // the path takes task 0 of each wave and ends at the earliest step of
  // greatest length, j0.red0, under both weightings.
  std::vector<mr::JobMetrics> jobs(2);
  jobs[0].name = "bitstring-generation";
  jobs[0].map_tasks = {Task(1.0, 1, 1), Task(1.0, 1, 1)};
  jobs[0].reduce_tasks = {Task(1.0, 1, 1, 0.5), Task(1.0, 1, 1, 0.5)};
  jobs[1].name = "mr-gpmrs";
  jobs[1].map_tasks = {Task(0.0, 0, 0), Task(0.0, 0, 0)};
  jobs[1].reduce_tasks = {Task(0.0, 0, 0), Task(0.0, 0, 0)};
  const CriticalPathReport report = AnalyzeCriticalPath(jobs);
  ASSERT_TRUE(report.valid);
  EXPECT_DOUBLE_EQ(report.makespan_seconds, 2.5);
  ASSERT_EQ(report.steps.size(), 3u);
  const std::vector<std::string> kinds = {"map", "shuffle", "reduce"};
  for (size_t i = 0; i < report.steps.size(); ++i) {
    EXPECT_EQ(report.steps[i].job, "bitstring-generation") << "step " << i;
    EXPECT_EQ(report.steps[i].kind, kinds[i]) << "step " << i;
    EXPECT_EQ(report.steps[i].task, 0) << "step " << i;
  }
  EXPECT_EQ(report.dag_signature,
            "jobs=2;j0=bitstring-generation:m2:r2;j1=mr-gpmrs:m2:r2;"
            "det=j0.map0>j0.shf0>j0.red0");
}

// ---------------------------------------------------------------------
// The formula against brute force: on small random pipelines, every
// chain that takes one map task and one reducer per job is enumerated.
// ---------------------------------------------------------------------

/// The paper phase of a wave, as AnalyzeCriticalPath documents it.
std::string PhaseOf(const mr::JobMetrics& job, const std::string& kind) {
  const bool bitstring = job.name == "bitstring-generation";
  if (kind == "shuffle") {
    return "shuffle";
  }
  if (kind == "map") {
    return bitstring ? "ppd.select" : "local-skyline";
  }
  return bitstring ? "bitstring.prune" : "merge";
}

/// A step's cost: seconds, or records under the deterministic weighting.
double StepWeight(const mr::JobMetrics& job, const std::string& kind,
                  size_t task, bool records) {
  const mr::TaskMetrics& t =
      kind == "map" ? job.map_tasks[task] : job.reduce_tasks[task];
  if (kind == "shuffle") {
    return records ? static_cast<double>(t.input_records) : t.shuffle_seconds;
  }
  return records ? static_cast<double>(t.input_records + t.output_records)
                 : t.busy_seconds;
}

/// The longest of all chains through jobs[j..], enumerated one by one: a
/// chain takes one map task and one reducer (its shuffle, then its
/// reduce) of each job, skipping empty waves. `prefix` is the length of
/// the chain so far; steps of `free_phase` cost nothing.
double LongestChain(const std::vector<mr::JobMetrics>& jobs, size_t j,
                    double prefix, bool records,
                    const std::string& free_phase) {
  if (j == jobs.size()) {
    return prefix;
  }
  const mr::JobMetrics& job = jobs[j];
  const auto cost = [&](const std::string& kind, size_t task) {
    return PhaseOf(job, kind) == free_phase
               ? 0.0
               : StepWeight(job, kind, task, records);
  };
  double best = 0.0;
  for (size_t m = 0; m < std::max<size_t>(job.map_tasks.size(), 1); ++m) {
    for (size_t r = 0; r < std::max<size_t>(job.reduce_tasks.size(), 1);
         ++r) {
      double length = prefix;
      if (!job.map_tasks.empty()) {
        length += cost("map", m);
      }
      if (!job.reduce_tasks.empty()) {
        length += cost("shuffle", r);
        length += cost("reduce", r);
      }
      best = std::max(
          best, LongestChain(jobs, j + 1, length, records, free_phase));
    }
  }
  return best;
}

/// One step named by job index, kind and task.
struct ChainStep {
  size_t job;
  std::string kind;
  size_t task;
};

/// True when `steps` is a prefix of some chain: in job order, a map task
/// of each job that has any, then a reducer's shuffle and that reducer's
/// reduce task of each job that has any, stopping anywhere.
bool IsChainPrefix(const std::vector<mr::JobMetrics>& jobs,
                   const std::vector<ChainStep>& steps) {
  size_t i = 0;
  for (size_t j = 0; j < jobs.size() && i < steps.size(); ++j) {
    const auto is = [&](const std::string& kind, size_t bound) {
      return steps[i].job == j && steps[i].kind == kind &&
             steps[i].task < bound;
    };
    const size_t maps = jobs[j].map_tasks.size();
    const size_t reducers = jobs[j].reduce_tasks.size();
    if (maps > 0) {
      if (!is("map", maps)) {
        return false;
      }
      ++i;
    }
    if (reducers > 0 && i < steps.size()) {
      if (!is("shuffle", reducers)) {
        return false;
      }
      const size_t reducer = steps[i++].task;
      if (i < steps.size()) {
        if (!is("reduce", reducers) || steps[i].task != reducer) {
          return false;
        }
        ++i;
      }
    }
  }
  return i == steps.size();
}

/// The deterministic path, parsed from the signature's "det=" part
/// ("j0.map1>j0.shf0>j0.red0").
std::vector<ChainStep> DeterministicChain(const std::string& signature) {
  std::vector<ChainStep> chain;
  std::istringstream det(signature.substr(signature.find(";det=") + 5));
  std::string token;
  while (std::getline(det, token, '>')) {
    const size_t dot = token.find('.');
    const std::string tag = token.substr(dot + 1, 3);
    chain.push_back(ChainStep{
        std::stoul(token.substr(1, dot - 1)),
        tag == "map" ? "map" : tag == "shf" ? "shuffle" : "reduce",
        std::stoul(token.substr(dot + 4))});
  }
  return chain;
}

/// 1-3 jobs with distinct names (so a wall step's job name identifies
/// its job), 0-3 tasks per wave, coarse weights so ties, zero weights
/// and idle tasks are common, and always one job without reducers.
std::vector<mr::JobMetrics> RandomPipeline(Rng* rng) {
  std::vector<std::string> names = {"bitstring-generation", "mr-gpmrs",
                                    "mr-gpsrs"};
  const auto seconds = [rng] {
    return 0.5 * static_cast<double>(rng->NextBounded(4));
  };
  const auto records = [rng] { return rng->NextBounded(3); };
  std::vector<mr::JobMetrics> jobs(1 + rng->NextBounded(3));
  for (mr::JobMetrics& job : jobs) {
    const size_t pick = rng->NextBounded(names.size());
    job.name = names[pick];
    names.erase(names.begin() + static_cast<std::ptrdiff_t>(pick));
    job.map_tasks.resize(rng->NextBounded(4));
    job.reduce_tasks.resize(rng->NextBounded(4));
    for (mr::TaskMetrics& t : job.map_tasks) {
      t = Task(seconds(), records(), records());
    }
    for (mr::TaskMetrics& t : job.reduce_tasks) {
      t = Task(seconds(), records(), records(), seconds());
    }
  }
  jobs[rng->NextBounded(jobs.size())].reduce_tasks.clear();
  return jobs;
}

TEST(AnalyzeCriticalPathTest, MatchesBruteForceOverEveryChain) {
  Rng rng(2411);
  int analyzed = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::vector<mr::JobMetrics> jobs = RandomPipeline(&rng);
    const CriticalPathReport report = AnalyzeCriticalPath(jobs);
    bool any_task = false;
    for (const mr::JobMetrics& job : jobs) {
      any_task |= !job.map_tasks.empty() || !job.reduce_tasks.empty();
    }
    ASSERT_EQ(report.valid, any_task) << "trial " << trial;
    if (!report.valid) {
      continue;
    }
    ++analyzed;

    // Wall weighting: the makespan is the longest chain, and the path is
    // a chain of exactly that length.
    const double longest = LongestChain(jobs, 0, 0.0, false, "");
    ASSERT_DOUBLE_EQ(report.makespan_seconds, longest) << "trial " << trial;
    std::vector<ChainStep> wall;
    for (const CpStep& step : report.steps) {
      size_t j = 0;
      while (jobs[j].name != step.job) {
        ++j;
      }
      wall.push_back(ChainStep{j, step.kind, static_cast<size_t>(step.task)});
    }
    ASSERT_TRUE(IsChainPrefix(jobs, wall)) << "trial " << trial;
    double path_seconds = 0.0;
    for (size_t i = 0; i < wall.size(); ++i) {
      const double weight =
          StepWeight(jobs[wall[i].job], wall[i].kind, wall[i].task, false);
      EXPECT_EQ(report.steps[i].seconds, weight) << "trial " << trial;
      path_seconds += weight;
    }
    EXPECT_DOUBLE_EQ(path_seconds, longest) << "trial " << trial;

    // What-if: each phase freed is the longest chain with it zeroed.
    for (const CpPhase& p : report.phases) {
      if (longest <= 0.0) {
        EXPECT_EQ(p.what_if_free_percent, 0.0);
        continue;
      }
      const double freed = LongestChain(jobs, 0, 0.0, false, p.phase);
      EXPECT_NEAR(p.what_if_free_percent,
                  100.0 * (longest - freed) / longest, 1e-9)
          << "trial " << trial << " phase " << p.phase;
    }

    // Record weighting: the signature's path is a chain of the longest
    // record length, and the deterministic phases partition it.
    const double longest_records = LongestChain(jobs, 0, 0.0, true, "");
    const std::vector<ChainStep> det = DeterministicChain(report.dag_signature);
    ASSERT_TRUE(IsChainPrefix(jobs, det))
        << "trial " << trial << ": " << report.dag_signature;
    double det_records = 0.0;
    for (const ChainStep& step : det) {
      det_records += StepWeight(jobs[step.job], step.kind, step.task, true);
    }
    EXPECT_EQ(det_records, longest_records) << report.dag_signature;
    uint64_t phase_records = 0;
    for (const CpDeterministicPhase& p : report.deterministic_phases) {
      phase_records += p.records;
    }
    EXPECT_EQ(static_cast<double>(phase_records), longest_records);
  }
  EXPECT_GT(analyzed, 1500);
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

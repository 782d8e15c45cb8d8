#include "src/obs/bench_artifact.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/obs/json.h"
#include "src/obs/trace.h"
#include "src/relation/dominance_kernel.h"

// Build facts are injected by CMake onto this translation unit only (see
// src/CMakeLists.txt); fall back to "unknown" for out-of-tree builds.
#ifndef SKYMR_GIT_SHA
#define SKYMR_GIT_SHA "unknown"
#endif
#ifndef SKYMR_BUILD_TYPE
#define SKYMR_BUILD_TYPE "unknown"
#endif
#ifndef SKYMR_CXX_FLAGS
#define SKYMR_CXX_FLAGS ""
#endif

namespace skymr::obs {
namespace {

double MedianOfSorted(const std::vector<double>& sorted) {
  const size_t n = sorted.size();
  if (n == 0) {
    return 0.0;
  }
  return n % 2 == 1 ? sorted[n / 2]
                    : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

std::string EnvOrEmpty(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr ? std::string() : std::string(value);
}

std::string HostCpuName() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') {
          ++begin;
        }
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

void WriteWallStats(const WallStats& wall, JsonWriter* w) {
  w->BeginObject();
  w->Key("reps");
  w->Int(wall.reps);
  w->Key("median_seconds");
  w->Double(wall.median_seconds);
  w->Key("mad_seconds");
  w->Double(wall.mad_seconds);
  w->Key("cv");
  w->Double(wall.cv);
  w->Key("min_seconds");
  w->Double(wall.min_seconds);
  w->Key("max_seconds");
  w->Double(wall.max_seconds);
  w->Key("mean_seconds");
  w->Double(wall.mean_seconds);
  w->EndObject();
}

}  // namespace

WallStats WallStats::FromSamples(std::vector<double> samples) {
  WallStats out;
  out.reps = static_cast<int>(samples.size());
  if (samples.empty()) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  out.min_seconds = samples.front();
  out.max_seconds = samples.back();
  out.median_seconds = MedianOfSorted(samples);
  double sum = 0.0;
  for (const double s : samples) {
    sum += s;
  }
  out.mean_seconds = sum / static_cast<double>(samples.size());
  std::vector<double> deviations;
  deviations.reserve(samples.size());
  double variance = 0.0;
  for (const double s : samples) {
    deviations.push_back(std::fabs(s - out.median_seconds));
    variance += (s - out.mean_seconds) * (s - out.mean_seconds);
  }
  variance /= static_cast<double>(samples.size());
  std::sort(deviations.begin(), deviations.end());
  out.mad_seconds = MedianOfSorted(deviations);
  out.cv = out.mean_seconds > 0.0 ? std::sqrt(variance) / out.mean_seconds
                                  : 0.0;
  return out;
}

BenchEnvironment CaptureBenchEnvironment() {
  BenchEnvironment env;
  env.git_sha = SKYMR_GIT_SHA;
  env.compiler = __VERSION__;
  env.build_type = SKYMR_BUILD_TYPE;
  env.cxx_flags = SKYMR_CXX_FLAGS;
  env.cpu = HostCpuName();
  env.kernel_backend = DominanceKernelBackend();
  env.tracing_compiled = TracingCompiledIn();
  env.threads = ThreadPool::DefaultThreads();
  env.scale_env = EnvOrEmpty("SKYMR_SCALE");
  env.full_env = EnvOrEmpty("SKYMR_FULL");
  env.reps = BenchRepsFromEnv();
  return env;
}

int BenchRepsFromEnv() {
  const char* env = std::getenv("SKYMR_BENCH_REPS");
  if (env == nullptr) {
    return 1;
  }
  const long reps = std::strtol(env, nullptr, 10);
  return static_cast<int>(std::clamp(reps, 1L, 100L));
}

namespace {

// Counters that are never bit-identical across runs: the cache hit/miss
// split depends on thread scheduling. Excluded from the gate
// unconditionally.
bool SchedulingDependentCounter(const std::string& name) {
  return name == "mr.cache_hits" || name == "mr.cache_misses";
}

// Counters that are deterministic ONLY for a fixed ChaosSchedule seed:
// retry counts, injected-fault totals, and backoff waits with their
// planned milliseconds (a seed-hashed delay per retried attempt, counted
// before the sleep, so never wall time). Included when the caller opts in
// (the chaos-smoke gate diffs two same-seed runs), excluded otherwise so
// a chaos-free baseline never grows fault-injection keys.
bool FaultInjectionCounter(const std::string& name) {
  return name == "mr.task_retries" || name == "mr.backoff_waits" ||
         name == "mr.backoff_total_ms" || name == "mr.degraded_to_gpsrs" ||
         name.rfind("mr.chaos_", 0) == 0;
}

}  // namespace

std::map<std::string, int64_t> DeterministicCounters(
    const SkylineResult& result, uint64_t input_tuples,
    bool include_fault_injection) {
  std::map<std::string, int64_t> det;
  det["input_tuples"] = static_cast<int64_t>(input_tuples);
  det["skyline_size"] = static_cast<int64_t>(result.skyline.size());
  det["ppd"] = static_cast<int64_t>(result.ppd);
  det["nonempty_partitions"] =
      static_cast<int64_t>(result.nonempty_partitions);
  det["pruned_partitions"] = static_cast<int64_t>(result.pruned_partitions);
  det["jobs"] = static_cast<int64_t>(result.jobs.size());
  uint64_t shuffle = 0;
  for (const mr::JobMetrics& job : result.jobs) {
    shuffle += job.shuffle_bytes;
    for (const auto& [name, value] : job.counters.values()) {
      if (SchedulingDependentCounter(name)) {
        continue;
      }
      if (!include_fault_injection && FaultInjectionCounter(name)) {
        continue;
      }
      det[name] += value;
    }
  }
  det["shuffle_bytes"] = static_cast<int64_t>(shuffle);
  return det;
}

BenchArtifact::BenchArtifact(std::string bench_name)
    : bench_name_(std::move(bench_name)),
      environment_(CaptureBenchEnvironment()) {}

void BenchArtifact::Write(std::ostream& os) const {
  JsonWriter w(os);
  w.BeginObject();
  w.Key("schema");
  w.String(kBenchSchemaVersion);
  w.Key("bench");
  w.String(bench_name_);
  w.Key("environment");
  w.BeginObject();
  w.Key("git_sha");
  w.String(environment_.git_sha);
  w.Key("compiler");
  w.String(environment_.compiler);
  w.Key("build_type");
  w.String(environment_.build_type);
  w.Key("cxx_flags");
  w.String(environment_.cxx_flags);
  w.Key("cpu");
  w.String(environment_.cpu);
  w.Key("kernel_backend");
  w.String(environment_.kernel_backend);
  w.Key("tracing_compiled");
  w.Bool(environment_.tracing_compiled);
  w.Key("threads");
  w.Int(environment_.threads);
  w.Key("scale_env");
  w.String(environment_.scale_env);
  w.Key("full_env");
  w.String(environment_.full_env);
  w.Key("reps");
  w.Int(environment_.reps);
  w.EndObject();
  w.Key("rows");
  w.BeginArray();
  for (const BenchRow& row : rows_) {
    w.BeginObject();
    w.Key("name");
    w.String(row.name);
    w.Key("wall");
    WriteWallStats(row.wall, &w);
    w.Key("metrics");
    w.BeginObject();
    for (const auto& [name, value] : row.metrics) {
      w.Key(name);
      w.Double(value);
    }
    w.EndObject();
    w.Key("deterministic");
    w.BeginObject();
    for (const auto& [name, value] : row.deterministic) {
      w.Key(name);
      w.Int(value);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << '\n';
}

Status BenchArtifact::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open bench artifact output: " + path);
  }
  Write(out);
  out.flush();
  if (!out) {
    return Status::IoError("failed writing bench artifact: " + path);
  }
  return Status::OK();
}

}  // namespace skymr::obs

#include "src/obs/job_report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/cost/cost_model.h"
#include "src/obs/critical_path.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"

namespace skymr::obs {
namespace {

void WriteTaskJson(const mr::TaskMetrics& task, bool is_reduce,
                   JsonWriter* w) {
  w->BeginObject();
  w->Key("busy_seconds");
  w->Double(task.busy_seconds);
  w->Key("attempts");
  w->Int(task.attempts);
  w->Key("input_records");
  w->Uint(task.input_records);
  w->Key("output_records");
  w->Uint(task.output_records);
  w->Key("output_bytes");
  w->Uint(task.output_bytes);
  if (is_reduce) {
    w->Key("input_bytes");
    w->Uint(task.input_bytes);
    w->Key("shuffle_seconds");
    w->Double(task.shuffle_seconds);
  }
  w->EndObject();
}

void WriteCriticalPathJson(const CriticalPathReport& cp, JsonWriter* w) {
  w->BeginObject();
  w->Key("makespan_seconds");
  w->Double(cp.makespan_seconds);
  w->Key("phases");
  w->BeginArray();
  for (const CpPhase& p : cp.phases) {
    w->BeginObject();
    w->Key("phase");
    w->String(p.phase);
    w->Key("seconds");
    w->Double(p.seconds);
    w->Key("percent");
    w->Double(p.percent);
    w->Key("what_if_free_percent");
    w->Double(p.what_if_free_percent);
    w->EndObject();
  }
  w->EndArray();
  w->Key("path");
  w->BeginArray();
  for (const CpStep& s : cp.steps) {
    w->BeginObject();
    w->Key("job");
    w->String(s.job);
    w->Key("kind");
    w->String(s.kind);
    w->Key("phase");
    w->String(s.phase);
    w->Key("task");
    w->Int(s.task);
    w->Key("attempts");
    w->Int(s.attempts);
    w->Key("seconds");
    w->Double(s.seconds);
    w->Key("wave_median_seconds");
    w->Double(s.wave_median_seconds);
    w->EndObject();
  }
  w->EndArray();
  // Seed-stable sub-block: CI's determinism gate compares exactly this
  // object across two same-seed runs.
  w->Key("deterministic");
  w->BeginObject();
  w->Key("dag_signature");
  w->String(cp.dag_signature);
  w->Key("phases");
  w->BeginArray();
  for (const CpDeterministicPhase& p : cp.deterministic_phases) {
    w->BeginObject();
    w->Key("phase");
    w->String(p.phase);
    w->Key("records");
    w->Uint(p.records);
    w->Key("percent");
    w->Double(p.percent);
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
  w->EndObject();
}

void WriteJobMetricsJson(const mr::JobMetrics& job, JsonWriter* w) {
  w->BeginObject();
  w->Key("name");
  w->String(job.name);
  w->Key("wall_seconds");
  w->Double(job.wall_seconds);
  w->Key("shuffle_bytes");
  w->Uint(job.shuffle_bytes);
  w->Key("task_retries");
  w->Int(job.counters.Get("mr.task_retries"));
  w->Key("cache_hits");
  w->Int(job.counters.Get("mr.cache_hits"));
  w->Key("cache_misses");
  w->Int(job.counters.Get("mr.cache_misses"));
  w->Key("counters");
  w->BeginObject();
  for (const auto& [name, value] : job.counters.values()) {
    w->Key(name);
    w->Int(value);
  }
  w->EndObject();
  w->Key("sketches");
  w->BeginObject();
  for (const auto& [name, sketch] : job.sketches) {
    w->Key(name);
    WriteSketchJson(sketch, w);
  }
  w->EndObject();
  const WaveStats map =
      SummarizeWave(job.map_tasks, &mr::TaskMetrics::busy_seconds);
  const WaveStats reduce =
      SummarizeWave(job.reduce_tasks, &mr::TaskMetrics::busy_seconds);
  w->Key("skew");
  w->BeginObject();
  w->Key("max_map_busy_seconds");
  w->Double(map.max);
  w->Key("median_map_busy_seconds");
  w->Double(map.median);
  w->Key("max_reduce_busy_seconds");
  w->Double(reduce.max);
  w->Key("median_reduce_busy_seconds");
  w->Double(reduce.median);
  w->EndObject();
  w->Key("map_tasks");
  w->BeginArray();
  for (const mr::TaskMetrics& task : job.map_tasks) {
    WriteTaskJson(task, /*is_reduce=*/false, w);
  }
  w->EndArray();
  w->Key("reduce_tasks");
  w->BeginArray();
  for (const mr::TaskMetrics& task : job.reduce_tasks) {
    WriteTaskJson(task, /*is_reduce=*/true, w);
  }
  w->EndArray();
  w->EndObject();
}

/// The grid pipeline's skyline job is the last one (the bitstring job runs
/// first); baselines run a single job. Null when there are no jobs.
const mr::JobMetrics* SkylineJobOf(const SkylineResult& result) {
  return result.jobs.empty() ? nullptr : &result.jobs.back();
}

/// Input cardinality of the pipeline: the largest per-job map input
/// (jobs after the first may read a reduced dataset, the first job reads
/// the full input).
uint64_t InputTuplesOf(const SkylineResult& result) {
  uint64_t best = 0;
  for (const mr::JobMetrics& job : result.jobs) {
    uint64_t records = 0;
    for (const mr::TaskMetrics& t : job.map_tasks) {
      records += t.input_records;
    }
    best = std::max(best, records);
  }
  return best;
}

std::string HumanBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= 1024ull * 1024ull) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  } else if (bytes >= 1024ull) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace

void WriteJobReport(const SkylineResult& result, std::ostream& os) {
  JsonWriter w(os);
  w.BeginObject();
  w.Key("schema");
  w.String(kReportSchemaVersion);
  w.Key("algorithm");
  w.String(AlgorithmName(result.algorithm_used));
  w.Key("wall_seconds");
  w.Double(result.wall_seconds);
  w.Key("modeled_seconds");
  w.Double(result.modeled_seconds);
  w.Key("modeled_compute_seconds");
  w.Double(result.modeled_compute_seconds);
  w.Key("skyline_size");
  w.Uint(result.skyline.size());
  w.Key("dim");
  w.Uint(result.skyline.dim());
  w.Key("input_tuples");
  w.Uint(InputTuplesOf(result));
  w.Key("ppd");
  w.Uint(result.ppd);
  if (result.ppd > 0) {
    w.Key("ppd_rule");
    w.String(result.ppd_rule);
  }
  w.Key("nonempty_partitions");
  w.Uint(result.nonempty_partitions);
  w.Key("pruned_partitions");
  w.Uint(result.pruned_partitions);
  w.Key("degraded");
  w.Bool(result.degraded);
  w.Key("resumed_from_checkpoint");
  w.Bool(result.resumed_from_checkpoint);
  w.Key("jobs");
  w.BeginArray();
  for (const mr::JobMetrics& job : result.jobs) {
    WriteJobMetricsJson(job, &w);
  }
  w.EndArray();
  const mr::JobMetrics* skyline_job = SkylineJobOf(result);
  if (result.ppd > 0 && skyline_job != nullptr) {
    const size_t dim = result.skyline.dim();
    w.Key("cost_model");
    w.BeginObject();
    w.Key("ppd");
    w.Uint(result.ppd);
    w.Key("dim");
    w.Uint(dim);
    w.Key("predicted_mapper_comparisons");
    w.Double(cost::MapperCost(result.ppd, dim));
    w.Key("observed_max_mapper_comparisons");
    w.Int(skyline_job->MaxMapCounter(mr::kCounterPartitionComparisons));
    w.Key("predicted_reducer_comparisons");
    w.Double(cost::ReducerCost(result.ppd, dim));
    w.Key("observed_max_reducer_comparisons");
    w.Int(skyline_job->MaxReduceCounter(mr::kCounterPartitionComparisons));
    w.EndObject();
  }
  if (const CriticalPathReport cp = AnalyzeCriticalPath(result.jobs);
      cp.valid) {
    w.Key("critical_path");
    WriteCriticalPathJson(cp, &w);
  }
  w.EndObject();
  os << '\n';
}

Status WriteJobReportFile(const SkylineResult& result,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open report output: " + path);
  }
  WriteJobReport(result, out);
  out.flush();
  if (!out) {
    return Status::IoError("failed writing report: " + path);
  }
  return Status::OK();
}

std::string RenderStatsText(const SkylineResult& result) {
  std::ostringstream os;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "algorithm %s: skyline %zu tuples, %.3fs wall, %.3fs "
                "modeled\n",
                AlgorithmName(result.algorithm_used), result.skyline.size(),
                result.wall_seconds, result.modeled_seconds);
  os << buf;
  if (result.ppd > 0) {
    std::snprintf(buf, sizeof(buf),
                  "grid: ppd=%u (%s), %llu non-empty partitions, %llu "
                  "pruned\n",
                  result.ppd, result.ppd_rule.c_str(),
                  static_cast<unsigned long long>(result.nonempty_partitions),
                  static_cast<unsigned long long>(result.pruned_partitions));
    os << buf;
  }
  if (result.resumed_from_checkpoint) {
    os << "fault tolerance: bitstring phase resumed from checkpoint\n";
  }
  if (result.degraded) {
    os << "fault tolerance: GPMRS failed, degraded to single-reducer GPSRS "
          "merge\n";
  }
  for (const mr::JobMetrics& job : result.jobs) {
    std::snprintf(buf, sizeof(buf),
                  "job %s: %zu map / %zu reduce tasks, %.3fs wall, shuffle "
                  "%s\n",
                  job.name.c_str(), job.map_tasks.size(),
                  job.reduce_tasks.size(), job.wall_seconds,
                  HumanBytes(job.shuffle_bytes).c_str());
    os << buf;
    const WaveStats map =
        SummarizeWave(job.map_tasks, &mr::TaskMetrics::busy_seconds);
    const WaveStats reduce =
        SummarizeWave(job.reduce_tasks, &mr::TaskMetrics::busy_seconds);
    std::snprintf(buf, sizeof(buf),
                  "  map busy max/median: %.4fs / %.4fs    reduce busy "
                  "max/median: %.4fs / %.4fs\n",
                  map.max, map.median, reduce.max, reduce.median);
    os << buf;
    std::snprintf(
        buf, sizeof(buf),
        "  retries: %lld    cache hits/misses: %lld/%lld\n",
        static_cast<long long>(job.counters.Get("mr.task_retries")),
        static_cast<long long>(job.counters.Get("mr.cache_hits")),
        static_cast<long long>(job.counters.Get("mr.cache_misses")));
    os << buf;
    const int64_t backoff_waits = job.counters.Get("mr.backoff_waits");
    if (backoff_waits > 0) {
      std::snprintf(buf, sizeof(buf), "  backoff waits: %lld\n",
                    static_cast<long long>(backoff_waits));
      os << buf;
    }
    const int64_t chaos_injected =
        job.counters.Get("mr.chaos_crashes_injected") +
        job.counters.Get("mr.chaos_slow_injected") +
        job.counters.Get("mr.chaos_corruptions_injected") +
        job.counters.Get("mr.chaos_cache_faults_injected");
    if (chaos_injected > 0) {
      std::snprintf(
          buf, sizeof(buf),
          "  chaos injected: %lld crashes, %lld slowdowns, %lld "
          "corruptions, %lld cache faults\n",
          static_cast<long long>(
              job.counters.Get("mr.chaos_crashes_injected")),
          static_cast<long long>(job.counters.Get("mr.chaos_slow_injected")),
          static_cast<long long>(
              job.counters.Get("mr.chaos_corruptions_injected")),
          static_cast<long long>(
              job.counters.Get("mr.chaos_cache_faults_injected")));
      os << buf;
    }
    for (const auto& [name, sketch] : job.sketches) {
      std::snprintf(buf, sizeof(buf),
                    "  %s: count=%llu sum=%.15g min=%.15g p50=%.4g "
                    "p95=%.4g p99=%.4g max=%.15g\n",
                    name.c_str(),
                    static_cast<unsigned long long>(sketch.count()),
                    sketch.sum(), sketch.min(), sketch.Quantile(0.50),
                    sketch.Quantile(0.95), sketch.Quantile(0.99),
                    sketch.max());
      os << buf;
    }
  }
  const mr::JobMetrics* skyline_job = SkylineJobOf(result);
  if (result.ppd > 0 && skyline_job != nullptr) {
    const size_t dim = result.skyline.dim();
    std::snprintf(
        buf, sizeof(buf),
        "cost model (partition comparisons, observed vs predicted):\n"
        "  mapper:  observed max %lld, predicted %.6g\n"
        "  reducer: observed max %lld, predicted %.6g\n",
        static_cast<long long>(
            skyline_job->MaxMapCounter(mr::kCounterPartitionComparisons)),
        cost::MapperCost(result.ppd, dim),
        static_cast<long long>(
            skyline_job->MaxReduceCounter(mr::kCounterPartitionComparisons)),
        cost::ReducerCost(result.ppd, dim));
    os << buf;
  }
  return os.str();
}

}  // namespace skymr::obs

// skymr_cli: command-line front end for the library.
//
//   skymr_cli generate --dist=anti-correlated --card=100000 --dim=4
//             --seed=7 --out=data.csv
//   skymr_cli skyline  --in=data.csv [--header] [--algorithm=mr-gpmrs]
//             [--local-algorithm=bnl] [--mappers=13] [--reducers=13]
//             [--ppd=0] [--data-bounds] [--constraint=lo:hi,lo:hi,...]
//             [--out=skyline.csv] [--verify] [--checkpoint=FILE]
//             [--chaos-profile=NAME] [--chaos-seed=S] [--attempts=N]
//             [--trace-out=trace.json] [--metrics-out=metrics.json]
//             [--report-out=report.json] [--bench-out=FILE]
//   skymr_cli stats    --in=data.csv [skyline's flags except --out,
//             --verify and --checkpoint] [--critical-path]
//   skymr_cli compare  --in=data.csv [--header] [--mappers] [--reducers]
//             [--chaos-profile=NAME] [--chaos-seed=S] [--attempts=N]
//             [--trace-out=FILE] [--metrics-out=FILE]
//   skymr_cli serve    --in=data.csv [--qps=40] [--queries=48] [--slots=3]
//             [--small-reserved=1] [--warmup] [--out=load.json] ...
//   skymr_cli doctor   [--report=report.json] [--load=load.json]
//             [--fail-on=warning|critical]
//
// Each command accepts only the flags it reads (Commands() below): an
// unknown flag, a switch given a value, or a malformed number prints
// usage and exits 2, so a misspelt flag never runs a default.
//
// `generate` writes a synthetic dataset as CSV; `skyline` computes a
// (possibly constrained) skyline of a CSV dataset and prints metrics;
// `stats` runs the same pipeline and prints per-task skew,
// retries, sketches, and the cost-model comparison — `--critical-path`
// appends the obs/critical_path.h phase-attribution table (which paper
// phase bounds the makespan, with what-if slack per phase); `compare`
// runs all algorithms on the same input and prints a table; `serve`
// keeps the dataset resident behind a serve/session.h Session and
// drives it with the open-loop loadgen mix (cross-query bitstring cache
// + two-lane admission), writing a skymr-bench-v1 artifact; `doctor`
// analyzes a previously written skymr-report-v2 document or load
// artifact and prints severity-ranked findings (task skew,
// PPD-selection quality, cost-model deviation, pruning effectiveness,
// retry storms, degradation, load-tail and cache signals).
// `--metrics-out` attaches a metrics registry to every job the command
// runs and writes its skymr-metrics-v2 snapshot: per-job wall, task
// busy-time and shuffle-bucket distributions across all of them.
// `--trace-out` writes Chrome trace-event JSON (open in Perfetto /
// chrome://tracing); `--report-out` writes the skymr-report-v2 JSON
// document.
//
// Fault-tolerance flags: `--chaos-profile` picks a named deterministic
// fault-injection schedule (`--chaos-seed` reseeds it; same seed = same
// faults = bit-identical skyline), `--attempts` bounds per-task attempts,
// `--checkpoint=FILE` loads a bitstring-phase checkpoint before the run
// and saves it after, and `--bench-out=FILE` writes a skymr-bench-v1
// artifact whose deterministic counters include the fault-injection
// signal when chaos is enabled (two same-seed runs must produce identical
// artifacts, and tools/bench_diff.py gates them against the committed
// chaos baselines).

#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "bench/loadgen/loadgen.h"
#include "src/obs/bench_artifact.h"
#include "src/skymr.h"
#include "tools/flags.h"

namespace {

using skymr::tools::FlagKind;
using skymr::tools::Flags;
using skymr::tools::FlagSpec;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  skymr_cli generate --dist=<independent|correlated|"
      "anti-correlated|clustered>\n"
      "            --card=N --dim=D [--seed=S] --out=FILE\n"
      "  skymr_cli skyline --in=FILE [--header] [--algorithm=NAME]\n"
      "            [--local-algorithm=bnl|sfs|bbs|auto]\n"
      "            [--mappers=M] [--reducers=R] [--ppd=N] [--data-bounds]\n"
      "            [--constraint=lo:hi,lo:hi,...] [--out=FILE] [--verify]\n"
      "            [--checkpoint=FILE]\n"
      "            [--chaos-profile=NAME] [--chaos-seed=S] [--attempts=N]\n"
      "            [--trace-out=FILE] [--metrics-out=FILE]\n"
      "            [--report-out=FILE] [--bench-out=FILE]\n"
      "  skymr_cli stats   --in=FILE [skyline's flags except --out,\n"
      "            --verify and --checkpoint] [--critical-path]\n"
      "  skymr_cli compare --in=FILE [--header] [--mappers=M] "
      "[--reducers=R]\n"
      "            [--chaos-profile=NAME] [--chaos-seed=S] [--attempts=N]\n"
      "            [--trace-out=FILE] [--metrics-out=FILE]\n"
      "  skymr_cli serve   --in=FILE [--header] [--seed=S] [--qps=Q]\n"
      "            [--queries=N] [--slots=K] [--small-reserved=K]\n"
      "            [--threads=T] [--deadline-ms=D] [--warmup]\n"
      "            [--mappers=M] [--reducers=R] [--out=load.json]\n"
      "            [--chaos-profile=NAME] [--chaos-seed=S] [--attempts=N]\n"
      "            [--trace-out=FILE] [--metrics-out=FILE]\n"
      "  skymr_cli doctor  [--report=FILE] [--load=FILE]\n"
      "            [--fail-on=warning|critical]\n"
      "an unknown flag or a malformed number exits 2\n"
      "algorithms: mr-gpsrs mr-gpmrs mr-bnl mr-angle hybrid sky-mr\n"
      "local algorithms (mapper kernel): bnl sfs bbs auto\n"
      "chaos profiles: %s\n",
      [] {
        std::string names;
        for (const std::string& name : skymr::mr::ChaosProfileNames()) {
          if (!names.empty()) {
            names += ' ';
          }
          names += name;
        }
        return names;
      }()
          .c_str());
  return 2;
}

bool ParseConstraint(const std::string& text, size_t dim, skymr::Box* box) {
  box->lo.clear();
  box->hi.clear();
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t comma = text.find(',', pos);
    const std::string part =
        text.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    const size_t colon = part.find(':');
    if (colon == std::string::npos) {
      return false;
    }
    double lo = 0.0;
    double hi = 0.0;
    if (!skymr::tools::ParseFiniteDouble(part.substr(0, colon), &lo) ||
        !skymr::tools::ParseFiniteDouble(part.substr(colon + 1), &hi)) {
      return false;
    }
    box->lo.push_back(lo);
    box->hi.push_back(hi);
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return box->lo.size() == dim;
}

int RunGenerate(const Flags& args) {
  auto dist = skymr::data::ParseDistribution(
      args.GetString("dist", "independent"));
  if (!dist.ok()) {
    std::fprintf(stderr, "%s\n", dist.status().ToString().c_str());
    return 1;
  }
  skymr::data::GeneratorConfig config;
  config.distribution = dist.value();
  config.cardinality = static_cast<size_t>(args.GetInt("card", 10000));
  config.dim = static_cast<size_t>(args.GetInt("dim", 3));
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const std::string out = args.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate requires --out=FILE\n");
    return 2;
  }
  auto data = skymr::data::Generate(config);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  if (auto s = skymr::data::SaveCsv(*data, out); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu x %zu %s tuples to %s\n", data->size(),
              data->dim(), skymr::data::DistributionName(config.distribution),
              out.c_str());
  return 0;
}

skymr::StatusOr<skymr::Dataset> LoadInput(const Flags& args) {
  const std::string in = args.GetString("in", "");
  if (in.empty()) {
    return skymr::Status::InvalidArgument("missing --in=FILE");
  }
  return skymr::data::LoadCsv(in, args.Has("header"));
}

void PrintResultSummary(const skymr::Dataset& data,
                        const skymr::SkylineResult& result) {
  std::printf("algorithm: %s\n",
              skymr::AlgorithmName(result.algorithm_used));
  std::printf("skyline:   %zu of %zu tuples\n", result.skyline.size(),
              data.size());
  if (result.ppd > 0) {
    std::printf("grid:      PPD %u (%s), %llu non-empty partitions, %llu "
                "pruned\n",
                result.ppd, result.ppd_rule.c_str(),
                static_cast<unsigned long long>(result.nonempty_partitions),
                static_cast<unsigned long long>(result.pruned_partitions));
  }
  uint64_t shuffle = 0;
  for (const auto& job : result.jobs) {
    shuffle += job.shuffle_bytes;
  }
  std::printf("jobs:      %zu, shuffle %.1f KB\n", result.jobs.size(),
              static_cast<double>(shuffle) / 1024.0);
  std::printf("runtime:   %.3f s wall, %.1f s modeled (13-node cluster)\n",
              result.wall_seconds, result.modeled_seconds);
}

/// Applies the engine fault-tolerance flags (--chaos-profile, --chaos-seed,
/// --attempts) shared by `skyline`, `stats`, and `compare`.
/// Returns 0, or the exit code on a flag error.
int ApplyEngineFlags(const Flags& args, skymr::mr::EngineOptions* engine) {
  if (args.Has("chaos-profile")) {
    auto schedule =
        skymr::mr::ChaosProfile(args.GetString("chaos-profile", "none"));
    if (!schedule.ok()) {
      std::fprintf(stderr, "%s\n", schedule.status().ToString().c_str());
      return 2;
    }
    engine->chaos = schedule.value();
  }
  if (args.Has("chaos-seed")) {
    engine->chaos.seed = static_cast<uint64_t>(args.GetInt("chaos-seed", 0));
  }
  if (args.Has("attempts")) {
    engine->max_task_attempts = static_cast<int>(args.GetInt("attempts", 4));
  } else if (engine->chaos.enabled() && engine->max_task_attempts <= 1) {
    // A chaos schedule with a single-attempt budget fails the job on the
    // first injected crash; default to the Hadoop attempt budget.
    engine->max_task_attempts = 4;
  }
  return 0;
}

/// Builds the session options and query shared by `skyline` and
/// `stats` from flags. Returns 0, or the exit code on a flag error.
int BuildPipeline(const Flags& args, const skymr::Dataset& data,
                  skymr::SessionOptions* options, skymr::QuerySpec* query) {
  auto algorithm =
      skymr::ParseAlgorithm(args.GetString("algorithm", "mr-gpmrs"));
  if (!algorithm.ok()) {
    std::fprintf(stderr, "%s\n", algorithm.status().ToString().c_str());
    return 1;
  }
  query->algorithm = algorithm.value();
  auto local = skymr::core::ParseLocalAlgorithm(
      args.GetString("local-algorithm", "bnl"));
  if (!local.ok()) {
    std::fprintf(stderr, "%s\n", local.status().ToString().c_str());
    return 1;
  }
  query->local_algorithm = local.value();
  options->engine.num_map_tasks =
      static_cast<int>(args.GetInt("mappers", 13));
  options->engine.num_reducers =
      static_cast<int>(args.GetInt("reducers", 13));
  options->ppd.explicit_ppd = static_cast<uint32_t>(args.GetInt("ppd", 0));
  options->unit_bounds = !args.Has("data-bounds");
  if (const int code = ApplyEngineFlags(args, &options->engine); code != 0) {
    return code;
  }
  if (args.Has("constraint")) {
    skymr::Box box;
    if (!ParseConstraint(args.GetString("constraint", ""), data.dim(),
                         &box)) {
      std::fprintf(stderr,
                   "bad --constraint (need %zu lo:hi pairs, e.g. "
                   "0:0.5,0.2:1)\n",
                   data.dim());
      return 2;
    }
    query->constraint = box;
  }
  return 0;
}

/// The shared output-sink plumbing. Every pipeline subcommand
/// (`skyline`, `stats`, `compare`, `serve`) honors the same artifact
/// flags through this one helper instead of carrying its own copy of
/// the file-writing blocks:
///
///   --trace-out=FILE    Chrome trace-event JSON of the run
///   --report-out=FILE   skymr-report-v2 job report (needs a result)
///   --metrics-out=FILE  skymr-metrics-v2 snapshot of every job's totals
///   --bench-out=FILE    one-row skymr-bench-v1 artifact (needs a result)
///
/// Construct before the pipeline runs (arms tracing), call
/// StopCollecting() right after it, then one of the Write methods.
class OutputSinks {
 public:
  explicit OutputSinks(const Flags& args)
      : trace_out_(args.GetString("trace-out", "")),
        report_out_(args.GetString("report-out", "")),
        metrics_out_(args.GetString("metrics-out", "")),
        bench_out_(args.GetString("bench-out", "")) {
    if (!trace_out_.empty()) {
      skymr::obs::StartTracing();
    }
  }

  /// The registry to hook into the engine; null without --metrics-out
  /// so runs that don't ask pay nothing.
  skymr::obs::MetricsRegistry* metrics() {
    return metrics_out_.empty() ? nullptr : &metrics_;
  }

  /// Stops tracing; call once the pipeline is done and before any
  /// Write method.
  void StopCollecting() { skymr::obs::StopTracing(); }

  /// Writes the sinks that need no single result (--trace-out,
  /// --metrics-out) — all `compare` and `serve` can honor. Returns 0,
  /// or the exit code on an I/O error.
  int WriteRunSinks() {
    if (!trace_out_.empty()) {
      if (auto s = skymr::obs::WriteChromeTraceFile(trace_out_); !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("wrote %zu trace events to %s\n",
                  skymr::obs::CollectedEventCount(), trace_out_.c_str());
    }
    if (!metrics_out_.empty()) {
      if (auto s = metrics_.WriteJsonFile(metrics_out_); !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("wrote metrics snapshot to %s\n", metrics_out_.c_str());
    }
    return 0;
  }

  /// Writes the per-result sinks (--report-out, --bench-out) and then
  /// the run sinks. `bench_name` names the bench artifact document.
  int WriteResultSinks(const skymr::Dataset& data,
                       const skymr::SkylineResult& result,
                       bool include_fault_injection,
                       const char* bench_name) {
    if (!report_out_.empty()) {
      if (auto s = skymr::obs::WriteJobReportFile(result, report_out_);
          !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("wrote job report to %s\n", report_out_.c_str());
    }
    if (!bench_out_.empty()) {
      skymr::obs::BenchArtifact artifact(bench_name);
      skymr::obs::BenchRow row;
      row.name = skymr::AlgorithmName(result.algorithm_used);
      row.wall = skymr::obs::WallStats::FromSamples({result.wall_seconds});
      row.deterministic = skymr::obs::DeterministicCounters(
          result, data.size(), include_fault_injection);
      artifact.AddRow(std::move(row));
      if (auto s = artifact.WriteFile(bench_out_); !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("wrote bench artifact to %s\n", bench_out_.c_str());
    }
    return WriteRunSinks();
  }

 private:
  const std::string trace_out_;
  const std::string report_out_;
  const std::string metrics_out_;
  const std::string bench_out_;
  skymr::obs::MetricsRegistry metrics_;
};

int RunSkyline(const Flags& args) {
  auto data = LoadInput(args);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  skymr::SessionOptions options;
  skymr::QuerySpec query;
  if (const int code = BuildPipeline(args, *data, &options, &query);
      code != 0) {
    return code;
  }

  // Phase checkpointing: load previously saved bitstring-phase results
  // before the run (a fingerprint match skips the bitstring job), persist
  // them after so the next invocation can resume.
  skymr::core::PipelineCheckpoint checkpoint;
  const std::string checkpoint_path = args.GetString("checkpoint", "");
  if (!checkpoint_path.empty()) {
    if (auto s = checkpoint.LoadFile(checkpoint_path); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    options.checkpoint = &checkpoint;
  }

  OutputSinks sinks(args);
  options.engine.metrics = sinks.metrics();
  auto session = skymr::Session::Open(*data, options);
  if (!session.ok()) {
    sinks.StopCollecting();
    std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
    return 1;
  }
  auto result = (*session)->Submit(query);
  sinks.StopCollecting();
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  PrintResultSummary(*data, *result);
  if (result->resumed_from_checkpoint) {
    std::printf("resumed:   bitstring phase loaded from %s\n",
                checkpoint_path.c_str());
  }
  if (result->degraded) {
    std::printf("degraded:  MR-GPMRS failed; fell back to single-reducer "
                "MR-GPSRS merge\n");
  }
  if (!checkpoint_path.empty()) {
    if (auto s = checkpoint.SaveFile(checkpoint_path); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (const int code = sinks.WriteResultSinks(
          *data, *result,
          /*include_fault_injection=*/options.engine.chaos.enabled(),
          "skymr_cli_skyline");
      code != 0) {
    return code;
  }

  if (args.Has("verify") && !query.constraint.has_value()) {
    const std::string mismatch =
        skymr::ExplainSkylineMismatch(*data, result->SkylineIds());
    std::printf("verify:    %s\n",
                mismatch.empty() ? "EXACT" : mismatch.c_str());
    if (!mismatch.empty()) {
      return 1;
    }
  }

  const std::string out = args.GetString("out", "");
  if (!out.empty()) {
    skymr::Dataset skyline_data(data->dim());
    for (size_t i = 0; i < result->skyline.size(); ++i) {
      skyline_data.Append(std::span<const double>(
          result->skyline.RowAt(i), data->dim()));
    }
    if (auto s = skymr::data::SaveCsv(skyline_data, out); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote skyline to %s\n", out.c_str());
  }
  return 0;
}

int RunStats(const Flags& args) {
  auto data = LoadInput(args);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  skymr::SessionOptions options;
  skymr::QuerySpec query;
  if (const int code = BuildPipeline(args, *data, &options, &query);
      code != 0) {
    return code;
  }

  // --metrics-out hooks the sinks' registry into the engine.
  OutputSinks sinks(args);
  options.engine.metrics = sinks.metrics();
  auto session = skymr::Session::Open(*data, options);
  if (!session.ok()) {
    sinks.StopCollecting();
    std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
    return 1;
  }
  auto result = (*session)->Submit(query);
  sinks.StopCollecting();
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::fputs(skymr::obs::RenderStatsText(*result).c_str(), stdout);
  if (args.Has("critical-path")) {
    std::fputs(skymr::obs::RenderCriticalPathText(
                   skymr::obs::AnalyzeCriticalPath(result->jobs))
                   .c_str(),
               stdout);
  }
  return sinks.WriteResultSinks(
      *data, *result,
      /*include_fault_injection=*/options.engine.chaos.enabled(),
      "skymr_cli_stats");
}

int RunCompare(const Flags& args) {
  auto data = LoadInput(args);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  OutputSinks sinks(args);
  std::printf("%-10s %10s %12s %12s %10s\n", "algorithm", "skyline",
              "modeled[s]", "shuffle[KB]", "wall[s]");
  // One pool for all six pipelines: threads spawn once, not per algorithm.
  skymr::ThreadPool pool(skymr::ThreadPool::DefaultThreads());
  skymr::SessionOptions options;
  options.pool = &pool;
  options.engine.metrics = sinks.metrics();
  options.engine.num_map_tasks = static_cast<int>(args.GetInt("mappers", 13));
  options.engine.num_reducers = static_cast<int>(args.GetInt("reducers", 13));
  if (const int code = ApplyEngineFlags(args, &options.engine); code != 0) {
    return code;
  }
  for (const skymr::Algorithm algorithm :
       {skymr::Algorithm::kMrGpsrs, skymr::Algorithm::kMrGpmrs,
        skymr::Algorithm::kMrBnl, skymr::Algorithm::kMrAngle,
        skymr::Algorithm::kHybrid, skymr::Algorithm::kSkyMr}) {
    // A fresh session per algorithm: every row runs its own bitstring
    // job, so the rows compare like with like.
    auto session = skymr::Session::Open(*data, options);
    if (!session.ok()) {
      std::fprintf(stderr, "%s: %s\n", skymr::AlgorithmName(algorithm),
                   session.status().ToString().c_str());
      return 1;
    }
    skymr::QuerySpec query;
    query.algorithm = algorithm;
    auto result = (*session)->Submit(query);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", skymr::AlgorithmName(algorithm),
                   result.status().ToString().c_str());
      return 1;
    }
    uint64_t shuffle = 0;
    for (const auto& job : result->jobs) {
      shuffle += job.shuffle_bytes;
    }
    std::printf("%-10s %10zu %12.1f %12.1f %10.3f\n",
                skymr::AlgorithmName(algorithm), result->skyline.size(),
                result->modeled_seconds,
                static_cast<double>(shuffle) / 1024.0,
                result->wall_seconds);
  }
  sinks.StopCollecting();
  return sinks.WriteRunSinks();
}

/// `serve`: load a dataset, keep it resident behind a serve::Session,
/// and drive it with the open-loop loadgen traffic mix
/// (ResidentServeMix: the same tuples asked GPSRS/GPMRS/constrained
/// questions, so the cross-query bitstring cache carries most of the
/// load). Writes the skymr-bench-v1 load artifact to --out for
/// tools/bench_diff.py and `doctor --load`. Exit 0 even when individual
/// queries fail (errors are part of the workload under chaos); nonzero
/// only for bad flags or harness-level failures.
int RunServe(const Flags& args) {
  auto data = LoadInput(args);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }

  skymr::loadgen::LoadConfig config;
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  config.target_qps = args.GetDouble("qps", 40.0);
  config.queries = static_cast<int>(args.GetInt("queries", 48));
  config.admission_slots = static_cast<int>(args.GetInt("slots", 3));
  config.small_reserved_slots =
      static_cast<int>(args.GetInt("small-reserved", 1));
  config.threads = static_cast<int>(args.GetInt("threads", 0));
  config.deadline_ms = args.GetDouble("deadline-ms", 0.0);
  config.num_map_tasks = static_cast<int>(args.GetInt("mappers", 4));
  config.num_reducers = static_cast<int>(args.GetInt("reducers", 2));
  config.warmup = args.Has("warmup");
  config.serve = true;
  config.resident = &*data;
  config.mix = skymr::loadgen::ResidentServeMix();
  {
    skymr::mr::EngineOptions engine;
    engine.max_task_attempts = config.max_task_attempts;
    if (const int code = ApplyEngineFlags(args, &engine); code != 0) {
      return code;
    }
    config.chaos = engine.chaos;
    config.max_task_attempts = engine.max_task_attempts;
  }

  OutputSinks sinks(args);
  auto report_or = skymr::loadgen::RunLoad(config, sinks.metrics(), nullptr);
  sinks.StopCollecting();
  if (!report_or.ok()) {
    std::fprintf(stderr, "%s\n", report_or.status().ToString().c_str());
    return 1;
  }
  const skymr::loadgen::LoadReport& report = report_or.value();

  std::printf("serve: %zu x %zu resident tuples, %d queries (%lld ok, "
              "%lld errors) in %.2f s\n",
              data->size(), data->dim(), config.queries,
              static_cast<long long>(report.completed),
              static_cast<long long>(report.errors), report.wall_seconds);
  std::printf("latency from scheduled arrival: p50 %.0f us, p95 %.0f us, "
              "p99 %.0f us, max %.0f us\n",
              report.latency_us.Quantile(0.50),
              report.latency_us.Quantile(0.95),
              report.latency_us.Quantile(0.99), report.latency_us.max());
  std::printf("admission: wait p99 %.0f us, depth max %lld, inflight max "
              "%lld\n",
              report.queue_wait_us.Quantile(0.99),
              static_cast<long long>(report.max_queue_depth),
              static_cast<long long>(report.max_inflight));
  std::printf("session cache: %lld hits, %lld bitstring jobs (misses)\n",
              static_cast<long long>(report.session_cache_hits),
              static_cast<long long>(report.bitstring_jobs));

  const std::string out = args.GetString("out", "");
  if (!out.empty()) {
    if (auto s =
            skymr::loadgen::BuildLoadArtifact(config, report).WriteFile(out);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("artifact: %s (schedule hash %016llx)\n", out.c_str(),
                static_cast<unsigned long long>(report.schedule_hash));
  }
  return sinks.WriteRunSinks();
}

int RunDoctor(const Flags& args) {
  const std::string report = args.GetString("report", "");
  const std::string load = args.GetString("load", "");
  if (report.empty() && load.empty()) {
    std::fprintf(stderr, "doctor requires --report=FILE and/or --load=FILE\n");
    return 2;
  }
  const std::string fail_on = args.GetString("fail-on", "");
  if (!fail_on.empty() && fail_on != "warning" && fail_on != "critical") {
    std::fprintf(stderr, "--fail-on must be 'warning' or 'critical'\n");
    return 2;
  }
  std::vector<skymr::obs::Finding> all;
  using Analyzer = skymr::StatusOr<std::vector<skymr::obs::Finding>> (*)(
      const skymr::obs::JsonValue&);
  const std::pair<std::string, Analyzer> inputs[] = {
      {report, skymr::obs::AnalyzeReport},
      {load, skymr::obs::AnalyzeLoad},
  };
  for (const auto& [path, analyze] : inputs) {
    if (path.empty()) {
      continue;
    }
    auto doc = skymr::obs::ParseJsonFile(path);
    if (!doc.ok()) {
      std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
      return 1;
    }
    auto findings = analyze(*doc);
    if (!findings.ok()) {
      std::fprintf(stderr, "%s\n", findings.status().ToString().c_str());
      return 1;
    }
    all.insert(all.end(), findings->begin(), findings->end());
  }
  std::fputs(skymr::obs::RenderFindings(all).c_str(), stdout);
  if (fail_on.empty()) {
    return 0;
  }
  const skymr::obs::Severity gate = fail_on == "critical"
                                        ? skymr::obs::Severity::kCritical
                                        : skymr::obs::Severity::kWarning;
  for (const skymr::obs::Finding& finding : all) {
    if (finding.severity >= gate) {
      return 1;
    }
  }
  return 0;
}

/// One subcommand: its name, the flags it reads, and its body.
struct Command {
  const char* name;
  std::vector<FlagSpec> flags;
  int (*run)(const Flags& args);
};

std::vector<FlagSpec> Join(std::initializer_list<std::vector<FlagSpec>> parts) {
  std::vector<FlagSpec> joined;
  for (const std::vector<FlagSpec>& part : parts) {
    joined.insert(joined.end(), part.begin(), part.end());
  }
  return joined;
}

std::vector<Command> Commands() {
  // Flag groups, by the helper that reads them.
  const std::vector<FlagSpec> input = {{"in", FlagKind::kString},
                                       {"header", FlagKind::kSwitch}};
  const std::vector<FlagSpec> engine = {{"chaos-profile", FlagKind::kString},
                                        {"chaos-seed", FlagKind::kInt},
                                        {"attempts", FlagKind::kInt}};
  const std::vector<FlagSpec> tasks = {{"mappers", FlagKind::kInt},
                                       {"reducers", FlagKind::kInt}};
  const std::vector<FlagSpec> pipeline = {
      {"algorithm", FlagKind::kString}, {"local-algorithm", FlagKind::kString},
      {"ppd", FlagKind::kInt},          {"data-bounds", FlagKind::kSwitch},
      {"constraint", FlagKind::kString}};
  const std::vector<FlagSpec> run_sinks = {{"trace-out", FlagKind::kString},
                                           {"metrics-out", FlagKind::kString}};
  const std::vector<FlagSpec> result_sinks = {
      {"report-out", FlagKind::kString}, {"bench-out", FlagKind::kString}};
  return {
      {"generate",
       {{"dist", FlagKind::kString},
        {"card", FlagKind::kInt},
        {"dim", FlagKind::kInt},
        {"seed", FlagKind::kInt},
        {"out", FlagKind::kString}},
       RunGenerate},
      {"skyline",
       Join({input, tasks, pipeline, engine, run_sinks, result_sinks,
             {{"out", FlagKind::kString},
              {"verify", FlagKind::kSwitch},
              {"checkpoint", FlagKind::kString}}}),
       RunSkyline},
      {"stats",
       Join({input, tasks, pipeline, engine, run_sinks, result_sinks,
             {{"critical-path", FlagKind::kSwitch}}}),
       RunStats},
      {"compare", Join({input, tasks, engine, run_sinks}), RunCompare},
      {"serve",
       Join({input, tasks, engine, run_sinks,
             {{"seed", FlagKind::kInt},
              {"qps", FlagKind::kDouble},
              {"queries", FlagKind::kInt},
              {"slots", FlagKind::kInt},
              {"small-reserved", FlagKind::kInt},
              {"threads", FlagKind::kInt},
              {"deadline-ms", FlagKind::kDouble},
              {"warmup", FlagKind::kSwitch},
              {"out", FlagKind::kString}}}),
       RunServe},
      {"doctor",
       {{"report", FlagKind::kString},
        {"load", FlagKind::kString},
        {"fail-on", FlagKind::kString}},
       RunDoctor},
  };
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string name = argv[1];
  for (const Command& command : Commands()) {
    if (name != command.name) {
      continue;
    }
    auto args = Flags::Parse(std::vector<std::string>(argv + 2, argv + argc),
                             command.flags);
    if (!args.ok()) {
      std::fprintf(stderr, "skymr_cli %s: %s\n", command.name,
                   args.status().message().c_str());
      return Usage();
    }
    return command.run(*args);
  }
  return Usage();
}

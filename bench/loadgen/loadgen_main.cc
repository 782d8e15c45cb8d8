// skymr_loadgen: the open-loop traffic harness CLI.
//
//   skymr_loadgen [--seed=S] [--qps=Q] [--queries=N] [--slots=K]
//                 [--threads=T] [--deadline-ms=D] [--scale=X]
//                 [--serve] [--small-reserved=K] [--warmup]
//                 [--chaos-profile=NAME] [--chaos-seed=S] [--attempts=N]
//                 [--slow-query=I] [--slow-ms=MS]
//                 [--out=FILE] [--log-out=FILE] [--crash-dump=FILE]
//                 [--log-level=debug|info|warn|error]
//
// Every query runs through serve::Session::Submit. Without --serve each
// query opens a fresh session (batch mode: both jobs, nothing shared).
// --serve keeps one session per size class resident (`skymr_cli serve`
// is the single-resident-dataset server), so queries share the
// cross-query bitstring cache; --warmup primes the caches before the
// open-loop clock starts. Both modes admit queries through one slot
// layer in arrival order; --small-reserved splits it into a small and a
// large lane.
//
// Runs the seeded arrival schedule against the in-process engine and
// writes the skymr-bench-v1 artifact (--out; validated by
// tools/check_obs_json.py --load and diffed by tools/bench_diff.py).
// --log-out streams every structured record as JSON lines; --crash-dump
// arms the flight recorder, so a fatal chaos fault (e.g.
// --chaos-profile=storm --attempts=1) leaves a skymr-flight-v1 dump with
// the failing query's events.
//
// Exit code 0 even when individual queries fail (errors are part of the
// workload under chaos and appear in the artifact); 2 for an unknown flag
// or a malformed number (tools/flags.h), 1 for harness-level failures.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/loadgen/loadgen.h"
#include "src/mapreduce/chaos.h"
#include "src/obs/metrics.h"
#include "tools/flags.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: skymr_loadgen [--seed=S] [--qps=Q] [--queries=N] [--slots=K]\n"
      "                     [--threads=T] [--deadline-ms=D] [--scale=X]\n"
      "                     [--serve] [--small-reserved=K] [--warmup]\n"
      "                     [--chaos-profile=NAME] [--chaos-seed=S]\n"
      "                     [--attempts=N] [--slow-query=I] [--slow-ms=MS]\n"
      "                     [--out=FILE] [--log-out=FILE]\n"
      "                     [--crash-dump=FILE]\n"
      "                     [--log-level=debug|info|warn|error]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using skymr::tools::FlagKind;
  auto parsed = skymr::tools::Flags::Parse(
      std::vector<std::string>(argv + 1, argv + argc),
      {{"seed", FlagKind::kInt},
       {"qps", FlagKind::kDouble},
       {"queries", FlagKind::kInt},
       {"slots", FlagKind::kInt},
       {"threads", FlagKind::kInt},
       {"deadline-ms", FlagKind::kDouble},
       {"scale", FlagKind::kDouble},
       {"serve", FlagKind::kSwitch},
       {"small-reserved", FlagKind::kInt},
       {"warmup", FlagKind::kSwitch},
       {"chaos-profile", FlagKind::kString},
       {"chaos-seed", FlagKind::kInt},
       {"attempts", FlagKind::kInt},
       {"slow-query", FlagKind::kInt},
       {"slow-ms", FlagKind::kDouble},
       {"out", FlagKind::kString},
       {"log-out", FlagKind::kString},
       {"crash-dump", FlagKind::kString},
       {"log-level", FlagKind::kString},
       {"help", FlagKind::kSwitch}});
  if (!parsed.ok()) {
    std::fprintf(stderr, "skymr_loadgen: %s\n",
                 parsed.status().message().c_str());
    return Usage();
  }
  const skymr::tools::Flags& args = *parsed;
  if (args.Has("help")) {
    return Usage();
  }

  skymr::loadgen::LoadConfig config;
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  config.target_qps = args.GetDouble("qps", 40.0);
  config.queries = static_cast<int>(args.GetInt("queries", 48));
  config.admission_slots = static_cast<int>(args.GetInt("slots", 2));
  config.threads = static_cast<int>(args.GetInt("threads", 0));
  config.deadline_ms = args.GetDouble("deadline-ms", 0.0);
  config.slow_query_index = static_cast<int>(args.GetInt("slow-query", -1));
  config.slow_query_ms = args.GetDouble("slow-ms", 0.0);
  config.max_task_attempts = static_cast<int>(args.GetInt("attempts", 1));
  config.serve = args.Has("serve");
  config.small_reserved_slots =
      static_cast<int>(args.GetInt("small-reserved", 0));
  config.warmup = args.Has("warmup");
  // Cardinalities honor SKYMR_SCALE / SKYMR_FULL like every bench; an
  // explicit --scale multiplies on top of that (DefaultMix floors each
  // class at 200 tuples).
  double env_scale = 1.0;
  const char* full = std::getenv("SKYMR_FULL");
  if (full == nullptr || std::string(full) != "1") {
    if (const char* env = std::getenv("SKYMR_SCALE"); env != nullptr) {
      const double s = std::strtod(env, nullptr);
      if (s > 0.0) {
        env_scale = s;
      }
    }
  }
  config.mix =
      skymr::loadgen::DefaultMix(env_scale * args.GetDouble("scale", 1.0));
  if (args.Has("chaos-profile")) {
    auto schedule =
        skymr::mr::ChaosProfile(args.GetString("chaos-profile", "none"));
    if (!schedule.ok()) {
      std::fprintf(stderr, "%s\n", schedule.status().ToString().c_str());
      return 2;
    }
    config.chaos = schedule.value();
  }
  if (args.Has("chaos-seed")) {
    config.chaos.seed = static_cast<uint64_t>(args.GetInt("chaos-seed", 0));
  }

  skymr::obs::MetricsRegistry metrics;
  skymr::obs::Logger::Options log_options;
  log_options.metrics = &metrics;
  log_options.crash_dump_path = args.GetString("crash-dump", "");
  auto level = skymr::obs::ParseLogSeverity(
      args.GetString("log-level", "info"));
  if (!level.ok()) {
    std::fprintf(stderr, "%s\n", level.status().ToString().c_str());
    return 2;
  }
  log_options.min_severity = level.value();
  skymr::obs::Logger logger(log_options);
  logger.InstallAsFatalDumper();

  std::ofstream log_file;
  std::unique_ptr<skymr::obs::StreamLogSink> log_sink;
  const std::string log_out = args.GetString("log-out", "");
  if (!log_out.empty()) {
    log_file.open(log_out, std::ios::trunc);
    if (!log_file) {
      std::fprintf(stderr, "cannot open --log-out=%s\n", log_out.c_str());
      return 1;
    }
    log_sink = std::make_unique<skymr::obs::StreamLogSink>(log_file);
    logger.AddSink(log_sink.get());
  }

  auto report_or = skymr::loadgen::RunLoad(config, &metrics, &logger);
  if (!report_or.ok()) {
    std::fprintf(stderr, "%s\n", report_or.status().ToString().c_str());
    return 1;
  }
  const skymr::loadgen::LoadReport& report = report_or.value();

  const std::string out = args.GetString("out", "");
  if (!out.empty()) {
    auto written =
        skymr::loadgen::BuildLoadArtifact(config, report).WriteFile(out);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }

  std::printf(
      "loadgen: %d queries (%lld ok, %lld errors, %lld deadline-missed) "
      "in %.2f s\n",
      config.queries, static_cast<long long>(report.completed),
      static_cast<long long>(report.errors),
      static_cast<long long>(report.deadline_missed), report.wall_seconds);
  std::printf(
      "latency from scheduled arrival: p50 %.0f us, p95 %.0f us, "
      "p99 %.0f us, max %.0f us\n",
      report.latency_us.Quantile(0.50), report.latency_us.Quantile(0.95),
      report.latency_us.Quantile(0.99), report.latency_us.max());
  std::printf(
      "queue: wait p99 %.0f us, depth max %lld, inflight max %lld, "
      "log records dropped %lld\n",
      report.queue_wait_us.Quantile(0.99),
      static_cast<long long>(report.max_queue_depth),
      static_cast<long long>(report.max_inflight),
      static_cast<long long>(report.log_dropped));
  if (config.serve) {
    std::printf(
        "session cache: %lld hits, %lld bitstring jobs (misses)\n",
        static_cast<long long>(report.session_cache_hits),
        static_cast<long long>(report.bitstring_jobs));
  }
  if (!out.empty()) {
    std::printf("artifact: %s (schedule hash %016llx)\n", out.c_str(),
                static_cast<unsigned long long>(report.schedule_hash));
  }
  return 0;
}

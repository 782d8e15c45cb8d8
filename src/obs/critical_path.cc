#include "src/obs/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string_view>

#include "src/obs/metrics.h"

namespace skymr::obs {
namespace {

/// The engine job name whose waves realize PPD selection + bitstring
/// pruning (core/bitstring_job.cc); every other job is a skyline job.
constexpr std::string_view kBitstringJobName = "bitstring-generation";

/// "No step": the start of a chain, or an empty wave's longest step.
constexpr size_t kNone = std::numeric_limits<size_t>::max();

std::string Format(const char* fmt, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, value);
  return std::string(buf);
}

enum Kind { kMap, kShuffle, kReduce };
constexpr const char* kKindNames[] = {"map", "shuffle", "reduce"};
/// Step names in the signature: "j1.map3", "j1.shf0", "j1.red0".
constexpr const char* kKindTags[] = {"map", "shf", "red"};

std::string_view PhaseOf(const mr::JobMetrics& job, Kind kind) {
  if (kind == kShuffle) {
    return "shuffle";
  }
  const bool bitstring = job.name == kBitstringJobName;
  if (kind == kMap) {
    return bitstring ? "ppd.select" : "local-skyline";
  }
  return bitstring ? "bitstring.prune" : "merge";
}

/// The wave a step belongs to; a shuffle step belongs to its reducer's.
const std::vector<mr::TaskMetrics>& WaveOf(const mr::JobMetrics& job,
                                           Kind kind) {
  return kind == kMap ? job.map_tasks : job.reduce_tasks;
}

using Cost = double mr::TaskMetrics::*;

/// A step's wall cost: busy seconds, or for a shuffle the time to build
/// its reducer's input.
Cost WallCost(Kind kind) {
  return kind == kShuffle ? &mr::TaskMetrics::shuffle_seconds
                          : &mr::TaskMetrics::busy_seconds;
}

/// A step's deterministic cost: records in plus out, or for a shuffle the
/// records it carries.
uint64_t RecordCost(const mr::TaskMetrics& t, Kind kind) {
  return kind == kShuffle ? t.input_records
                          : t.input_records + t.output_records;
}

/// A step of the wave model: map task `task`, the shuffle feeding reducer
/// `task`, or reduce task `task` of job `job`.
struct Step {
  size_t job = 0;
  Kind kind = kMap;
  size_t task = 0;
  /// Length of the longest chain ending with this step.
  double length = 0.0;
  /// The step before this one on that chain; kNone at the chain's start.
  size_t pred = kNone;
};

/// The longest chain through the waves, as the steps it visits in order.
struct Chain {
  double length = 0.0;
  std::vector<Step> steps;
};

/// The wave formula. Each job's map tasks continue the previous job's
/// longest chain (the wave barrier), each reducer's shuffle continues the
/// job's longest map task (the all-to-all barrier), and each reduce task
/// continues its own shuffle; a job without map tasks shuffles straight
/// after the barrier. Ties keep the first maximum in task order, and the
/// chain ends at the earliest step of greatest length. Steps of
/// `free_phase` cost nothing (the what-if pass); `records` selects the
/// deterministic weighting.
Chain LongestChain(const std::vector<mr::JobMetrics>& jobs, bool records,
                   std::string_view free_phase) {
  std::vector<Step> steps;
  const auto add = [&](size_t j, Kind kind, size_t task, size_t pred) {
    const mr::TaskMetrics& t = WaveOf(jobs[j], kind)[task];
    const double weight =
        PhaseOf(jobs[j], kind) == free_phase ? 0.0
        : records ? static_cast<double>(RecordCost(t, kind))
                  : t.*WallCost(kind);
    const double start = pred == kNone ? 0.0 : steps[pred].length;
    steps.push_back(Step{j, kind, task, start + weight, pred});
    return steps.size() - 1;
  };
  const auto longer = [&](size_t candidate, size_t best) {
    return best == kNone || steps[candidate].length > steps[best].length
               ? candidate
               : best;
  };
  size_t barrier = kNone;
  for (size_t j = 0; j < jobs.size(); ++j) {
    size_t longest_map = kNone;
    for (size_t t = 0; t < jobs[j].map_tasks.size(); ++t) {
      longest_map = longer(add(j, kMap, t, barrier), longest_map);
    }
    const size_t shuffle_start = longest_map != kNone ? longest_map : barrier;
    size_t longest_reduce = kNone;
    for (size_t r = 0; r < jobs[j].reduce_tasks.size(); ++r) {
      const size_t shuffle = add(j, kShuffle, r, shuffle_start);
      longest_reduce = longer(add(j, kReduce, r, shuffle), longest_reduce);
    }
    if (longest_reduce != kNone) {
      barrier = longest_reduce;
    } else if (longest_map != kNone) {
      barrier = longest_map;
    }
  }
  size_t end = kNone;
  for (size_t i = 0; i < steps.size(); ++i) {
    end = longer(i, end);
  }
  Chain chain;
  for (size_t at = end; at != kNone; at = steps[at].pred) {
    chain.steps.push_back(steps[at]);
  }
  std::reverse(chain.steps.begin(), chain.steps.end());
  if (end != kNone) {
    chain.length = steps[end].length;
  }
  return chain;
}

/// The entry for `phase` in `phases`, appended if absent, so the list
/// keeps first-appearance order.
template <typename Phase>
Phase& PhaseEntry(std::vector<Phase>* phases, std::string_view phase) {
  for (Phase& p : *phases) {
    if (p.phase == phase) {
      return p;
    }
  }
  Phase entry;
  entry.phase = std::string(phase);
  phases->push_back(std::move(entry));
  return phases->back();
}

}  // namespace

WaveStats SummarizeWave(const std::vector<mr::TaskMetrics>& tasks,
                        double mr::TaskMetrics::*cost) {
  WaveStats stats;
  std::vector<double> working;
  for (const mr::TaskMetrics& t : tasks) {
    stats.max = std::max(stats.max, t.*cost);
    if (t.input_records > 0) {
      working.push_back(t.*cost);
    }
  }
  stats.median = Median(std::move(working));
  return stats;
}

CriticalPathReport AnalyzeCriticalPath(
    const std::vector<mr::JobMetrics>& jobs) {
  CriticalPathReport report;
  const Chain wall = LongestChain(jobs, /*records=*/false, {});
  if (wall.steps.empty()) {
    return report;
  }
  report.makespan_seconds = wall.length;

  // Steps, plus phase attribution in first-appearance order. The path's
  // steps partition the makespan, so phase seconds sum to exactly the
  // path length.
  for (const Step& s : wall.steps) {
    const mr::JobMetrics& job = jobs[s.job];
    const mr::TaskMetrics& task = WaveOf(job, s.kind)[s.task];
    CpStep step;
    step.job = job.name;
    step.kind = kKindNames[s.kind];
    step.phase = PhaseOf(job, s.kind);
    step.task = static_cast<int>(s.task);
    step.attempts = s.kind == kShuffle ? 1 : task.attempts;
    step.seconds = task.*WallCost(s.kind);
    step.wave_median_seconds =
        SummarizeWave(WaveOf(job, s.kind), WallCost(s.kind)).median;
    PhaseEntry(&report.phases, step.phase).seconds += step.seconds;
    report.steps.push_back(std::move(step));
  }
  if (report.makespan_seconds > 0.0) {
    for (CpPhase& p : report.phases) {
      p.percent = 100.0 * p.seconds / report.makespan_seconds;
      const double freed =
          LongestChain(jobs, /*records=*/false, p.phase).length;
      p.what_if_free_percent = 100.0 *
                               (report.makespan_seconds - freed) /
                               report.makespan_seconds;
    }
  }

  // Deterministic pass: record-count weights, seed-stable by design.
  std::ostringstream sig;
  sig << "jobs=" << jobs.size();
  for (size_t j = 0; j < jobs.size(); ++j) {
    sig << ";j" << j << "=" << jobs[j].name << ":m"
        << jobs[j].map_tasks.size() << ":r" << jobs[j].reduce_tasks.size();
  }
  sig << ";det=";
  uint64_t det_total = 0;
  const char* separator = "";
  for (const Step& s : LongestChain(jobs, /*records=*/true, {}).steps) {
    sig << separator << "j" << s.job << "." << kKindTags[s.kind] << s.task;
    separator = ">";
    const uint64_t records =
        RecordCost(WaveOf(jobs[s.job], s.kind)[s.task], s.kind);
    PhaseEntry(&report.deterministic_phases, PhaseOf(jobs[s.job], s.kind))
        .records += records;
    det_total += records;
  }
  if (det_total > 0) {
    for (CpDeterministicPhase& p : report.deterministic_phases) {
      p.percent = 100.0 * static_cast<double>(p.records) /
                  static_cast<double>(det_total);
    }
  }
  report.dag_signature = sig.str();
  report.valid = true;
  return report;
}

std::string RenderCriticalPathText(const CriticalPathReport& report) {
  std::ostringstream os;
  os << "critical path (wave model)\n";
  if (!report.valid) {
    os << "  no jobs to analyze\n";
    return os.str();
  }
  os << "  makespan " << Format("%.4f", report.makespan_seconds) << " s over "
     << report.steps.size() << " steps\n";
  os << "  phase attribution (sums to 100% of makespan):\n";
  for (const CpPhase& p : report.phases) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "    %-16s %10.4f s  %6.1f%%   if free: makespan -%.1f%%\n",
                  p.phase.c_str(), p.seconds, p.percent,
                  p.what_if_free_percent);
    os << line;
  }
  os << "  path:\n";
  for (const CpStep& s : report.steps) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "    %-22s %-7s[%d] %10.4f s  (wave median %.4f s, "
                  "attempts %d)\n",
                  s.job.c_str(), s.kind.c_str(), s.task, s.seconds,
                  s.wave_median_seconds, s.attempts);
    os << line;
  }
  if (!report.deterministic_phases.empty()) {
    os << "  deterministic attribution (records):";
    for (const CpDeterministicPhase& p : report.deterministic_phases) {
      os << " " << p.phase << " " << Format("%.1f", p.percent) << "%";
    }
    os << "\n";
  }
  os << "  dag signature: " << report.dag_signature << "\n";
  return os.str();
}

}  // namespace skymr::obs

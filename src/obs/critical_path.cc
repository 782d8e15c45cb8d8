#include "src/obs/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "src/common/logging.h"

namespace skymr::obs {
namespace {

/// The engine job name whose waves realize PPD selection + bitstring
/// pruning (core/bitstring_job.cc); every other job is a skyline job.
constexpr const char* kBitstringJobName = "bitstring-generation";

std::string Format(const char* fmt, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, value);
  return std::string(buf);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n % 2 == 1) {
    return values[n / 2];
  }
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

StatusOr<DagPath> LongestPathImpl(const std::vector<DagNode>& nodes,
                                  std::string_view free_phase,
                                  bool has_free_phase) {
  const size_t n = nodes.size();
  std::map<uint64_t, size_t> index;
  for (size_t i = 0; i < n; ++i) {
    if (nodes[i].id == 0) {
      return Status::InvalidArgument("DAG node id must be nonzero: " +
                                     nodes[i].name);
    }
    if (!index.emplace(nodes[i].id, i).second) {
      return Status::InvalidArgument("duplicate DAG node id in: " +
                                     nodes[i].name);
    }
  }
  std::vector<std::vector<size_t>> children(n);
  std::vector<size_t> indegree(n, 0);
  for (size_t i = 0; i < n; ++i) {
    SKYMR_DCHECK(nodes[i].weight >= 0.0)
        << "DAG node weights must be non-negative";
    for (uint64_t dep : nodes[i].deps) {
      auto it = index.find(dep);
      if (it == index.end()) {
        return Status::InvalidArgument("unknown DAG dependency id from: " +
                                       nodes[i].name);
      }
      children[it->second].push_back(i);
      ++indegree[i];
    }
  }

  const auto weight_of = [&](size_t i) {
    return (has_free_phase && nodes[i].phase == free_phase)
               ? 0.0
               : nodes[i].weight;
  };

  // Kahn's algorithm. Processing order does not affect the result: a
  // node's distance is fixed by its dependencies' distances, and both
  // tie-breaks below look only at deterministic orders (dependency-list
  // order for predecessors, input order for the path end).
  std::vector<double> dist(n, 0.0);
  std::vector<size_t> pred(n, n);  // n = no predecessor.
  std::vector<size_t> ready;
  for (size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) {
      ready.push_back(i);
    }
  }
  size_t processed = 0;
  while (!ready.empty()) {
    const size_t u = ready.back();
    ready.pop_back();
    ++processed;
    double best = 0.0;
    size_t best_pred = n;
    for (uint64_t dep : nodes[u].deps) {
      const size_t d = index.find(dep)->second;
      if (best_pred == n || dist[d] > best) {
        best = dist[d];
        best_pred = d;
      }
    }
    dist[u] = best + weight_of(u);
    pred[u] = best_pred;
    for (size_t child : children[u]) {
      if (--indegree[child] == 0) {
        ready.push_back(child);
      }
    }
  }
  if (processed != n) {
    return Status::InvalidArgument("DAG contains a cycle");
  }

  DagPath path;
  if (n == 0) {
    return path;
  }
  size_t end = 0;
  for (size_t i = 1; i < n; ++i) {
    if (dist[i] > dist[end]) {
      end = i;
    }
  }
  path.length = dist[end];
  for (size_t at = end; at != n; at = pred[at]) {
    path.nodes.push_back(nodes[at].id);
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  return path;
}

/// The analyzer's internal view of one DAG node: both weightings plus
/// everything a CpStep needs, so the wall and deterministic DAGs share
/// one structure.
struct Entry {
  uint64_t id = 0;
  std::string name;
  std::string phase;
  std::string job;
  std::string kind;
  int task = 0;
  int attempts = 1;
  double wall = 0.0;
  uint64_t records = 0;
  double wave_median = 0.0;
  std::vector<uint64_t> deps;
};

std::vector<DagNode> ToDag(const std::vector<Entry>& entries, bool wall) {
  std::vector<DagNode> nodes;
  nodes.reserve(entries.size());
  for (const Entry& e : entries) {
    DagNode node;
    node.id = e.id;
    node.name = e.name;
    node.phase = e.phase;
    node.weight = wall ? e.wall : static_cast<double>(e.records);
    node.deps = e.deps;
    nodes.push_back(std::move(node));
  }
  return nodes;
}

}  // namespace

StatusOr<DagPath> LongestPath(const std::vector<DagNode>& nodes) {
  return LongestPathImpl(nodes, {}, /*has_free_phase=*/false);
}

StatusOr<DagPath> LongestPathWithPhaseFree(const std::vector<DagNode>& nodes,
                                           std::string_view free_phase) {
  return LongestPathImpl(nodes, free_phase, /*has_free_phase=*/true);
}

CriticalPathReport AnalyzeCriticalPath(
    const std::vector<mr::JobMetrics>& jobs) {
  CriticalPathReport report;
  std::vector<Entry> entries;
  uint64_t next_id = 1;
  // Ids of the previous job's terminal wave: the next job's map tasks
  // depend on all of them (a job cannot start before its input exists).
  std::vector<uint64_t> prev_terminal;

  for (size_t j = 0; j < jobs.size(); ++j) {
    const mr::JobMetrics& job = jobs[j];
    if (job.map_tasks.empty() && job.reduce_tasks.empty()) {
      continue;
    }
    const bool bitstring = job.name == kBitstringJobName;
    const std::string map_phase = bitstring ? "ppd.select" : "local-skyline";
    const std::string reduce_phase = bitstring ? "bitstring.prune" : "merge";
    const std::string jtag = "j" + std::to_string(j);

    std::vector<double> map_busy;
    map_busy.reserve(job.map_tasks.size());
    for (const mr::TaskMetrics& t : job.map_tasks) {
      map_busy.push_back(t.busy_seconds);
    }
    std::vector<double> shuffle_cost;
    std::vector<double> reduce_busy;
    shuffle_cost.reserve(job.reduce_tasks.size());
    reduce_busy.reserve(job.reduce_tasks.size());
    for (const mr::TaskMetrics& t : job.reduce_tasks) {
      shuffle_cost.push_back(t.shuffle_seconds);
      reduce_busy.push_back(t.busy_seconds);
    }
    const double map_median = Median(map_busy);
    const double shuffle_median = Median(shuffle_cost);
    const double reduce_median = Median(reduce_busy);

    std::vector<uint64_t> map_ids;
    map_ids.reserve(job.map_tasks.size());
    for (size_t t = 0; t < job.map_tasks.size(); ++t) {
      const mr::TaskMetrics& task = job.map_tasks[t];
      Entry e;
      e.id = next_id++;
      e.name = jtag + ".map" + std::to_string(t);
      e.phase = map_phase;
      e.job = job.name;
      e.kind = "map";
      e.task = static_cast<int>(t);
      e.attempts = task.attempts;
      e.wall = task.busy_seconds;
      e.records = task.input_records + task.output_records;
      e.wave_median = map_median;
      e.deps = prev_terminal;
      map_ids.push_back(e.id);
      entries.push_back(std::move(e));
    }

    std::vector<uint64_t> reduce_ids;
    reduce_ids.reserve(job.reduce_tasks.size());
    for (size_t r = 0; r < job.reduce_tasks.size(); ++r) {
      const mr::TaskMetrics& task = job.reduce_tasks[r];
      // The shuffle edge feeding reducer r: starts after every map task
      // (the all-to-all barrier), costs the time to build this reducer's
      // input. Deterministic weight = the records it carries.
      Entry shuffle;
      shuffle.id = next_id++;
      shuffle.name = jtag + ".shf" + std::to_string(r);
      shuffle.phase = "shuffle";
      shuffle.job = job.name;
      shuffle.kind = "shuffle";
      shuffle.task = static_cast<int>(r);
      shuffle.wall = task.shuffle_seconds;
      shuffle.records = task.input_records;
      shuffle.wave_median = shuffle_median;
      shuffle.deps = map_ids.empty() ? prev_terminal : map_ids;
      const uint64_t shuffle_id = shuffle.id;
      entries.push_back(std::move(shuffle));

      Entry reduce;
      reduce.id = next_id++;
      reduce.name = jtag + ".red" + std::to_string(r);
      reduce.phase = reduce_phase;
      reduce.job = job.name;
      reduce.kind = "reduce";
      reduce.task = static_cast<int>(r);
      reduce.attempts = task.attempts;
      reduce.wall = task.busy_seconds;
      reduce.records = task.input_records + task.output_records;
      reduce.wave_median = reduce_median;
      reduce.deps = {shuffle_id};
      reduce_ids.push_back(reduce.id);
      entries.push_back(std::move(reduce));
    }

    prev_terminal = reduce_ids.empty() ? map_ids : reduce_ids;
  }

  if (entries.empty()) {
    return report;
  }

  std::map<uint64_t, const Entry*> by_id;
  for (const Entry& e : entries) {
    by_id.emplace(e.id, &e);
  }

  const std::vector<DagNode> wall_dag = ToDag(entries, /*wall=*/true);
  StatusOr<DagPath> wall_path = LongestPath(wall_dag);
  SKYMR_DCHECK(wall_path.ok()) << "analyzer-built DAG must be acyclic";
  if (!wall_path.ok()) {
    return report;
  }
  report.makespan_seconds = wall_path->length;

  // Walk the path: steps, plus phase attribution in first-appearance
  // order. The path's nodes partition the makespan, so phase seconds sum
  // to exactly the path length.
  std::vector<std::string> phase_order;
  std::map<std::string, double> phase_seconds;
  for (uint64_t id : wall_path->nodes) {
    const Entry& e = *by_id.find(id)->second;
    CpStep step;
    step.job = e.job;
    step.kind = e.kind;
    step.phase = e.phase;
    step.task = e.task;
    step.attempts = e.attempts;
    step.seconds = e.wall;
    step.wave_median_seconds = e.wave_median;
    report.steps.push_back(std::move(step));
    if (phase_seconds.emplace(e.phase, 0.0).second) {
      phase_order.push_back(e.phase);
    }
    phase_seconds[e.phase] += e.wall;
  }
  for (const std::string& phase : phase_order) {
    CpPhase p;
    p.phase = phase;
    p.seconds = phase_seconds[phase];
    if (report.makespan_seconds > 0.0) {
      p.percent = 100.0 * p.seconds / report.makespan_seconds;
      StatusOr<DagPath> freed = LongestPathWithPhaseFree(wall_dag, phase);
      SKYMR_DCHECK(freed.ok()) << "phase-free pass reuses the acyclic DAG";
      if (freed.ok()) {
        p.what_if_free_percent =
            100.0 * (report.makespan_seconds - freed->length) /
            report.makespan_seconds;
      }
    }
    report.phases.push_back(std::move(p));
  }

  // Deterministic pass: record-count weights, seed-stable by design.
  const std::vector<DagNode> det_dag = ToDag(entries, /*wall=*/false);
  StatusOr<DagPath> det_path = LongestPath(det_dag);
  SKYMR_DCHECK(det_path.ok()) << "deterministic DAG shares the wall structure";
  std::ostringstream sig;
  sig << "jobs=" << jobs.size();
  for (size_t j = 0; j < jobs.size(); ++j) {
    sig << ";j" << j << "=" << jobs[j].name << ":m"
        << jobs[j].map_tasks.size() << ":r" << jobs[j].reduce_tasks.size();
  }
  if (det_path.ok()) {
    std::vector<std::string> det_order;
    std::map<std::string, uint64_t> det_records;
    uint64_t det_total = 0;
    sig << ";det=";
    bool first = true;
    for (uint64_t id : det_path->nodes) {
      const Entry& e = *by_id.find(id)->second;
      if (!first) {
        sig << ">";
      }
      first = false;
      sig << e.name;
      if (det_records.emplace(e.phase, 0).second) {
        det_order.push_back(e.phase);
      }
      det_records[e.phase] += e.records;
      det_total += e.records;
    }
    for (const std::string& phase : det_order) {
      CpDeterministicPhase p;
      p.phase = phase;
      p.records = det_records[phase];
      if (det_total > 0) {
        p.percent = 100.0 * static_cast<double>(p.records) /
                    static_cast<double>(det_total);
      }
      report.deterministic_phases.push_back(std::move(p));
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

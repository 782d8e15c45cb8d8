// Per-task and per-job execution metrics captured by the engine. The
// ClusterModel consumes these to compute a modeled cluster makespan; the
// obs::JobReport exporter renders them as JSON.

#ifndef SKYMR_MAPREDUCE_TASK_METRICS_H_
#define SKYMR_MAPREDUCE_TASK_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/mapreduce/counters.h"
#include "src/obs/metrics.h"

namespace skymr::mr {

/// Metrics for one map or reduce task attempt that succeeded.
struct TaskMetrics {
  /// CPU-side wall time the task spent executing user code, excluding
  /// queueing. On a loaded machine this is still per-task because tasks run
  /// one per thread.
  double busy_seconds = 0.0;
  uint64_t input_records = 0;
  uint64_t output_records = 0;
  /// Serialized bytes this task produced (map: into the shuffle;
  /// reduce: as job output).
  uint64_t output_bytes = 0;
  /// Serialized bytes this task consumed from the shuffle (reduce only).
  uint64_t input_bytes = 0;
  /// Number of attempts it took to finish (1 = no retry).
  int attempts = 1;
  /// Reduce only: wall time spent building this reducer's shuffle input
  /// (gathering + sorting its bucket). Feeds the critical-path analyzer's
  /// shuffle edge weight; 0 on map tasks.
  double shuffle_seconds = 0.0;
  Counters counters;
  /// Distributions recorded by the task (skymr.window_size, ...).
  std::map<std::string, obs::QuantileSketch> sketches;
};

/// Metrics for one MapReduce job.
struct JobMetrics {
  /// The job's name, as passed to mr::Job (e.g. "mr-gpmrs").
  std::string name;
  std::vector<TaskMetrics> map_tasks;
  std::vector<TaskMetrics> reduce_tasks;
  /// Total serialized key+value bytes moved through the shuffle.
  uint64_t shuffle_bytes = 0;
  /// Real wall time of the simulated job on this machine.
  double wall_seconds = 0.0;
  /// Counters merged across all tasks, plus the engine's own counters
  /// (mr.task_retries, mr.cache_hits, mr.cache_misses).
  Counters counters;
  /// Task sketches merged by name, plus the ones the job's caller adds
  /// (skymr.reducer_group_*). Built from work counts only, never timings,
  /// so two same-seed runs agree on them exactly.
  std::map<std::string, obs::QuantileSketch> sketches;

  /// Largest value of `counter` across map tasks (Figure 11a's
  /// "mapper with the highest number of comparisons").
  int64_t MaxMapCounter(const std::string& counter) const {
    int64_t best = 0;
    for (const TaskMetrics& t : map_tasks) {
      best = std::max(best, t.counters.Get(counter));
    }
    return best;
  }

  /// Largest value of `counter` across reduce tasks (Figure 11b).
  int64_t MaxReduceCounter(const std::string& counter) const {
    int64_t best = 0;
    for (const TaskMetrics& t : reduce_tasks) {
      best = std::max(best, t.counters.Get(counter));
    }
    return best;
  }
};

}  // namespace skymr::mr

#endif  // SKYMR_MAPREDUCE_TASK_METRICS_H_

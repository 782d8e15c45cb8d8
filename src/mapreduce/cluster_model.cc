#include "src/mapreduce/cluster_model.h"

#include <algorithm>
#include <queue>

namespace skymr::mr {

double ClusterModel::LptMakespan(std::vector<double> task_seconds,
                                 int slots) {
  if (task_seconds.empty()) {
    return 0.0;
  }
  slots = std::max(1, slots);
  std::sort(task_seconds.begin(), task_seconds.end(),
            std::greater<double>());
  // Min-heap of slot loads.
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      loads;
  for (int i = 0; i < slots; ++i) {
    loads.push(0.0);
  }
  for (const double t : task_seconds) {
    const double load = loads.top();
    loads.pop();
    loads.push(load + t);
  }
  double makespan = 0.0;
  while (!loads.empty()) {
    makespan = std::max(makespan, loads.top());
    loads.pop();
  }
  return makespan;
}

double ClusterModel::JobMakespan(const JobMetrics& metrics,
                                 bool with_startup) {
  const double task_startup = with_startup ? kTaskStartupSeconds : 0.0;
  std::vector<double> map_times;
  map_times.reserve(metrics.map_tasks.size());
  for (const TaskMetrics& t : metrics.map_tasks) {
    map_times.push_back(t.busy_seconds + task_startup);
  }
  std::vector<double> reduce_times;
  reduce_times.reserve(metrics.reduce_tasks.size());
  double max_reduce_in_bytes = 0.0;
  for (const TaskMetrics& t : metrics.reduce_tasks) {
    reduce_times.push_back(t.busy_seconds + task_startup);
    max_reduce_in_bytes =
        std::max(max_reduce_in_bytes, static_cast<double>(t.input_bytes));
  }
  // The shuffle is bottlenecked by the most loaded reducer's inbound link.
  const double shuffle_seconds = max_reduce_in_bytes / kNetworkBytesPerSecond;
  return (with_startup ? kJobStartupSeconds : 0.0) +
         LptMakespan(std::move(map_times), kNodes * kMapSlotsPerNode) +
         shuffle_seconds +
         LptMakespan(std::move(reduce_times), kNodes * kReduceSlotsPerNode);
}

double ClusterModel::PipelineMakespan(const std::vector<JobMetrics>& jobs,
                                      bool with_startup) {
  double total = 0.0;
  for (const JobMetrics& job : jobs) {
    total += JobMakespan(job, with_startup);
  }
  return total;
}

}  // namespace skymr::mr

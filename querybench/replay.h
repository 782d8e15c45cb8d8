// Traced-run replay of one query through the entry points the Session
// itself calls, timed from outside the library.
//
// ReplayQuery runs the query's pipeline as the Session would
// (core::RunBitstringJob, then core::RunGpsrsJob or core::RunGpmrsJob on
// a pool of the workload's size) and keeps each job's mr::JobMetrics. It
// then replays the skyline job's map splits and reduce groups on the
// calling thread, one layer call at a time under its own span:
//
//   core.route         Box::Contains + Grid::CellOf + DynamicBitset::Test
//   local.kernel       BnlSkyline per surviving cell
//   core.compare       CompareAllPartitions over the split's windows
//   core.group_assign  GPMRS group generation and reducer assignment
//   mapreduce.serde    payload build, Serde encode and decode
//   core.merge         reducer MergeParts + CompareAllPartitions + output
//
// The replayed layers plus a residual equal the job's task CPU (the sum of
// its task busy times), and the residual is reported, not hidden.

#ifndef QUERYBENCH_REPLAY_H_
#define QUERYBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "querybench/harness.h"
#include "querybench/workload.h"

namespace querybench {

struct JobLayers {
  double wall_ms = 0.0;
  double map_cpu_ms = 0.0;
  double reduce_cpu_ms = 0.0;
  /// Reducer input build (gather + sort of the shuffle), summed.
  double shuffle_sort_ms = 0.0;
  int64_t shuffle_bytes = 0;
  int64_t tasks = 0;
  int64_t retries = 0;
  int64_t map_input_records = 0;
  /// Job wall minus the busy-time lower bound of its map, shuffle and
  /// reduce waves on the pool's workers plus the submitting thread: time
  /// no task was charged for.
  double schedule_residual_ms = 0.0;
};

struct QueryReplay {
  std::string query_class;  // "batch", "hit" or "miss"

  JobLayers bitstring;
  uint32_t ppd = 0;
  JobLayers skyline;
  int64_t tuples_pruned = 0;
  /// Largest per-task partition comparison counts (cost-model inputs).
  int64_t max_map_partition_comparisons = 0;
  int64_t max_reduce_partition_comparisons = 0;

  // Single-threaded layer replay of the skyline job.
  double route_ms = 0.0;
  double kernel_ms = 0.0;
  double compare_ms = 0.0;
  double group_assign_ms = 0.0;
  double serde_ms = 0.0;
  double merge_cpu_ms = 0.0;
  double merge_max_ms = 0.0;
  int64_t rows_scanned = 0;
  int64_t rows_kept = 0;
  int64_t kernel_tuple_comparisons = 0;
  int64_t map_partition_comparisons = 0;
  int64_t merge_partition_comparisons_max = 0;

  /// Skyline-job task CPU minus the replayed layers.
  double task_cpu_residual_ms = 0.0;

  /// Both the job's skyline and the replayed one match the oracle.
  bool correct = false;
};

/// Replays `query` (the `index`-th of the run) over `data`. `expected` is
/// the oracle answer for the query's box.
skymr::StatusOr<QueryReplay> ReplayQuery(
    const Workload& workload, const skymr::Dataset& data,
    const PlannedQuery& query, int64_t index,
    const std::vector<skymr::TupleId>& expected, SpanRecorder* spans);

}  // namespace querybench

#endif  // QUERYBENCH_REPLAY_H_

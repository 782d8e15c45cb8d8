#include "querybench/replay.h"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_set>
#include <utility>

#include "src/common/serde.h"
#include "src/common/thread_pool.h"
#include "src/core/bitstring_job.h"
#include "src/core/compare_partitions.h"
#include "src/core/gpmrs.h"
#include "src/core/gpsrs.h"
#include "src/core/grid.h"
#include "src/core/independent_groups.h"
#include "src/core/messages.h"
#include "src/core/ppd.h"
#include "src/local/bnl.h"

namespace querybench {
namespace {

using skymr::TupleId;
using skymr::core::CellId;
using skymr::core::CellWindowMap;
using skymr::core::PartitionSkyline;

double Ms(double seconds) { return seconds * 1e3; }

/// Busy-time lower bound of one wave on `threads` threads.
double WaveLowerBound(const std::vector<double>& busy, int threads) {
  double total = 0.0;
  double longest = 0.0;
  for (const double b : busy) {
    total += b;
    longest = std::max(longest, b);
  }
  return std::max(longest, total / threads);
}

JobLayers Summarize(const skymr::mr::JobMetrics& job, int threads) {
  JobLayers out;
  std::vector<double> map_busy;
  std::vector<double> reduce_busy;
  std::vector<double> shuffle;
  for (const skymr::mr::TaskMetrics& t : job.map_tasks) {
    map_busy.push_back(t.busy_seconds);
    out.map_cpu_ms += Ms(t.busy_seconds);
  }
  for (const skymr::mr::TaskMetrics& t : job.reduce_tasks) {
    reduce_busy.push_back(t.busy_seconds);
    shuffle.push_back(t.shuffle_seconds);
    out.reduce_cpu_ms += Ms(t.busy_seconds);
    out.shuffle_sort_ms += Ms(t.shuffle_seconds);
  }
  out.wall_ms = Ms(job.wall_seconds);
  out.shuffle_bytes = static_cast<int64_t>(job.shuffle_bytes);
  out.tasks = static_cast<int64_t>(job.map_tasks.size() +
                                   job.reduce_tasks.size());
  out.retries = job.counters.Get("mr.task_retries");
  out.map_input_records = job.counters.Get("mr.map_input_records");
  out.schedule_residual_ms =
      out.wall_ms - Ms(WaveLowerBound(map_busy, threads) +
                       WaveLowerBound(shuffle, threads) +
                       WaveLowerBound(reduce_busy, threads));
  return out;
}

/// What one reducer receives: each mapper's parts for it, in mapper
/// order, and the cells it outputs (all of them under GPSRS).
struct ReducerInbox {
  std::vector<std::vector<PartitionSkyline>> parts;
  std::vector<CellId> responsible;
  bool all_cells = false;
};

}  // namespace

skymr::StatusOr<QueryReplay> ReplayQuery(
    const Workload& workload, const skymr::Dataset& data,
    const PlannedQuery& query, int64_t index,
    const std::vector<TupleId>& expected, SpanRecorder* spans) {
  namespace core = skymr::core;
  const skymr::SessionOptions options = MakeSessionOptions(workload);
  skymr::mr::EngineOptions engine = options.engine;
  engine.query = query.spec.query;
  const std::optional<skymr::Box>& box = query.spec.constraint;
  const bool gpmrs = query.spec.algorithm == skymr::Algorithm::kMrGpmrs;
  const size_t dim = data.dim();
  const skymr::Bounds bounds = skymr::Bounds::UnitCube(dim);
  // The Session's contract: the dataset outlives every job.
  const std::shared_ptr<const skymr::Dataset> shared(
      &data, [](const skymr::Dataset*) {});
  skymr::ThreadPool pool(workload.pool_threads);

  QueryReplay replay;
  replay.query_class = !workload.resident ? "batch"
                       : query.hot        ? "hit"
                                          : "miss";

  // ---- The pipeline, through the Session's own entry points ----
  core::BitstringJobConfig bitstring_config;
  bitstring_config.bounds = bounds;
  bitstring_config.candidates =
      core::CandidatePpds(data.size(), dim, options.ppd);
  bitstring_config.ppd = options.ppd;
  bitstring_config.cardinality = data.size();
  bitstring_config.prune_mode = options.prune_mode;
  bitstring_config.constraint = box;
  auto bitstring_or = [&] {
    SpanRecorder::Scope span(spans, "core.bitstring_job", index);
    return core::RunBitstringJob(shared, bitstring_config, engine, &pool);
  }();
  if (!bitstring_or.ok()) {
    return bitstring_or.status();
  }
  const core::BitstringBuildResult& phase = bitstring_or->result;
  // Wave lower bounds count the pool's workers plus the submitting
  // thread, which runs queued tasks while it waits (ThreadPool).
  const int task_threads = workload.pool_threads + 1;
  replay.bitstring = Summarize(bitstring_or->metrics, task_threads);
  replay.ppd = phase.ppd;

  auto grid_or = core::Grid::Create(dim, phase.ppd, bounds,
                                    options.ppd.max_cells);
  if (!grid_or.ok()) {
    return grid_or.status();
  }
  const core::Grid& grid = grid_or.value();

  auto run_or = [&] {
    SpanRecorder::Scope span(spans, "core.skyline_job", index);
    return gpmrs ? core::RunGpmrsJob(shared, grid, phase.bits,
                                     query.spec.merge, engine, &pool, box,
                                     query.spec.local_algorithm)
                 : core::RunGpsrsJob(shared, grid, phase.bits, engine, &pool,
                                     box, query.spec.local_algorithm);
  }();
  if (!run_or.ok()) {
    return run_or.status();
  }
  const skymr::mr::JobMetrics& job = run_or->metrics;
  replay.skyline = Summarize(job, task_threads);
  replay.tuples_pruned = job.counters.Get(skymr::mr::kCounterTuplesPruned);
  replay.max_map_partition_comparisons =
      job.MaxMapCounter(skymr::mr::kCounterPartitionComparisons);
  replay.max_reduce_partition_comparisons =
      job.MaxReduceCounter(skymr::mr::kCounterPartitionComparisons);
  const bool job_correct = AnswerMatches(run_or->skyline.ids(), expected);

  // ---- Map splits, one layer call at a time ----
  const int m = workload.map_tasks;
  const int r = gpmrs ? workload.reducers : 1;
  std::vector<ReducerInbox> inboxes(static_cast<size_t>(r));
  const size_t n = data.size();
  const size_t base = n / static_cast<size_t>(m);
  const size_t extra = n % static_cast<size_t>(m);
  for (int task = 0; task < m; ++task) {
    // Contiguous splits, the first n % m one record longer (mr::Job).
    const auto t = static_cast<size_t>(task);
    const size_t begin = t * base + std::min(t, extra);
    const size_t end = begin + base + (t < extra ? 1 : 0);

    std::map<CellId, std::vector<TupleId>> cells;
    {
      SpanRecorder::Scope span(spans, "core.route", index);
      for (size_t i = begin; i < end; ++i) {
        const auto id = static_cast<TupleId>(i);
        const double* row = data.RowPtr(id);
        ++replay.rows_scanned;
        if (box.has_value() && !box->Contains(row, dim)) {
          continue;
        }
        const CellId cell = grid.CellOf(row);
        if (!phase.bits.Test(cell)) {
          continue;
        }
        cells[cell].push_back(id);
        ++replay.rows_kept;
      }
      replay.route_ms += Ms(span.elapsed_s());
    }

    CellWindowMap windows;
    {
      SpanRecorder::Scope span(spans, "local.kernel", index);
      skymr::DominanceCounter counter;
      for (auto& [cell, ids] : cells) {
        windows.emplace(cell, skymr::BnlSkyline({data, std::move(ids)},
                                                &counter));
      }
      replay.kernel_tuple_comparisons += static_cast<int64_t>(counter.count());
      replay.kernel_ms += Ms(span.elapsed_s());
    }

    {
      SpanRecorder::Scope span(spans, "core.compare", index);
      skymr::DominanceCounter counter;
      replay.map_partition_comparisons += static_cast<int64_t>(
          core::CompareAllPartitions(grid, &windows, &counter));
      replay.compare_ms += Ms(span.elapsed_s());
    }

    std::vector<core::ReducerGroup> groups;
    if (gpmrs) {
      SpanRecorder::Scope span(spans, "core.group_assign", index);
      groups = core::AssignGroupsToReducers(
          grid, core::GenerateIndependentGroups(grid, phase.bits),
          workload.reducers, query.spec.merge);
      replay.group_assign_ms += Ms(span.elapsed_s());
    }

    {
      SpanRecorder::Scope span(spans, "mapreduce.serde", index);
      if (gpmrs) {
        for (uint32_t g = 0; g < groups.size(); ++g) {
          core::GroupPayload payload;
          payload.reducer_group = g;
          payload.responsible = groups[g].responsible;
          for (const CellId cell : groups[g].cells) {
            const auto it = windows.find(cell);
            if (it != windows.end()) {
              payload.parts.push_back(PartitionSkyline{cell, it->second});
            }
          }
          skymr::ByteSink sink;
          skymr::Serde<core::GroupPayload>::Write(payload, &sink);
          skymr::ByteSource source(sink.data(), sink.size());
          core::GroupPayload decoded =
              skymr::Serde<core::GroupPayload>::Read(&source);
          ReducerInbox& inbox = inboxes[g % static_cast<uint32_t>(r)];
          if (inbox.parts.empty()) {
            inbox.responsible = std::move(decoded.responsible);
          }
          inbox.parts.push_back(std::move(decoded.parts));
        }
      } else {
        core::LocalSkylineSet set;
        for (auto& [cell, window] : windows) {
          set.parts.push_back(PartitionSkyline{cell, std::move(window)});
        }
        skymr::ByteSink sink;
        skymr::Serde<core::LocalSkylineSet>::Write(set, &sink);
        skymr::ByteSource source(sink.data(), sink.size());
        inboxes[0].parts.push_back(
            skymr::Serde<core::LocalSkylineSet>::Read(&source).parts);
        inboxes[0].all_cells = true;
      }
      replay.serde_ms += Ms(span.elapsed_s());
    }
  }

  // ---- Reducers ----
  std::vector<TupleId> replayed_ids;
  for (ReducerInbox& inbox : inboxes) {
    if (inbox.parts.empty()) {
      continue;
    }
    SpanRecorder::Scope span(spans, "core.merge", index);
    skymr::DominanceCounter counter;
    CellWindowMap windows;
    for (const std::vector<PartitionSkyline>& parts : inbox.parts) {
      core::MergeParts(parts, dim, &windows, &counter);
    }
    replay.merge_partition_comparisons_max =
        std::max(replay.merge_partition_comparisons_max,
                 static_cast<int64_t>(
                     core::CompareAllPartitions(grid, &windows, &counter)));
    const std::unordered_set<CellId> responsible(inbox.responsible.begin(),
                                                 inbox.responsible.end());
    for (const auto& [cell, window] : windows) {
      if (inbox.all_cells || responsible.count(cell) != 0) {
        replayed_ids.insert(replayed_ids.end(), window.ids().begin(),
                            window.ids().end());
      }
    }
    const double ms = Ms(span.elapsed_s());
    replay.merge_cpu_ms += ms;
    replay.merge_max_ms = std::max(replay.merge_max_ms, ms);
  }

  replay.task_cpu_residual_ms =
      replay.skyline.map_cpu_ms + replay.skyline.reduce_cpu_ms -
      (replay.route_ms + replay.kernel_ms + replay.compare_ms +
       replay.group_assign_ms + replay.serde_ms + replay.merge_cpu_ms);
  replay.correct =
      job_correct && AnswerMatches(std::move(replayed_ids), expected);
  return replay;
}

}  // namespace querybench

#include "src/core/gpmrs.h"

#include <numeric>
#include <string>

#include "src/obs/trace.h"

namespace skymr::core {
namespace {

/// Algorithm 8: Map of MR-GPMRS.
class GpmrsMapper : public mr::Mapper<TupleId, uint32_t, GroupPayload> {
 public:
  void Setup(mr::MapContext<uint32_t, GroupPayload>& ctx) override {
    phase_.Setup(ctx.cache());
  }

  void Map(const TupleId& id,
           mr::MapContext<uint32_t, GroupPayload>& ctx) override {
    (void)ctx;
    phase_.Add(id);
  }

  void Cleanup(mr::MapContext<uint32_t, GroupPayload>& ctx) override {
    const SkylineJobContext& context = phase_.context();
    CellWindowMap windows =
        phase_.Finish(&ctx.counters(), &ctx.sketches());

    // Lines 11-19: ship each group's local skylines to its reducer. The
    // groups (line 11, Algorithm 7) with Section 5.4's merging and output
    // responsibility come from the bitstring alone, so RunGpmrsJob derives
    // them once and every mapper reads the same broadcast copy — the
    // consistency requirement Section 5.3 states.
    for (uint32_t i = 0; i < context.reducer_groups.size(); ++i) {
      const ReducerGroup& group = context.reducer_groups[i];
      GroupPayload payload;
      payload.reducer_group = i;
      payload.responsible = group.responsible;
      for (const CellId cell : group.cells) {
        const auto it = windows.find(cell);
        if (it != windows.end()) {
          payload.parts.push_back(PartitionSkyline{cell, it->second});
        }
      }
      ctx.Emit(i, payload);
    }
  }

 private:
  LocalSkylinePhase phase_;
};

/// Algorithm 9: Reduce of MR-GPMRS. Each key is one (merged) independent
/// group; the reducer finalizes that group's share of the global skyline.
class GpmrsReducer
    : public mr::Reducer<uint32_t, GroupPayload, SkylineWindow> {
 public:
  void Setup(mr::ReduceContext<SkylineWindow>& ctx) override {
    context_ = ctx.cache().Get<SkylineJobContext>(kCacheKeySkylineContext);
    if (context_ == nullptr) {
      throw mr::TaskFailure("GPMRS reducer: job context missing");
    }
  }

  void Reduce(const uint32_t& key, mr::ValueIterator<GroupPayload>& values,
              mr::ReduceContext<SkylineWindow>& ctx) override {
    if (key >= context_->reducer_groups.size()) {
      throw mr::TaskFailure("GPMRS reducer: no reducer group " +
                            std::to_string(key));
    }
    if (!values.HasNext()) {
      return;
    }
    SKYMR_TRACE_SPAN("gpmrs.merge", "group", static_cast<int64_t>(key),
                     "values", static_cast<int64_t>(values.remaining()));
    const size_t dim = context_->grid.dim();
    // Section 5.4.2: the cells this group outputs. Every other received
    // cell is a replica, output by another group.
    const std::vector<CellId>& responsible =
        context_->reducer_groups[key].responsible;
    DominanceCounter dominance_counter;
    CellWindowMap windows;
    // Lines 2-8: merge per-partition skylines across mappers, one payload
    // at a time. Only responsible cells are merged; replicas are appended
    // unchecked to source-only windows.
    while (values.HasNext()) {
      const GroupPayload payload = values.Next();
      if (payload.responsible != responsible) {
        throw SerdeUnderflow(
            "serde underflow: payload for reducer group " +
            std::to_string(key) + " carries a foreign responsibility list");
      }
      MergeParts(payload.parts, dim, &windows, &dominance_counter,
                 &responsible);
    }
    // Lines 9-10: false-positive elimination of the responsible cells.
    // The group is independent (Definition 5), so every partition's full
    // anti-dominating region is present. Dominance is transitive, so a
    // tuple that some received tuple dominates is also dominated by one
    // that nothing received dominates, which no filter ever removes:
    // replicas serve as sources without being merged or filtered.
    const uint64_t partition_comparisons =
        CompareAllPartitions(context_->grid, &windows, &dominance_counter,
                             &responsible);
    ctx.counters().Add(mr::kCounterPartitionComparisons,
                       static_cast<int64_t>(partition_comparisons));
    ctx.counters().Add(mr::kCounterTupleComparisons,
                       static_cast<int64_t>(dominance_counter.count()));

    // Line 11: output the responsible partitions, so every replicated cell
    // is output exactly once.
    SkylineWindow out(dim);
    for (const CellId cell : responsible) {
      const auto it = windows.find(cell);
      if (it == windows.end()) {
        continue;
      }
      const SkylineWindow& window = it->second;
      for (size_t i = 0; i < window.size(); ++i) {
        out.AppendUnchecked(window.RowAt(i), window.IdAt(i));
      }
    }
    ctx.Emit(std::move(out));
  }

 private:
  std::shared_ptr<const SkylineJobContext> context_;
};

}  // namespace

std::unique_ptr<mr::Reducer<uint32_t, GroupPayload, SkylineWindow>>
NewGpmrsReducer() {
  return std::make_unique<GpmrsReducer>();
}

StatusOr<SkylineJobRun> RunGpmrsJob(
    std::shared_ptr<const Dataset> data, const Grid& grid,
    const DynamicBitset& bits, GroupMergeStrategy merge,
    const mr::EngineOptions& engine, ThreadPool* pool,
    const std::optional<Box>& constraint, LocalAlgorithm local_algorithm) {
  if (data == nullptr) {
    return Status::InvalidArgument("GPMRS: dataset is null");
  }
  if (bits.size() != grid.num_cells()) {
    return Status::InvalidArgument("GPMRS: bitstring/grid size mismatch");
  }
  if (constraint.has_value()) {
    SKYMR_RETURN_IF_ERROR(constraint->Validate(data->dim()));
  }

  mr::DistributedCache cache;
  SKYMR_RETURN_IF_ERROR(cache.Put(kCacheKeyDataset, data));
  auto context = std::make_shared<SkylineJobContext>(grid, bits);
  {
    SKYMR_TRACE_SPAN("gpmrs.group_assign", "reducers", engine.num_reducers);
    context->reducer_groups = AssignGroupsToReducers(
        grid, GenerateIndependentGroups(grid, bits), engine.num_reducers,
        merge);
  }
  context->constraint = constraint;
  context->local_algorithm = local_algorithm;
  SKYMR_RETURN_IF_ERROR(cache.Put(
      kCacheKeySkylineContext,
      std::shared_ptr<const SkylineJobContext>(context)));

  std::vector<TupleId> ids(data->size());
  std::iota(ids.begin(), ids.end(), 0);

  mr::Job<TupleId, uint32_t, GroupPayload, SkylineWindow> job(
      "mr-gpmrs", [] { return std::make_unique<GpmrsMapper>(); },
      NewGpmrsReducer);
  // Reducer-group i is pinned to reducer i (group count never exceeds the
  // reducer count after merging).
  job.UseModuloPartitioner();

  auto result = job.Run(ids, engine, cache, pool);
  if (!result.ok()) {
    return result.status;
  }

  SkylineJobRun run;
  run.metrics = std::move(result.metrics);
  // Per-reducer group load (Section 5.4.1's balancing target).
  for (const ReducerGroup& group : context->reducer_groups) {
    run.metrics.sketches["skymr.reducer_group_cells"].Add(
        static_cast<double>(group.cells.size()));
    run.metrics.sketches["skymr.reducer_group_cost"].Add(
        static_cast<double>(group.cost));
  }
  run.skyline = SkylineWindow(data->dim());
  for (const SkylineWindow& window : result.outputs) {
    for (size_t i = 0; i < window.size(); ++i) {
      run.skyline.AppendUnchecked(window.RowAt(i), window.IdAt(i));
    }
  }
  DebugVerifySkyline("MR-GPMRS", *data, run.skyline, constraint);
  return run;
}

}  // namespace skymr::core

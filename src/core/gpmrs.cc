#include "src/core/gpmrs.h"

#include <ranges>
#include <string>
#include <string_view>

#include "src/core/gpsrs.h"
#include "src/obs/trace.h"

namespace skymr::core {
namespace {

/// Algorithms 3 and 8: Map of MR-GPSRS and MR-GPMRS.
class GridSkylineMapper
    : public mr::Mapper<TupleId, uint32_t, LocalSkylineSet> {
 public:
  void Setup(mr::MapContext<uint32_t, LocalSkylineSet>& ctx) override {
    phase_.Setup(ctx.cache());
  }

  void Map(const TupleId& id,
           mr::MapContext<uint32_t, LocalSkylineSet>& ctx) override {
    (void)ctx;
    phase_.Add(id);
  }

  void Cleanup(mr::MapContext<uint32_t, LocalSkylineSet>& ctx) override {
    const SkylineJobContext& context = phase_.context();
    CellWindowMap windows =
        phase_.Finish(&ctx.counters(), &ctx.sketches());

    // Lines 11-19: ship each group's local skylines to its reducer. The
    // groups (line 11, Algorithm 7) with Section 5.4's merging and output
    // responsibility come from the bitstring alone, so the job derives
    // them once and every mapper reads the same broadcast copy — the
    // consistency requirement Section 5.3 states. Emit serializes at
    // once, so each group borrows its windows: moved into the payload,
    // emitted, and moved back for the next group that holds them.
    LocalSkylineSet set;
    std::vector<CellWindowMap::iterator> lent;
    for (uint32_t i = 0; i < context.reducer_groups.size(); ++i) {
      for (const CellId cell : context.reducer_groups[i].cells) {
        const auto it = windows.find(cell);
        if (it != windows.end()) {
          set.parts.push_back(PartitionSkyline{cell, std::move(it->second)});
          lent.push_back(it);
        }
      }
      ctx.Emit(i, set);
      for (size_t k = 0; k < lent.size(); ++k) {
        lent[k]->second = std::move(set.parts[k].window);
      }
      set.parts.clear();
      lent.clear();
    }
  }

 private:
  LocalSkylinePhase phase_;
};

/// Algorithms 6 and 9: Reduce of MR-GPSRS and MR-GPMRS. Each key is one
/// (merged) independent group; the reducer finalizes that group's share
/// of the global skyline.
class GridSkylineReducer
    : public mr::Reducer<uint32_t, LocalSkylineSet, SkylineWindow> {
 public:
  explicit GridSkylineReducer(std::string_view merge_span)
      : merge_span_(merge_span) {}

  void Setup(mr::ReduceContext<SkylineWindow>& ctx) override {
    context_ = ctx.cache().Get<SkylineJobContext>(kCacheKeySkylineContext);
    if (context_ == nullptr) {
      throw mr::TaskFailure("skyline reducer: job context missing");
    }
  }

  void Reduce(const uint32_t& key, mr::ValueIterator<LocalSkylineSet>& values,
              mr::ReduceContext<SkylineWindow>& ctx) override {
    if (key >= context_->reducer_groups.size()) {
      throw mr::TaskFailure("skyline reducer: no reducer group " +
                            std::to_string(key));
    }
    if (!values.HasNext()) {
      return;
    }
    SKYMR_TRACE_SPAN(merge_span_, "group", static_cast<int64_t>(key),
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
      const LocalSkylineSet set = values.Next();
      MergeParts(set.parts, dim, &windows, &dominance_counter, &responsible);
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
  std::string_view merge_span_;
  std::shared_ptr<const SkylineJobContext> context_;
};

/// A skyline job's context over `grid` and `bits` with the given
/// constraint and kernel, after checking the inputs. The caller fills
/// `reducer_groups`.
StatusOr<std::shared_ptr<SkylineJobContext>> NewJobContext(
    std::string_view algorithm, const Dataset* data, const Grid& grid,
    const DynamicBitset& bits, const std::optional<Box>& constraint,
    LocalAlgorithm local_algorithm) {
  if (data == nullptr) {
    return Status::InvalidArgument(std::string(algorithm) +
                                   ": dataset is null");
  }
  if (bits.size() != grid.num_cells()) {
    return Status::InvalidArgument(std::string(algorithm) +
                                   ": bitstring/grid size mismatch");
  }
  if (constraint.has_value()) {
    SKYMR_RETURN_IF_ERROR(constraint->Validate(data->dim()));
  }
  auto context = std::make_shared<SkylineJobContext>(grid, bits);
  context->constraint = constraint;
  context->local_algorithm = local_algorithm;
  return context;
}

/// Runs the grid skyline job `name` over `data`: one reduce key per
/// entry of `context->reducer_groups`, key i pinned to reducer i (the
/// group count never exceeds the reducer count).
StatusOr<SkylineJobRun> RunGridSkylineJob(
    const std::string& name, std::string_view merge_span,
    std::shared_ptr<const Dataset> data,
    std::shared_ptr<const SkylineJobContext> context,
    const mr::EngineOptions& engine, ThreadPool* pool) {
  mr::DistributedCache cache;
  SKYMR_RETURN_IF_ERROR(cache.Put(kCacheKeyDataset, data));
  SKYMR_RETURN_IF_ERROR(cache.Put(kCacheKeySkylineContext, context));

  mr::Job<TupleId, uint32_t, LocalSkylineSet, SkylineWindow> job(
      name, [] { return std::make_unique<GridSkylineMapper>(); },
      [merge_span] {
        return std::make_unique<GridSkylineReducer>(merge_span);
      });
  job.UseModuloPartitioner();

  auto result = job.Run(
      std::views::iota(TupleId{0}, static_cast<TupleId>(data->size())),
      engine, cache, pool);
  if (!result.ok()) {
    return result.status;
  }

  SkylineJobRun run;
  run.metrics = std::move(result.metrics);
  run.skyline = SkylineWindow(data->dim());
  for (const SkylineWindow& window : result.outputs) {
    for (size_t i = 0; i < window.size(); ++i) {
      run.skyline.AppendUnchecked(window.RowAt(i), window.IdAt(i));
    }
  }
  DebugVerifySkyline(name.c_str(), *data, run.skyline, context->constraint);
  return run;
}

}  // namespace

std::unique_ptr<mr::Reducer<uint32_t, LocalSkylineSet, SkylineWindow>>
NewGpmrsReducer() {
  return std::make_unique<GridSkylineReducer>("gpmrs.merge");
}

StatusOr<SkylineJobRun> RunGpsrsJob(std::shared_ptr<const Dataset> data,
                                    const Grid& grid,
                                    const DynamicBitset& bits,
                                    const mr::EngineOptions& engine,
                                    ThreadPool* pool,
                                    const std::optional<Box>& constraint,
                                    LocalAlgorithm local_algorithm) {
  auto context = NewJobContext("GPSRS", data.get(), grid, bits, constraint,
                               local_algorithm);
  if (!context.ok()) {
    return context.status();
  }
  // Algorithm 3 is Algorithm 8 with one group: every set cell, all of
  // them output by the single reducer.
  ReducerGroup all;
  bits.ForEachSetBit([&all](size_t cell) { all.cells.push_back(cell); });
  all.responsible = all.cells;
  (*context)->reducer_groups.push_back(std::move(all));

  mr::EngineOptions options = engine;
  options.num_reducers = 1;  // Single reducer, by definition of MR-GPSRS.
  return RunGridSkylineJob("mr-gpsrs", "gpsrs.merge", std::move(data),
                           std::move(*context), options, pool);
}

StatusOr<SkylineJobRun> RunGpmrsJob(
    std::shared_ptr<const Dataset> data, const Grid& grid,
    const DynamicBitset& bits, GroupMergeStrategy merge,
    const mr::EngineOptions& engine, ThreadPool* pool,
    const std::optional<Box>& constraint, LocalAlgorithm local_algorithm) {
  auto context = NewJobContext("GPMRS", data.get(), grid, bits, constraint,
                               local_algorithm);
  if (!context.ok()) {
    return context.status();
  }
  std::vector<ReducerGroup>& groups = (*context)->reducer_groups;
  {
    SKYMR_TRACE_SPAN("gpmrs.group_assign", "reducers", engine.num_reducers);
    groups = AssignGroupsToReducers(grid,
                                    GenerateIndependentGroups(grid, bits),
                                    engine.num_reducers, merge);
  }
  auto run = RunGridSkylineJob("mr-gpmrs", "gpmrs.merge", std::move(data),
                               *context, engine, pool);
  if (!run.ok()) {
    return run;
  }
  // Per-reducer group load (Section 5.4.1's balancing target).
  for (const ReducerGroup& group : groups) {
    run->metrics.sketches["skymr.reducer_group_cells"].Add(
        static_cast<double>(group.cells.size()));
    run->metrics.sketches["skymr.reducer_group_cost"].Add(
        static_cast<double>(group.cost));
  }
  return run;
}

}  // namespace skymr::core

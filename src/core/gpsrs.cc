#include "src/core/gpsrs.h"

#include <numeric>

#include "src/obs/trace.h"

namespace skymr::core {
namespace {

/// Algorithm 3: Map of MR-GPSRS.
class GpsrsMapper : public mr::Mapper<TupleId, uint32_t, LocalSkylineSet> {
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
    CellWindowMap windows =
        phase_.Finish(&ctx.counters(), &ctx.sketches());
    LocalSkylineSet set;
    set.parts.reserve(windows.size());
    for (auto& [cell, window] : windows) {
      set.parts.push_back(PartitionSkyline{cell, std::move(window)});
    }
    // Line 11: everything goes to the single reducer under one key.
    ctx.Emit(0, set);
  }

 private:
  LocalSkylinePhase phase_;
};

/// Algorithm 6: Reduce of MR-GPSRS.
class GpsrsReducer
    : public mr::Reducer<uint32_t, LocalSkylineSet, SkylineWindow> {
 public:
  void Setup(mr::ReduceContext<SkylineWindow>& ctx) override {
    context_ = ctx.cache().Get<SkylineJobContext>(kCacheKeySkylineContext);
    if (context_ == nullptr) {
      throw mr::TaskFailure("GPSRS reducer: job context missing");
    }
  }

  void Reduce(const uint32_t& key,
              mr::ValueIterator<LocalSkylineSet>& values,
              mr::ReduceContext<SkylineWindow>& ctx) override {
    (void)key;
    SKYMR_TRACE_SPAN("gpsrs.merge", "values",
                     static_cast<int64_t>(values.remaining()));
    const size_t dim = context_->grid.dim();
    DominanceCounter dominance_counter;
    // Lines 1-6: merge the mappers' per-partition skylines with InsertTuple.
    // One mapper's set is deserialized at a time; the whole value list is
    // never resident at once.
    CellWindowMap windows;
    while (values.HasNext()) {
      const LocalSkylineSet set = values.Next();
      MergeParts(set.parts, dim, &windows, &dominance_counter);
    }
    // Lines 7-8: eliminate cross-partition false positives globally.
    const uint64_t partition_comparisons = CompareAllPartitions(
        context_->grid, &windows, &dominance_counter);
    ctx.counters().Add(mr::kCounterPartitionComparisons,
                       static_cast<int64_t>(partition_comparisons));
    ctx.counters().Add(mr::kCounterTupleComparisons,
                       static_cast<int64_t>(dominance_counter.count()));
    // Line 9: output the union of all partition skylines.
    ctx.Emit(UnionWindows(windows, dim));
  }

 private:
  std::shared_ptr<const SkylineJobContext> context_;
};

}  // namespace

StatusOr<SkylineJobRun> RunGpsrsJob(std::shared_ptr<const Dataset> data,
                                    const Grid& grid,
                                    const DynamicBitset& bits,
                                    const mr::EngineOptions& engine,
                                    ThreadPool* pool,
                                    const std::optional<Box>& constraint,
                                    LocalAlgorithm local_algorithm) {
  if (data == nullptr) {
    return Status::InvalidArgument("GPSRS: dataset is null");
  }
  if (bits.size() != grid.num_cells()) {
    return Status::InvalidArgument("GPSRS: bitstring/grid size mismatch");
  }
  if (constraint.has_value()) {
    SKYMR_RETURN_IF_ERROR(constraint->Validate(data->dim()));
  }

  mr::DistributedCache cache;
  SKYMR_RETURN_IF_ERROR(cache.Put(kCacheKeyDataset, data));
  auto context = std::make_shared<SkylineJobContext>(grid, bits);
  context->constraint = constraint;
  context->local_algorithm = local_algorithm;
  SKYMR_RETURN_IF_ERROR(cache.Put(
      kCacheKeySkylineContext,
      std::shared_ptr<const SkylineJobContext>(std::move(context))));

  std::vector<TupleId> ids(data->size());
  std::iota(ids.begin(), ids.end(), 0);

  mr::Job<TupleId, uint32_t, LocalSkylineSet, SkylineWindow> job(
      "mr-gpsrs", [] { return std::make_unique<GpsrsMapper>(); },
      [] { return std::make_unique<GpsrsReducer>(); });

  mr::EngineOptions options = engine;
  options.num_reducers = 1;  // Single reducer, by definition of MR-GPSRS.
  auto result = job.Run(ids, options, cache, pool);
  if (!result.ok()) {
    return result.status;
  }

  SkylineJobRun run;
  run.metrics = std::move(result.metrics);
  if (result.outputs.empty()) {
    run.skyline = SkylineWindow(data->dim());  // Empty input, empty skyline.
  } else if (result.outputs.size() == 1) {
    run.skyline = std::move(result.outputs[0]);
  } else {
    return Status::Internal("GPSRS produced multiple outputs");
  }
  DebugVerifySkyline("MR-GPSRS", *data, run.skyline, constraint);
  return run;
}

}  // namespace skymr::core

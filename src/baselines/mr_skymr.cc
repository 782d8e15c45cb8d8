#include "src/baselines/mr_skymr.h"

#include <ranges>
#include <vector>

namespace skymr::baselines {
namespace {

using core::CellWindowMap;
using core::kCacheKeyDataset;
using core::LocalSkylineSet;
using core::PartitionSkyline;

inline constexpr const char* kCacheKeySkyQuadtree = "skymr.sky_quadtree";
inline constexpr const char* kCacheKeySkyMrConstraint =
    "skymr.skymr_constraint";

/// Removes cross-leaf false positives: for each leaf window, drop tuples
/// dominated by windows of leaves whose region can dominate it. Returns
/// the number of leaf-pair comparisons.
uint64_t CompareLeaves(const SkyQuadtree& tree, CellWindowMap* windows,
                       DominanceCounter* counter) {
  std::vector<uint32_t> leaves;
  leaves.reserve(windows->size());
  for (const auto& [leaf, window] : *windows) {
    leaves.push_back(static_cast<uint32_t>(leaf));
  }
  uint64_t comparisons = 0;
  for (const uint32_t target : leaves) {
    SkylineWindow& window = (*windows)[target];
    for (const uint32_t other : leaves) {
      if (!tree.CanDominate(other, target)) {
        continue;
      }
      ++comparisons;
      window.RemoveDominatedBy((*windows)[other], counter);
    }
  }
  return comparisons;
}

/// Map: BNL window per unpruned quadtree leaf, then cross-leaf filter.
class SkyMrMapper : public mr::Mapper<TupleId, uint32_t, LocalSkylineSet> {
 public:
  void Setup(mr::MapContext<uint32_t, LocalSkylineSet>& ctx) override {
    data_ = ctx.cache().Get<Dataset>(kCacheKeyDataset);
    tree_ = ctx.cache().Get<SkyQuadtree>(kCacheKeySkyQuadtree);
    constraint_ = ctx.cache().Get<Box>(kCacheKeySkyMrConstraint);
    if (data_ == nullptr || tree_ == nullptr) {
      throw mr::TaskFailure("SKY-MR mapper: cache entries missing");
    }
  }

  void Map(const TupleId& id,
           mr::MapContext<uint32_t, LocalSkylineSet>& ctx) override {
    const double* row = data_->RowPtr(id);
    if (constraint_ != nullptr &&
        !constraint_->Contains(row, data_->dim())) {
      return;
    }
    const uint32_t leaf = tree_->LeafOf(row);
    if (tree_->IsPruned(leaf)) {
      ctx.counters().Add(mr::kCounterTuplesPruned, 1);
      return;  // The sky-filter: the whole region is dominated.
    }
    auto [it, inserted] =
        windows_.try_emplace(leaf, SkylineWindow(data_->dim()));
    it->second.Insert(row, id, &dominance_counter_);
  }

  void Cleanup(mr::MapContext<uint32_t, LocalSkylineSet>& ctx) override {
    const uint64_t comparisons =
        CompareLeaves(*tree_, &windows_, &dominance_counter_);
    ctx.counters().Add(mr::kCounterPartitionComparisons,
                       static_cast<int64_t>(comparisons));
    ctx.counters().Add(mr::kCounterTupleComparisons,
                       static_cast<int64_t>(dominance_counter_.count()));
    LocalSkylineSet set;
    set.parts.reserve(windows_.size());
    for (auto& [leaf, window] : windows_) {
      set.parts.push_back(PartitionSkyline{leaf, std::move(window)});
    }
    ctx.Emit(0, set);
  }

 private:
  std::shared_ptr<const Dataset> data_;
  std::shared_ptr<const SkyQuadtree> tree_;
  std::shared_ptr<const Box> constraint_;
  CellWindowMap windows_;
  DominanceCounter dominance_counter_;
};

/// Reduce (single): merge leaf windows across mappers, cross-leaf filter.
class SkyMrReducer
    : public mr::Reducer<uint32_t, LocalSkylineSet, SkylineWindow> {
 public:
  void Setup(mr::ReduceContext<SkylineWindow>& ctx) override {
    data_ = ctx.cache().Get<Dataset>(kCacheKeyDataset);
    tree_ = ctx.cache().Get<SkyQuadtree>(kCacheKeySkyQuadtree);
    if (data_ == nullptr || tree_ == nullptr) {
      throw mr::TaskFailure("SKY-MR reducer: cache entries missing");
    }
  }

  void Reduce(const uint32_t& key,
              mr::ValueIterator<LocalSkylineSet>& values,
              mr::ReduceContext<SkylineWindow>& ctx) override {
    (void)key;
    DominanceCounter dominance_counter;
    CellWindowMap windows;
    while (values.HasNext()) {
      const LocalSkylineSet set = values.Next();
      core::MergeParts(set.parts, data_->dim(), &windows,
                       &dominance_counter);
    }
    const uint64_t comparisons =
        CompareLeaves(*tree_, &windows, &dominance_counter);
    ctx.counters().Add(mr::kCounterPartitionComparisons,
                       static_cast<int64_t>(comparisons));
    ctx.counters().Add(mr::kCounterTupleComparisons,
                       static_cast<int64_t>(dominance_counter.count()));
    ctx.Emit(core::UnionWindows(windows, data_->dim()));
  }

 private:
  std::shared_ptr<const Dataset> data_;
  std::shared_ptr<const SkyQuadtree> tree_;
};

}  // namespace

StatusOr<core::SkylineJobRun> RunSkyMrJob(
    std::shared_ptr<const Dataset> data, const Bounds& bounds,
    const SkyQuadtree::Options& options, const mr::EngineOptions& engine,
    ThreadPool* pool, const std::optional<Box>& constraint) {
  if (data == nullptr) {
    return Status::InvalidArgument("SKY-MR: dataset is null");
  }
  if (bounds.lo.size() != data->dim()) {
    return Status::InvalidArgument("SKY-MR: bounds/dim mismatch");
  }
  if (constraint.has_value()) {
    SKYMR_RETURN_IF_ERROR(constraint->Validate(data->dim()));
  }

  // Pre-processing (driver-side, as in the original): sample, build the
  // sky-quadtree, mark dominated regions.
  auto tree = std::make_shared<const SkyQuadtree>(SkyQuadtree::Build(
      *data, bounds, options,
      constraint.has_value() ? &*constraint : nullptr));

  mr::DistributedCache cache;
  SKYMR_RETURN_IF_ERROR(cache.Put(kCacheKeyDataset, data));
  SKYMR_RETURN_IF_ERROR(cache.Put(kCacheKeySkyQuadtree, tree));
  if (constraint.has_value()) {
    SKYMR_RETURN_IF_ERROR(
        cache.PutValue(kCacheKeySkyMrConstraint, *constraint));
  }

  mr::Job<TupleId, uint32_t, LocalSkylineSet, SkylineWindow> job(
      "sky-mr", [] { return std::make_unique<SkyMrMapper>(); },
      [] { return std::make_unique<SkyMrReducer>(); });

  mr::EngineOptions run_options = engine;
  run_options.num_reducers = 1;
  auto result = job.Run(
      std::views::iota(TupleId{0}, static_cast<TupleId>(data->size())),
      run_options, cache, pool);
  if (!result.ok()) {
    return result.status;
  }

  core::SkylineJobRun run;
  run.metrics = std::move(result.metrics);
  if (result.outputs.empty()) {
    run.skyline = SkylineWindow(data->dim());
  } else {
    run.skyline = std::move(result.outputs[0]);
  }
  return run;
}

}  // namespace skymr::baselines

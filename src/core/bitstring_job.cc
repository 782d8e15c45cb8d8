#include "src/core/bitstring_job.h"

#include <map>
#include <optional>
#include <ranges>
#include <span>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace skymr::core {
namespace {

/// Algorithm 1: builds one local bitstring per candidate PPD over the
/// mapper's split, binning each in-scope row into every candidate grid in
/// one pass.
class BitstringMapper
    : public mr::Mapper<TupleId, uint32_t, DynamicBitset> {
 public:
  void Setup(mr::MapContext<uint32_t, DynamicBitset>& ctx) override {
    data_ = ctx.cache().Get<Dataset>(kCacheKeyDataset);
    config_ = ctx.cache().Get<BitstringJobConfig>(kCacheKeyBitstringConfig);
    if (data_ == nullptr || config_ == nullptr) {
      throw mr::TaskFailure("bitstring mapper: cache entries missing");
    }
    std::vector<Grid> grids;
    for (const uint32_t ppd : config_->candidates) {
      auto grid_or = Grid::Create(data_->dim(), ppd, config_->bounds,
                                  config_->ppd.max_cells);
      if (!grid_or.ok()) {
        throw mr::TaskFailure("bitstring mapper: " +
                              grid_or.status().ToString());
      }
      locals_.emplace_back(ppd,
                           DynamicBitset(grid_or.value().num_cells()));
      grids.push_back(std::move(grid_or).value());
    }
    sweep_.emplace(grids);
  }

  void Map(const TupleId& id,
           mr::MapContext<uint32_t, DynamicBitset>& ctx) override {
    (void)ctx;
    const double* row = data_->RowPtr(id);
    if (config_->constraint.has_value() &&
        !config_->constraint->Contains(row, data_->dim())) {
      return;  // Constrained skyline: the tuple is out of scope.
    }
    const std::span<const uint32_t> cells = sweep_->Bin(row);
    for (size_t i = 0; i < cells.size(); ++i) {
      locals_[i].second.Set(cells[i]);
    }
  }

  void Cleanup(mr::MapContext<uint32_t, DynamicBitset>& ctx) override {
    for (auto& [ppd, bits] : locals_) {
      ctx.Emit(ppd, bits);
    }
  }

 private:
  std::shared_ptr<const Dataset> data_;
  std::shared_ptr<const BitstringJobConfig> config_;
  std::optional<GridSweep> sweep_;  // One lane per candidate.
  std::vector<std::pair<uint32_t, DynamicBitset>> locals_;
};

/// Algorithm 2 + Section 3.3: ORs the local bitstrings per candidate,
/// selects the PPD from the occupancies, and prunes dominated partitions
/// of the winner.
class BitstringReducer
    : public mr::Reducer<uint32_t, DynamicBitset, BitstringBuildResult> {
 public:
  void Setup(mr::ReduceContext<BitstringBuildResult>& ctx) override {
    config_ = ctx.cache().Get<BitstringJobConfig>(kCacheKeyBitstringConfig);
    if (config_ == nullptr) {
      throw mr::TaskFailure("bitstring reducer: config missing from cache");
    }
  }

  void Reduce(const uint32_t& ppd, mr::ValueIterator<DynamicBitset>& values,
              mr::ReduceContext<BitstringBuildResult>& ctx) override {
    (void)ctx;
    if (!values.HasNext()) {
      return;
    }
    DynamicBitset merged = values.Next();
    while (values.HasNext()) {
      merged |= values.Next();
    }
    merged_[ppd] = std::move(merged);
  }

  void Cleanup(mr::ReduceContext<BitstringBuildResult>& ctx) override {
    if (merged_.empty()) {
      throw mr::TaskFailure("bitstring reducer: no candidate bitstrings");
    }
    BitstringBuildResult result;
    for (const auto& [ppd, bits] : merged_) {
      result.occupancies.emplace_back(ppd, bits.Count());
    }
    {
      SKYMR_TRACE_SPAN("ppd.select", "candidates",
                       static_cast<int64_t>(result.occupancies.size()));
      result.ppd = SelectPpd(config_->ppd, config_->cardinality,
                             config_->bounds.lo.size(), result.occupancies);
    }
    auto it = merged_.find(result.ppd);
    if (it == merged_.end()) {
      throw mr::TaskFailure("bitstring reducer: selected PPD not merged");
    }
    result.bits = std::move(it->second);
    result.nonempty = result.bits.Count();
    auto grid_or = Grid::Create(config_->bounds.lo.size(), result.ppd,
                                config_->bounds, config_->ppd.max_cells);
    if (!grid_or.ok()) {
      throw mr::TaskFailure("bitstring reducer: " +
                            grid_or.status().ToString());
    }
    {
      SKYMR_TRACE_SPAN("bitstring.prune", "ppd",
                       static_cast<int64_t>(result.ppd), "nonempty",
                       static_cast<int64_t>(result.nonempty));
      result.pruned =
          PruneDominated(grid_or.value(), &result.bits, config_->prune_mode);
    }
    // Equations 1-2: the broadcast bitstring BS_R has exactly n^d bits,
    // and pruning only ever clears bits, never flips them on.
    SKYMR_CHECK(result.bits.size() == grid_or.value().num_cells())
        << "bitstring has " << result.bits.size() << " bits for "
        << grid_or.value().num_cells() << " cells";
    SKYMR_DCHECK(result.bits.Count() + result.pruned == result.nonempty)
        << "pruning accounting mismatch: " << result.bits.Count() << " set + "
        << result.pruned << " pruned != " << result.nonempty << " nonempty";
    ctx.counters().Add(mr::kCounterPartitionsPruned,
                       static_cast<int64_t>(result.pruned));
    ctx.Emit(std::move(result));
  }

 private:
  std::shared_ptr<const BitstringJobConfig> config_;
  std::map<uint32_t, DynamicBitset> merged_;
};

}  // namespace

StatusOr<BitstringJobRun> RunBitstringJob(
    std::shared_ptr<const Dataset> data, const BitstringJobConfig& config,
    const mr::EngineOptions& engine, ThreadPool* pool) {
  if (data == nullptr) {
    return Status::InvalidArgument("bitstring job: dataset is null");
  }
  if (config.candidates.empty()) {
    return Status::InvalidArgument("bitstring job: no candidate PPDs");
  }
  if (config.bounds.lo.size() != data->dim()) {
    return Status::InvalidArgument("bitstring job: bounds/dim mismatch");
  }

  mr::DistributedCache cache;
  SKYMR_RETURN_IF_ERROR(cache.Put(kCacheKeyDataset, data));
  SKYMR_RETURN_IF_ERROR(cache.PutValue(kCacheKeyBitstringConfig, config));

  mr::Job<TupleId, uint32_t, DynamicBitset, BitstringBuildResult> job(
      "bitstring-generation",
      [] { return std::make_unique<BitstringMapper>(); },
      [] { return std::make_unique<BitstringReducer>(); });

  mr::EngineOptions options = engine;
  options.num_reducers = 1;  // Figure 3: a single reducer merges BS_R.
  auto result = job.Run(
      std::views::iota(TupleId{0}, static_cast<TupleId>(data->size())),
      options, cache, pool);
  if (!result.ok()) {
    return result.status;
  }
  if (result.outputs.size() != 1) {
    return Status::Internal("bitstring job produced " +
                            std::to_string(result.outputs.size()) +
                            " outputs, expected 1");
  }
  BitstringJobRun run;
  run.result = std::move(result.outputs[0]);
  run.metrics = std::move(result.metrics);
  return run;
}

}  // namespace skymr::core

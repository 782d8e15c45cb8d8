#include "src/baselines/mr_angle.h"

#include <cmath>
#include <ranges>

#include "src/common/math_util.h"

namespace skymr::baselines {
namespace {

using core::CellWindowMap;
using core::kCacheKeyDataset;
using core::LocalSkylineSet;
using core::PartitionSkyline;

inline constexpr const char* kCacheKeyAnglePartitioner =
    "skymr.angle_partitioner";
inline constexpr const char* kCacheKeyAngleConstraint =
    "skymr.angle_constraint";
constexpr double kHalfPi = 1.57079632679489661923;

}  // namespace

AngularPartitioner::AngularPartitioner(size_t dim, uint32_t parts_per_angle,
                                       Bounds bounds)
    : dim_(dim),
      parts_per_angle_(dim >= 2 ? parts_per_angle : 1),
      bounds_(std::move(bounds)) {
  num_partitions_ =
      dim_ >= 2 ? PowU64(parts_per_angle_, static_cast<uint32_t>(dim_ - 1))
                : 1;
}

AngularPartitioner AngularPartitioner::ForTargetPartitions(
    size_t dim, uint32_t target_partitions, Bounds bounds) {
  if (dim < 2 || target_partitions <= 1) {
    return AngularPartitioner(dim, 1, std::move(bounds));
  }
  uint32_t parts = 1;
  while (true) {
    const std::optional<uint64_t> total =
        CheckedPow(parts, static_cast<uint32_t>(dim - 1));
    if (total.has_value() && *total >= target_partitions) {
      break;
    }
    ++parts;
  }
  return AngularPartitioner(dim, parts, std::move(bounds));
}

std::vector<double> AngularPartitioner::AnglesOf(const double* row) const {
  // Hyperspherical angles over the shifted positive orthant
  // (Vlachou et al.): phi_i = atan2(||(x_{i+1},...,x_d)||, x_i).
  std::vector<double> angles(dim_ >= 2 ? dim_ - 1 : 0);
  // Suffix norms: tail[i] = sqrt(x_{i+1}^2 + ... + x_d^2).
  double tail_sq = 0.0;
  std::vector<double> shifted(dim_);
  for (size_t k = 0; k < dim_; ++k) {
    shifted[k] = row[k] - bounds_.lo[k];
    if (shifted[k] < 0.0) {
      shifted[k] = 0.0;
    }
  }
  for (size_t i = dim_; i-- > 1;) {
    tail_sq += shifted[i] * shifted[i];
    angles[i - 1] = std::atan2(std::sqrt(tail_sq), shifted[i - 1]);
  }
  return angles;
}

uint64_t AngularPartitioner::PartitionOf(const double* row) const {
  if (dim_ < 2 || parts_per_angle_ == 1) {
    return 0;
  }
  const std::vector<double> angles = AnglesOf(row);
  uint64_t index = 0;
  uint64_t stride = 1;
  for (const double angle : angles) {
    auto cell = static_cast<uint64_t>(angle / kHalfPi *
                                      static_cast<double>(parts_per_angle_));
    if (cell >= parts_per_angle_) {
      cell = parts_per_angle_ - 1;
    }
    index += cell * stride;
    stride *= parts_per_angle_;
  }
  return index;
}

namespace {

/// Map: a BNL local skyline per angular partition over the split.
class MrAngleMapper : public mr::Mapper<TupleId, uint32_t, LocalSkylineSet> {
 public:
  void Setup(mr::MapContext<uint32_t, LocalSkylineSet>& ctx) override {
    data_ = ctx.cache().Get<Dataset>(kCacheKeyDataset);
    partitioner_ =
        ctx.cache().Get<AngularPartitioner>(kCacheKeyAnglePartitioner);
    constraint_ = ctx.cache().Get<Box>(kCacheKeyAngleConstraint);
    if (data_ == nullptr || partitioner_ == nullptr) {
      throw mr::TaskFailure("MR-Angle mapper: cache entries missing");
    }
  }

  void Map(const TupleId& id,
           mr::MapContext<uint32_t, LocalSkylineSet>& ctx) override {
    (void)ctx;
    const double* row = data_->RowPtr(id);
    if (constraint_ != nullptr && !constraint_->Contains(row, data_->dim())) {
      return;
    }
    const uint64_t part = partitioner_->PartitionOf(row);
    auto [it, inserted] =
        windows_.try_emplace(part, SkylineWindow(data_->dim()));
    it->second.Insert(row, id, &dominance_counter_);
  }

  void Cleanup(mr::MapContext<uint32_t, LocalSkylineSet>& ctx) override {
    ctx.counters().Add(mr::kCounterTupleComparisons,
                       static_cast<int64_t>(dominance_counter_.count()));
    LocalSkylineSet set;
    set.parts.reserve(windows_.size());
    for (auto& [part, window] : windows_) {
      set.parts.push_back(PartitionSkyline{part, std::move(window)});
    }
    ctx.Emit(0, set);
  }

 private:
  std::shared_ptr<const Dataset> data_;
  std::shared_ptr<const AngularPartitioner> partitioner_;
  std::shared_ptr<const Box> constraint_;
  CellWindowMap windows_;
  DominanceCounter dominance_counter_;
};

/// Reduce (single): global BNL over all local skyline tuples. Angular
/// partitions carry no dominance order, so no partition-level pruning is
/// available here.
class MrAngleReducer
    : public mr::Reducer<uint32_t, LocalSkylineSet, SkylineWindow> {
 public:
  void Reduce(const uint32_t& key,
              mr::ValueIterator<LocalSkylineSet>& values,
              mr::ReduceContext<SkylineWindow>& ctx) override {
    (void)key;
    DominanceCounter dominance_counter;
    SkylineWindow global;
    bool first = true;
    while (values.HasNext()) {
      const LocalSkylineSet set = values.Next();
      for (const PartitionSkyline& part : set.parts) {
        if (first && part.window.dim() > 0) {
          global = SkylineWindow(part.window.dim());
          first = false;
        }
        for (size_t i = 0; i < part.window.size(); ++i) {
          global.Insert(part.window.RowAt(i), part.window.IdAt(i),
                        &dominance_counter);
        }
      }
    }
    ctx.counters().Add(mr::kCounterTupleComparisons,
                       static_cast<int64_t>(dominance_counter.count()));
    ctx.Emit(std::move(global));
  }
};

}  // namespace

StatusOr<core::SkylineJobRun> RunMrAngleJob(
    std::shared_ptr<const Dataset> data, const Bounds& bounds,
    uint32_t target_partitions, const mr::EngineOptions& engine,
    ThreadPool* pool, const std::optional<Box>& constraint) {
  if (data == nullptr) {
    return Status::InvalidArgument("MR-Angle: dataset is null");
  }
  if (bounds.lo.size() != data->dim()) {
    return Status::InvalidArgument("MR-Angle: bounds/dim mismatch");
  }
  if (constraint.has_value()) {
    SKYMR_RETURN_IF_ERROR(constraint->Validate(data->dim()));
  }

  mr::DistributedCache cache;
  SKYMR_RETURN_IF_ERROR(cache.Put(kCacheKeyDataset, data));
  if (constraint.has_value()) {
    SKYMR_RETURN_IF_ERROR(
        cache.PutValue(kCacheKeyAngleConstraint, *constraint));
  }
  SKYMR_RETURN_IF_ERROR(cache.Put(
      kCacheKeyAnglePartitioner,
      std::shared_ptr<const AngularPartitioner>(
          std::make_shared<AngularPartitioner>(
              AngularPartitioner::ForTargetPartitions(
                  data->dim(), target_partitions, bounds)))));

  mr::Job<TupleId, uint32_t, LocalSkylineSet, SkylineWindow> job(
      "mr-angle", [] { return std::make_unique<MrAngleMapper>(); },
      [] { return std::make_unique<MrAngleReducer>(); });

  mr::EngineOptions options = engine;
  options.num_reducers = 1;
  auto result = job.Run(
      std::views::iota(TupleId{0}, static_cast<TupleId>(data->size())),
      options, cache, pool);
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

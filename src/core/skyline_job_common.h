// Shared plumbing of the grid-partitioning skyline job, which runs as
// MR-GPMRS and, with one reducer group, as MR-GPSRS: the broadcast job
// context and the mapper-side local skyline phase, which is identical in
// Algorithm 3 (lines 1-10) and Algorithm 8 (lines 1-10).

#ifndef SKYMR_CORE_SKYLINE_JOB_COMMON_H_
#define SKYMR_CORE_SKYLINE_JOB_COMMON_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/dynamic_bitset.h"
#include "src/common/status.h"
#include "src/core/bitstring_job.h"
#include "src/core/compare_partitions.h"
#include "src/core/grid.h"
#include "src/core/independent_groups.h"
#include "src/core/messages.h"
#include "src/common/logging.h"
#include "src/local/bbs.h"
#include "src/local/sfs.h"
#include "src/local/skyline_window.h"
#include "src/mapreduce/job.h"
#include "src/obs/metrics.h"
#include "src/relation/box.h"
#include "src/relation/skyline_verify.h"

namespace skymr::core {

/// Distributed cache key for the SkylineJobContext.
inline constexpr const char* kCacheKeySkylineContext = "skymr.skyline_ctx";

/// Which single-node algorithm mappers use for per-partition local
/// skylines. The paper uses InsertTuple (streaming BNL, Algorithm 4) and
/// names optimizing this step as future work (Section 8); kSfs realizes
/// that with presorting (Chomicki et al.): buffer a partition's tuples,
/// sort by coordinate sum, then filter with one-directional checks. kBbs
/// is the output-sensitive branch-and-bound kernel over a bulk-loaded
/// R-tree (src/local/bbs.h); kAuto picks kBbs or kSfs per partition from
/// its size and dimensionality (ResolveAutoKernel below), recording the
/// decisions in the JobReport via the skymr.bbs.auto_* counters.
enum class LocalAlgorithm {
  kBnl,
  kSfs,
  kBbs,
  kAuto,
};

inline const char* LocalAlgorithmName(LocalAlgorithm algorithm) {
  switch (algorithm) {
    case LocalAlgorithm::kBnl:
      return "bnl";
    case LocalAlgorithm::kSfs:
      return "sfs";
    case LocalAlgorithm::kBbs:
      return "bbs";
    case LocalAlgorithm::kAuto:
      return "auto";
  }
  return "unknown";
}

inline StatusOr<LocalAlgorithm> ParseLocalAlgorithm(const std::string& name) {
  if (name == "bnl") {
    return LocalAlgorithm::kBnl;
  }
  if (name == "sfs") {
    return LocalAlgorithm::kSfs;
  }
  if (name == "bbs") {
    return LocalAlgorithm::kBbs;
  }
  if (name == "auto") {
    return LocalAlgorithm::kAuto;
  }
  return Status::InvalidArgument("unknown local algorithm: " + name);
}

/// The dimensionality from which BBS can beat a window kernel: the
/// skyline is then a large fraction of a partition. kAuto's crossover
/// below and the doctor's local-kernel check both read it.
inline constexpr size_t kBbsMinDim = 5;

/// kAuto's per-partition choice. The crossover is empirical
/// (bench_kernel_crossover baseline): the tree kernel's per-candidate
/// descents beat the window scan once the skyline is a large fraction of
/// the partition — high dimensionality — and the partition is big enough
/// to amortize the STR build; below that, SFS's sorted scan wins.
inline LocalAlgorithm ResolveAutoKernel(size_t partition_tuples,
                                        size_t dim) {
  return (dim >= kBbsMinDim && partition_tuples >= 512)
             ? LocalAlgorithm::kBbs
             : LocalAlgorithm::kSfs;
}

/// Deterministic BBS counters (DESIGN.md §13.5). The first three total
/// BbsStats across a task's partitions; the auto_* pair records kAuto's
/// per-partition decisions in the JobReport.
inline constexpr const char* kCounterBbsNodesVisited =
    "skymr.bbs.nodes_visited";
inline constexpr const char* kCounterBbsEntriesPruned =
    "skymr.bbs.entries_pruned";
inline constexpr const char* kCounterBbsHeapPeak = "skymr.bbs.heap_peak";
inline constexpr const char* kCounterBbsAutoBbs =
    "skymr.bbs.auto_bbs_partitions";
inline constexpr const char* kCounterBbsAutoSfs =
    "skymr.bbs.auto_sfs_partitions";

/// Side data broadcast to every task of a skyline job: the grid, the
/// Equation 2 bitstring BS_R, the optional constraint box, and the
/// reducer groups.
struct SkylineJobContext {
  Grid grid;
  DynamicBitset bits;
  /// The groups mappers ship to, computed once per job; entry i is reducer
  /// key i. MR-GPMRS: Algorithm 7's independent groups assigned to
  /// reducers with Section 5.4's merging and output responsibility.
  /// MR-GPSRS: one group of every set cell, all of them responsible.
  std::vector<ReducerGroup> reducer_groups;
  std::optional<Box> constraint;
  LocalAlgorithm local_algorithm = LocalAlgorithm::kBnl;

  SkylineJobContext(Grid g, DynamicBitset b)
      : grid(std::move(g)), bits(std::move(b)) {}
};

/// Result of one skyline job: the global skyline plus engine metrics.
struct SkylineJobRun {
  SkylineWindow skyline;
  mr::JobMetrics metrics;
};

/// Input-size ceiling for the debug-only skyline cross-check below; the
/// reference is O(n^2), so the check is restricted to inputs where it
/// stays cheap enough to run after every job in sanitizer CI.
inline constexpr size_t kDebugSkylineVerifyMaxTuples = 4096;

/// Debug/sanitizer builds only (SKYMR_DCHECK_IS_ON): cross-checks a
/// finished GPSRS/GPMRS run against the O(n^2) reference skyline — of the
/// in-box rows for a constrained run — and aborts on any mismatch. Inputs
/// too large for the quadratic check are skipped.
inline void DebugVerifySkyline(const char* algorithm, const Dataset& data,
                               const SkylineWindow& skyline,
                               const std::optional<Box>& constraint) {
  if (!DchecksEnabled() || data.size() > kDebugSkylineVerifyMaxTuples) {
    return;
  }
  const std::string mismatch =
      constraint.has_value()
          ? ExplainSkylineMismatch(data, *constraint, skyline.ids())
          : ExplainSkylineMismatch(data, skyline.ids());
  SKYMR_CHECK(mismatch.empty())
      << algorithm << " produced a wrong skyline: " << mismatch;
}

/// The mapper-side local phase: per-partition BNL windows for unpruned
/// partitions, then ComparePartitions across the mapper's windows.
class LocalSkylinePhase {
 public:
  /// Loads the dataset and job context from the distributed cache.
  /// Throws TaskFailure when side data is missing.
  void Setup(const mr::DistributedCache& cache) {
    data_ = cache.Get<Dataset>(kCacheKeyDataset);
    context_ = cache.Get<SkylineJobContext>(kCacheKeySkylineContext);
    if (data_ == nullptr || context_ == nullptr) {
      throw mr::TaskFailure("skyline mapper: cache entries missing");
    }
  }

  /// Algorithm 3 / 8, lines 2-8: route the tuple to its partition's window
  /// unless the partition was pruned by the bitstring (or the tuple falls
  /// outside the constraint box of a constrained skyline query).
  void Add(TupleId id) {
    const double* row = data_->RowPtr(id);
    if (context_->constraint.has_value() &&
        !context_->constraint->Contains(row, data_->dim())) {
      return;
    }
    const CellId cell = context_->grid.CellOf(row);
    if (!context_->bits.Test(cell)) {
      ++tuples_pruned_;
      return;  // Line 4: the partition cannot contain skyline tuples.
    }
    if (context_->local_algorithm != LocalAlgorithm::kBnl) {
      // SFS sorts and BBS tree-packs the whole partition at once.
      buffered_[cell].push_back(id);
      return;
    }
    auto [it, inserted] =
        windows_.try_emplace(cell, SkylineWindow(data_->dim()));
    it->second.Insert(row, id, &dominance_counter_);
  }

  /// Algorithm 3 / 8, lines 9-10: remove cross-partition false positives.
  /// Returns the windows ComparePartitions left non-empty and records
  /// counters; `sketches` receives every partition's window length after
  /// ComparePartitions, emptied ones included, as the skymr.window_size
  /// distribution.
  CellWindowMap Finish(
      mr::Counters* counters,
      std::map<std::string, obs::QuantileSketch>* sketches) {
    const LocalAlgorithm algorithm = context_->local_algorithm;
    if (algorithm != LocalAlgorithm::kBnl) {
      for (auto& [cell, ids] : buffered_) {
        LocalAlgorithm resolved = algorithm;
        if (algorithm == LocalAlgorithm::kAuto) {
          resolved = ResolveAutoKernel(ids.size(), data_->dim());
          if (resolved == LocalAlgorithm::kBbs) {
            ++auto_bbs_partitions_;
          } else {
            ++auto_sfs_partitions_;
          }
        }
        if (resolved == LocalAlgorithm::kBbs) {
          // The constraint was applied per tuple in Add(); the kernel's
          // own box hook is for callers outside the phase.
          windows_.emplace(
              cell, BbsSkyline({*data_, std::move(ids)},
                               &dominance_counter_, &bbs_stats_,
                               /*constraint=*/nullptr, &bbs_scratch_));
        } else {
          windows_.emplace(cell, SfsSkyline({*data_, std::move(ids)},
                                            &dominance_counter_));
        }
      }
      buffered_.clear();
    }
    const uint64_t partition_comparisons = CompareAllPartitions(
        context_->grid, &windows_, &dominance_counter_);
    counters->Add(mr::kCounterPartitionComparisons,
                  static_cast<int64_t>(partition_comparisons));
    counters->Add(mr::kCounterTupleComparisons,
                  static_cast<int64_t>(dominance_counter_.count()));
    counters->Add(mr::kCounterTuplesPruned,
                  static_cast<int64_t>(tuples_pruned_));
    if (algorithm == LocalAlgorithm::kBbs ||
        algorithm == LocalAlgorithm::kAuto) {
      counters->Add(kCounterBbsNodesVisited,
                    static_cast<int64_t>(bbs_stats_.nodes_visited));
      counters->Add(kCounterBbsEntriesPruned,
                    static_cast<int64_t>(bbs_stats_.entries_pruned));
      counters->Add(kCounterBbsHeapPeak,
                    static_cast<int64_t>(bbs_stats_.heap_peak));
    }
    if (algorithm == LocalAlgorithm::kAuto) {
      counters->Add(kCounterBbsAutoBbs,
                    static_cast<int64_t>(auto_bbs_partitions_));
      counters->Add(kCounterBbsAutoSfs,
                    static_cast<int64_t>(auto_sfs_partitions_));
    }
    if (sketches != nullptr && !windows_.empty()) {
      obs::QuantileSketch& window_size = (*sketches)["skymr.window_size"];
      for (const auto& [cell, window] : windows_) {
        window_size.Add(static_cast<double>(window.size()));
      }
    }
    // An emptied window holds nothing a reducer could merge or compare
    // against, so it is not shipped.
    std::erase_if(windows_,
                  [](const auto& entry) { return entry.second.empty(); });
    return std::move(windows_);
  }

  const Dataset& data() const { return *data_; }
  const SkylineJobContext& context() const { return *context_; }

 private:
  std::shared_ptr<const Dataset> data_;
  std::shared_ptr<const SkylineJobContext> context_;
  CellWindowMap windows_;
  std::map<CellId, std::vector<TupleId>> buffered_;  // non-kBnl kernels.
  DominanceCounter dominance_counter_;
  BbsStats bbs_stats_;
  BbsScratch bbs_scratch_;
  uint64_t tuples_pruned_ = 0;
  uint64_t auto_bbs_partitions_ = 0;
  uint64_t auto_sfs_partitions_ = 0;
};

}  // namespace skymr::core

#endif  // SKYMR_CORE_SKYLINE_JOB_COMMON_H_

// The benchmark's three workloads and the query each one asks.
//
// Every workload is a closed loop: each client sends its next query only
// after the previous one returned. Pool threads plus client threads are 4,
// the core count of the machine the bounds in BENCHMARK.json were set on,
// and are fixed here rather than taken from the host.
//
//   batch-indep-d6  1e5 independent tuples, d=6; each query is a fresh
//                   Session::Open + Submit of the default QuerySpec
//                   (MR-GPMRS, BNL) with 13 map tasks and 13 reducers.
//                   PPD 4 gives 4,096 cells, so ComparePartitions does most
//                   of the map-side work.
//   batch-anti-d6   the same shape over anti-correlated tuples. PPD 2 gives
//                   64 cells and an ~18k-tuple skyline, so dominance tests
//                   and the reducer merge dominate.
//   serve-boxes     1e6 independent tuples, d=4, behind one resident
//                   Session with the `skymr_cli serve` engine defaults
//                   (4 map tasks, 2 reducers). Constrained queries over
//                   boxes 0.6 wide per dimension (~13% of the rows), GPMRS
//                   and GPSRS alternating; 3 of every 4 queries reuse one
//                   of 16 boxes primed at setup (bitstring cache hits), the
//                   4th asks for a box never seen before (a miss).

#ifndef QUERYBENCH_WORKLOAD_H_
#define QUERYBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "src/skymr.h"

namespace querybench {

struct Workload {
  std::string_view name;
  skymr::data::Distribution distribution;
  size_t cardinality;
  size_t dim;
  /// Worker threads of the session pool and closed-loop client threads.
  int pool_threads;
  int clients;
  int map_tasks;
  int reducers;
  /// One Session for the whole run (serve) instead of one per query.
  bool resident;
};

inline constexpr Workload kWorkloads[] = {
    {"batch-indep-d6", skymr::data::Distribution::kIndependent, 100000, 6,
     3, 1, 13, 13, false},
    {"batch-anti-d6", skymr::data::Distribution::kAntiCorrelated, 100000, 6,
     3, 1, 13, 13, false},
    {"serve-boxes", skymr::data::Distribution::kIndependent, 1000000, 4, 2,
     2, 4, 2, true},
};

/// Null for an unknown name.
const Workload* FindWorkload(std::string_view name);

/// The dataset-scoped options every query of `workload` runs under.
skymr::SessionOptions MakeSessionOptions(const Workload& workload);

// ---- Constraint boxes of serve-boxes ---------------------------------------

inline constexpr size_t kHotBoxes = 16;
/// Fresh boxes drawn per seed: more than a 60-second run at several
/// hundred queries per second can ask for (every 4th query takes one).
inline constexpr size_t kFreshBoxes = 8192;
inline constexpr double kBoxWidth = 0.6;

/// kHotBoxes then kFreshBoxes boxes, each kBoxWidth wide per dimension at
/// a seeded uniform position inside the unit cube.
std::vector<skymr::Box> DrawBoxes(size_t dim, uint64_t seed);

/// Boxes as rows (lo..., hi...) so they round-trip through data::SaveCsv
/// and data::LoadCsv exactly.
skymr::Dataset BoxesToRows(const std::vector<skymr::Box>& boxes);
skymr::StatusOr<std::vector<skymr::Box>> BoxesFromRows(
    const skymr::Dataset& rows);

// ---- The query sequence ----------------------------------------------------

/// The `index`-th query of a run. Deterministic in (workload, boxes,
/// index), so the first N queries of every run with one seed are the
/// same questions whichever client sent them.
struct PlannedQuery {
  skymr::QuerySpec spec;
  /// Index into the box list (-1 = unconstrained).
  int64_t box = -1;
  /// The box was primed at setup, so the bitstring phase is a cache hit.
  bool hot = false;
};

PlannedQuery PlanQuery(const Workload& workload,
                       const std::vector<skymr::Box>& boxes, int64_t index);

}  // namespace querybench

#endif  // QUERYBENCH_WORKLOAD_H_

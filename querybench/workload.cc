#include "querybench/workload.h"

namespace querybench {

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& workload : kWorkloads) {
    if (workload.name == name) {
      return &workload;
    }
  }
  return nullptr;
}

skymr::SessionOptions MakeSessionOptions(const Workload& workload) {
  skymr::SessionOptions options;
  options.engine.num_map_tasks = workload.map_tasks;
  options.engine.num_reducers = workload.reducers;
  options.engine.num_threads = workload.pool_threads;
  if (workload.resident) {
    // The `skymr_cli serve` admission defaults: 3 slots, 1 reserved for
    // small queries. Two clients never queue behind them.
    options.admission_slots = 3;
    options.small_reserved_slots = 1;
  }
  return options;
}

namespace {

/// SplitMix64: a fixed, library-independent stream, so a seed draws the
/// same boxes with every standard library.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::vector<skymr::Box> DrawBoxes(size_t dim, uint64_t seed) {
  uint64_t state = seed ^ 0x626f7865732d7631ULL;  // "boxes-v1"
  std::vector<skymr::Box> boxes(kHotBoxes + kFreshBoxes);
  for (skymr::Box& box : boxes) {
    box.lo.resize(dim);
    box.hi.resize(dim);
    for (size_t k = 0; k < dim; ++k) {
      const double unit =
          static_cast<double>(NextRandom(&state) >> 11) * 0x1.0p-53;
      box.lo[k] = unit * (1.0 - kBoxWidth);
      box.hi[k] = box.lo[k] + kBoxWidth;
    }
  }
  return boxes;
}

skymr::Dataset BoxesToRows(const std::vector<skymr::Box>& boxes) {
  const size_t dim = boxes.empty() ? 1 : boxes.front().lo.size();
  skymr::Dataset rows(2 * dim);
  std::vector<double> row(2 * dim);
  for (const skymr::Box& box : boxes) {
    for (size_t k = 0; k < dim; ++k) {
      row[k] = box.lo[k];
      row[dim + k] = box.hi[k];
    }
    rows.Append(row);
  }
  return rows;
}

skymr::StatusOr<std::vector<skymr::Box>> BoxesFromRows(
    const skymr::Dataset& rows) {
  if (rows.dim() % 2 != 0) {
    return skymr::Status::InvalidArgument("box rows need lo and hi columns");
  }
  const size_t dim = rows.dim() / 2;
  std::vector<skymr::Box> boxes(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const double* row = rows.RowPtr(static_cast<skymr::TupleId>(i));
    boxes[i].lo.assign(row, row + dim);
    boxes[i].hi.assign(row + dim, row + 2 * dim);
    SKYMR_RETURN_IF_ERROR(boxes[i].Validate(dim));
  }
  return boxes;
}

PlannedQuery PlanQuery(const Workload& workload,
                       const std::vector<skymr::Box>& boxes, int64_t index) {
  PlannedQuery query;
  query.spec.query.id = static_cast<uint64_t>(index) + 1;
  if (!workload.resident) {
    return query;  // the default QuerySpec: MR-GPMRS over every tuple
  }
  const int64_t round = index / 4;
  const int64_t slot = index % 4;
  if (slot == 3) {
    query.box = static_cast<int64_t>(kHotBoxes) + round;
  } else {
    query.box = (3 * round + slot) % static_cast<int64_t>(kHotBoxes);
    query.hot = true;
  }
  // Alternate the skyline job within both classes: query 0 (a hit) is
  // GPMRS, query 3 (the first miss) is GPSRS.
  query.spec.algorithm = (round + index) % 2 == 0
                             ? skymr::Algorithm::kMrGpmrs
                             : skymr::Algorithm::kMrGpsrs;
  query.spec.constraint = boxes.at(static_cast<size_t>(query.box));
  return query;
}

}  // namespace querybench

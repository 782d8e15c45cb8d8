// Axis-aligned constraint boxes for constrained skyline queries: the
// skyline is computed over only the tuples inside the box (closed on both
// ends). Constrained skylines are a standard extension (e.g. Chen, Cui &
// Lu, TKDE 2011, cited by the paper) and fit the grid scheme naturally —
// tuples outside the box never set a bitstring bit, so whole partitions
// outside the constraint are pruned for free.

#ifndef SKYMR_RELATION_BOX_H_
#define SKYMR_RELATION_BOX_H_

#include <cstddef>
#include <vector>

#include "src/common/status.h"

namespace skymr {

/// A closed axis-aligned box [lo, hi] used as a skyline constraint.
struct Box {
  std::vector<double> lo;
  std::vector<double> hi;

  /// True iff `row` lies inside the box on every dimension. Every
  /// dimension is tested, with no early exit: a scan over many rows then
  /// has no data-dependent branch to mispredict. A NaN coordinate fails
  /// both comparisons, so it counts as inside.
  bool Contains(const double* row, size_t dim) const {
    const double* low = lo.data();
    const double* high = hi.data();
    bool outside = false;
    for (size_t k = 0; k < dim; ++k) {
      outside |= (row[k] < low[k]) | (row[k] > high[k]);
    }
    return !outside;
  }

  /// Checks the box is well-formed for `dim`-dimensional data.
  Status Validate(size_t dim) const {
    if (lo.size() != dim || hi.size() != dim) {
      return Status::InvalidArgument(
          "constraint box width does not match the data dimension");
    }
    for (size_t k = 0; k < dim; ++k) {
      if (!(lo[k] <= hi[k])) {
        return Status::InvalidArgument(
            "constraint box has lo > hi (or NaN) on a dimension");
      }
    }
    return Status::OK();
  }
};

}  // namespace skymr

#endif  // SKYMR_RELATION_BOX_H_

// Helpers for validating skyline results against a reference and comparing
// skylines as tuple-id sets. Used by tests and by the experiment harness's
// self-checks.

#ifndef SKYMR_RELATION_SKYLINE_VERIFY_H_
#define SKYMR_RELATION_SKYLINE_VERIFY_H_

#include <string>
#include <vector>

#include "src/relation/box.h"
#include "src/relation/dataset.h"
#include "src/relation/tuple.h"

namespace skymr {

/// Reference O(n^2) skyline over the whole dataset. Duplicated tuples (equal
/// on every dimension) are all retained, matching Definition 1 where equal
/// tuples do not dominate each other.
std::vector<TupleId> ReferenceSkyline(const Dataset& data);

/// Reference skyline of the rows of `data` inside `box` (a constrained
/// query's answer), reported by their ids in `data`.
std::vector<TupleId> ReferenceSkyline(const Dataset& data, const Box& box);

/// True iff `candidate` equals `expected` as a set of tuple ids.
bool SameIdSet(std::vector<TupleId> candidate, std::vector<TupleId> expected);

/// Checks that `candidate` is exactly the skyline of `data`:
/// every candidate is non-dominated, no non-dominated tuple is missing, and
/// no id repeats. Returns an empty string on success, else a diagnostic.
std::string ExplainSkylineMismatch(const Dataset& data,
                                   const std::vector<TupleId>& candidate);

/// The constrained-query form: `candidate` must be exactly the skyline of
/// the rows of `data` inside `box`, reported by their ids in `data`.
std::string ExplainSkylineMismatch(const Dataset& data, const Box& box,
                                   const std::vector<TupleId>& candidate);

}  // namespace skymr

#endif  // SKYMR_RELATION_SKYLINE_VERIFY_H_

#include "src/relation/skyline_verify.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "src/relation/dominance.h"

namespace skymr {

std::vector<TupleId> ReferenceSkyline(const Dataset& data) {
  const size_t n = data.size();
  const size_t d = data.dim();
  std::vector<TupleId> result;
  for (size_t i = 0; i < n; ++i) {
    const double* row_i = data.RowPtr(static_cast<TupleId>(i));
    bool dominated = false;
    for (size_t j = 0; j < n; ++j) {
      if (i == j) {
        continue;
      }
      if (Dominates(data.RowPtr(static_cast<TupleId>(j)), row_i, d)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      result.push_back(static_cast<TupleId>(i));
    }
  }
  return result;
}

std::vector<TupleId> ReferenceSkyline(const Dataset& data, const Box& box) {
  Dataset in_box(data.dim());
  std::vector<TupleId> original_ids;  // In-box row -> id in `data`.
  for (size_t i = 0; i < data.size(); ++i) {
    const auto id = static_cast<TupleId>(i);
    if (box.Contains(data.RowPtr(id), data.dim())) {
      in_box.Append(data.Row(id));
      original_ids.push_back(id);
    }
  }
  std::vector<TupleId> result;
  for (const TupleId local : ReferenceSkyline(in_box)) {
    result.push_back(original_ids[local]);
  }
  return result;
}

bool SameIdSet(std::vector<TupleId> candidate, std::vector<TupleId> expected) {
  std::sort(candidate.begin(), candidate.end());
  std::sort(expected.begin(), expected.end());
  return candidate == expected;
}

namespace {

/// Diagnoses `candidate` against the `expected` skyline ids of a dataset
/// with `n` rows.
std::string ExplainAgainst(size_t n, const std::vector<TupleId>& expected,
                           const std::vector<TupleId>& candidate) {
  std::unordered_set<TupleId> seen;
  for (const TupleId id : candidate) {
    if (!seen.insert(id).second) {
      std::ostringstream os;
      os << "duplicate tuple id " << id << " in skyline output";
      return os.str();
    }
    if (id >= n) {
      std::ostringstream os;
      os << "tuple id " << id << " out of range (dataset size " << n << ")";
      return os.str();
    }
  }
  std::unordered_set<TupleId> expected_set(expected.begin(), expected.end());
  for (const TupleId id : candidate) {
    if (expected_set.find(id) == expected_set.end()) {
      std::ostringstream os;
      os << "tuple id " << id << " is dominated but reported in skyline";
      return os.str();
    }
  }
  if (candidate.size() != expected.size()) {
    std::ostringstream os;
    os << "skyline size mismatch: got " << candidate.size() << ", expected "
       << expected.size();
    return os.str();
  }
  return "";
}

}  // namespace

std::string ExplainSkylineMismatch(const Dataset& data,
                                   const std::vector<TupleId>& candidate) {
  return ExplainAgainst(data.size(), ReferenceSkyline(data), candidate);
}

std::string ExplainSkylineMismatch(const Dataset& data, const Box& box,
                                   const std::vector<TupleId>& candidate) {
  for (const TupleId id : candidate) {
    if (id < data.size() && !box.Contains(data.RowPtr(id), data.dim())) {
      std::ostringstream os;
      os << "tuple id " << id << " lies outside the constraint box";
      return os.str();
    }
  }
  return ExplainAgainst(data.size(), ReferenceSkyline(data, box), candidate);
}

}  // namespace skymr

// The per-query half of the session API (DESIGN.md §17).
//
// A Session (serve/session.h) holds the state that is fixed while a
// dataset is resident — grid policy, bounds choice, engine sizing, the
// worker pool, the caches (SessionOptions). QuerySpec is everything one
// request brings: which skyline job to run, the mapper-side kernel, the
// group-merge policy, the constraint box, and the query's
// identity/deadline/tag. A Session answers many QuerySpecs over one
// dataset. The hybrid switch, the baselines' partitioning and the GPMRS
// -> GPSRS degradation run on fixed defaults (serve/session.cc).

#ifndef SKYMR_SERVE_QUERY_SPEC_H_
#define SKYMR_SERVE_QUERY_SPEC_H_

#include <optional>

#include "src/core/independent_groups.h"
#include "src/core/runner.h"
#include "src/core/skyline_job_common.h"
#include "src/obs/log.h"
#include "src/relation/box.h"

namespace skymr {

/// Everything one query brings to a resident session. A default
/// QuerySpec asks the paper's question: MR-GPMRS with BNL local
/// skylines and computation-cost group merging, unconstrained.
struct QuerySpec {
  Algorithm algorithm = Algorithm::kMrGpmrs;
  /// Mapper-side local skyline algorithm (kBnl is the paper's
  /// InsertTuple; kSfs and the R-tree kBbs realize the Section 8
  /// future-work optimization; kAuto picks kBbs vs kSfs per partition).
  core::LocalAlgorithm local_algorithm = core::LocalAlgorithm::kBnl;
  /// MR-GPMRS group merging policy (Section 5.4.1).
  core::GroupMergeStrategy merge =
      core::GroupMergeStrategy::kComputationCost;
  /// Constrained skyline query: when set, the skyline is computed over
  /// only the tuples inside this box. Partitions outside the box never
  /// enter the bitstring, so they are pruned before any tuple work. Part
  /// of the bitstring fingerprint, so constrained and unconstrained
  /// queries never share a cache entry.
  std::optional<Box> constraint;
  /// Query identity: stable id, latency budget, free-form tag. Threaded
  /// through the engine so logs/traces/metrics correlate per query.
  obs::QueryContext query;

  /// Rejects algorithm/merge/local-kernel enums outside their declared
  /// range. Called by Session::Submit and Session::Warmup.
  Status Validate() const;
};

}  // namespace skymr

#endif  // SKYMR_SERVE_QUERY_SPEC_H_

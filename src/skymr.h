// Public facade for the skymr library: efficient skyline computation in
// (simulated) MapReduce, reproducing Mullesgaard, Pedersen, Lu & Zhou,
// "Efficient Skyline Computation in MapReduce", EDBT 2014.
//
// Typical usage:
//
//   #include "src/skymr.h"
//
//   skymr::Dataset data = skymr::data::GenerateAntiCorrelated(100000, 6, 1);
//   skymr::SessionOptions options;        // dataset-scoped: engine, grid
//   options.engine.num_map_tasks = 13;
//   options.engine.num_reducers = 13;
//   auto session = skymr::Session::Open(data, options);
//   if (session.ok()) {
//     skymr::QuerySpec query;             // per-query: algorithm, box
//     query.algorithm = skymr::Algorithm::kMrGpmrs;
//     auto result = (*session)->Submit(query);
//     // result->skyline holds the tuples; result->modeled_seconds the
//     // modeled 13-node cluster runtime. Later queries with the same
//     // grid fingerprint reuse the session's cached bitstring phase.
//   }
//
// This header exposes the supported public surface only:
//
//   * Dataset / generators / CSV IO       (relation/, data/)
//   * Session / SessionOptions / QuerySpec (serve/: the one entry point)
//   * Algorithm, SkylineResult, PipelineCheckpoint
//   * ChaosSchedule / ChaosProfile        (deterministic fault injection)
//   * skyline verification                (relation/skyline_verify.h)
//   * report / trace / doctor writers     (obs/)
//
// Everything else — individual job runners (core/gpsrs.h, core/gpmrs.h,
// baselines/*), the raw engine (mapreduce/job.h), grid and bitstring
// internals, the cost model — is an implementation detail. Those headers
// are stable enough to include directly when you need them (the tests and
// benches do), but they are not re-exported here and may change shape
// between revisions without notice.

#ifndef SKYMR_SKYMR_H_
#define SKYMR_SKYMR_H_

// Data model: datasets, generators, CSV round-trip, dominance.
#include "src/common/status.h"
#include "src/data/dataset_io.h"
#include "src/data/generator.h"
#include "src/relation/dataset.h"
#include "src/relation/dominance.h"
#include "src/relation/skyline_verify.h"

// The pipeline vocabulary, phase checkpointing, and deterministic fault
// injection (SessionOptions::engine.chaos).
#include "src/core/checkpoint.h"
#include "src/core/runner.h"
#include "src/mapreduce/chaos.h"

// The serving layer: a dataset-resident Session answering concurrent
// QuerySpecs with admission control and cross-query bitstring caching.
#include "src/serve/query_spec.h"
#include "src/serve/session.h"

// Observability: job reports, trace export, report analysis,
// critical-path attribution, and the cross-job metrics registry.
#include "src/obs/critical_path.h"
#include "src/obs/doctor.h"
#include "src/obs/job_report.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

#endif  // SKYMR_SKYMR_H_

// Harness: configuration validation (ValidateChaosSchedule,
// SessionOptions::Validate and QuerySpec::Validate) plus a bounded
// end-to-end Session::Open + Submit run.
//
// Properties enforced:
//   1. validation is total: arbitrary field values — including NaN,
//      infinities, negative zero, and out-of-range enums — come back as
//      a Status, never a throw, crash, or hang. Raw double bit patterns
//      are used deliberately: NaN passing a range check here once meant
//      an unterminating retry loop downstream;
//   2. validation is sound for enums: a configuration that validates
//      has every enum inside its declared range (unchecked, an
//      out-of-range merge strategy would return an empty skyline with an
//      OK status);
//   3. Open and Submit honor their never-throws contract: with a bounded
//      (small, terminating) configuration and a tiny dataset, any
//      outcome is acceptable as long as it is a Status.
//
// Field consumption order is load-bearing: fuzz/gen_seed_corpus.cc
// writes seed inputs by appending fields in exactly the order consumed
// here. Keep the two in sync.

#include <cstdint>

#include "fuzz/fuzz_common.h"
#include "src/core/checkpoint.h"
#include "src/mapreduce/chaos.h"
#include "src/serve/session.h"

namespace {

using skymr::fuzz::FuzzInput;

skymr::mr::ChaosSchedule ConsumeChaosSchedule(FuzzInput* input) {
  skymr::mr::ChaosSchedule chaos;
  chaos.seed = input->ConsumeRaw<uint64_t>();
  chaos.crash_rate = input->ConsumeDouble();
  chaos.crash_until_attempt = input->ConsumeRaw<int32_t>();
  chaos.slow_rate = input->ConsumeDouble();
  chaos.slow_ms = input->ConsumeDouble();
  chaos.slow_task = input->ConsumeRaw<int32_t>();
  chaos.slow_until_attempt = input->ConsumeRaw<int32_t>();
  chaos.corrupt_rate = input->ConsumeDouble();
  chaos.cache_fail_rate = input->ConsumeDouble();
  chaos.fail_job = input->ConsumeBytes(8);
  return chaos;
}

/// Arbitrary-bits config: every numeric field straight from the fuzz
/// input, into the session and query halves. Only Validate() may run on
/// this — the property is that it rejects garbage with a Status instead
/// of letting it near the engine.
void ConsumeRawConfig(FuzzInput* input, skymr::SessionOptions* options,
                      skymr::QuerySpec* query) {
  query->algorithm =
      static_cast<skymr::Algorithm>(input->ConsumeRaw<uint8_t>());
  options->engine.num_map_tasks = input->ConsumeRaw<int32_t>();
  options->engine.num_reducers = input->ConsumeRaw<int32_t>();
  options->engine.num_threads = input->ConsumeRaw<int16_t>();
  options->engine.max_task_attempts = input->ConsumeRaw<int32_t>();
  options->engine.retry_backoff_base_ms = input->ConsumeDouble();
  options->engine.retry_backoff_max_ms = input->ConsumeDouble();
  options->engine.chaos = ConsumeChaosSchedule(input);
  options->ppd.explicit_ppd = input->ConsumeRaw<uint32_t>();
  options->ppd.strategy =
      static_cast<skymr::core::PpdStrategy>(input->ConsumeRaw<uint8_t>());
  options->ppd.target_tpp = input->ConsumeDouble();
  options->ppd.max_candidate = input->ConsumeRaw<uint32_t>();
  options->ppd.max_cells = input->ConsumeRaw<uint64_t>();
  options->prune_mode =
      static_cast<skymr::core::PruneMode>(input->ConsumeRaw<uint8_t>());
  query->merge = static_cast<skymr::core::GroupMergeStrategy>(
      input->ConsumeRaw<uint8_t>());
  query->local_algorithm =
      static_cast<skymr::core::LocalAlgorithm>(input->ConsumeRaw<uint8_t>());
}

/// True when every enum of the pair lies inside its declared range.
bool EnumsInRange(const skymr::SessionOptions& options,
                  const skymr::QuerySpec& query) {
  const auto at_most = [](auto value, auto last) {
    return static_cast<int>(value) >= 0 &&
           static_cast<int>(value) <= static_cast<int>(last);
  };
  return at_most(query.algorithm, skymr::Algorithm::kSkyMr) &&
         at_most(query.merge, skymr::core::GroupMergeStrategy::kBalanced) &&
         at_most(query.local_algorithm, skymr::core::LocalAlgorithm::kAuto) &&
         at_most(options.prune_mode, skymr::core::PruneMode::kPrefix) &&
         at_most(options.ppd.strategy, skymr::core::PpdStrategy::kTargetTpp);
}

/// Bounded config: small task counts, one thread, few attempts, mild
/// chaos — everything a run needs to terminate quickly, while still
/// exploring the validation boundary and the failure/degradation paths.
void ConsumeBoundedConfig(FuzzInput* input, skymr::SessionOptions* options,
                          skymr::QuerySpec* query) {
  query->algorithm = static_cast<skymr::Algorithm>(
      input->ConsumeIntegralInRange(0, 5));
  options->engine.num_map_tasks =
      static_cast<int>(input->ConsumeIntegralInRange(1, 4));
  options->engine.num_reducers =
      static_cast<int>(input->ConsumeIntegralInRange(1, 4));
  options->engine.num_threads = 1;
  options->engine.max_task_attempts =
      static_cast<int>(input->ConsumeIntegralInRange(1, 4));
  options->engine.retry_backoff_base_ms = 0.0;  // No sleeping in fuzz runs.
  options->engine.chaos.seed = input->ConsumeRaw<uint64_t>();
  options->engine.chaos.crash_rate = 0.5 * input->ConsumeUnitDouble();
  options->engine.chaos.corrupt_rate = 0.5 * input->ConsumeUnitDouble();
  options->engine.chaos.cache_fail_rate = 0.5 * input->ConsumeUnitDouble();
  options->ppd.max_candidate =
      static_cast<uint32_t>(input->ConsumeIntegralInRange(2, 6));
  if (input->ConsumeBool()) {
    options->ppd.explicit_ppd =
        static_cast<uint32_t>(input->ConsumeIntegralInRange(2, 4));
  }
  query->merge = static_cast<skymr::core::GroupMergeStrategy>(
      input->ConsumeIntegralInRange(0, 3));
  options->unit_bounds = input->ConsumeBool();
}

/// Fixed tiny dataset: 8 tuples, 2-d, with ties and duplicates. The
/// interesting state space is the configuration, not the data.
skymr::Dataset TinyDataset() {
  skymr::Dataset data(2);
  data.Append({0.10, 0.90});
  data.Append({0.50, 0.50});
  data.Append({0.90, 0.10});
  data.Append({0.50, 0.50});  // Exact duplicate.
  data.Append({0.25, 0.25});
  data.Append({0.75, 0.75});  // Dominated.
  data.Append({0.25, 0.75});
  data.Append({0.00, 1.00});  // Domain corner.
  return data;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0 || size > 4096) {
    return 0;  // Configs are small; long inputs add nothing.
  }
  FuzzInput input(data, size);
  const bool run_pipeline = input.ConsumeBool();
  try {
    if (!run_pipeline) {
      const skymr::mr::ChaosSchedule chaos = ConsumeChaosSchedule(&input);
      const int max_attempts =
          static_cast<int>(input.ConsumeRaw<int32_t>());
      (void)skymr::mr::ValidateChaosSchedule(chaos, max_attempts);
      skymr::SessionOptions options;
      skymr::QuerySpec query;
      ConsumeRawConfig(&input, &options, &query);
      const bool options_valid = options.Validate().ok();
      const bool query_valid = query.Validate().ok();
      if (options_valid && query_valid) {
        SKYMR_FUZZ_ASSERT(EnumsInRange(options, query));
      }
      return 0;
    }
    skymr::SessionOptions options;
    skymr::QuerySpec query;
    ConsumeBoundedConfig(&input, &options, &query);
    const skymr::Dataset data = TinyDataset();
    skymr::core::PipelineCheckpoint checkpoint;
    options.checkpoint = &checkpoint;
    // Any Status is fine (chaos may exhaust the attempt budget); the
    // contract is no throw, no crash, no hang.
    auto session = skymr::Session::Open(data, options);
    if (session.ok()) {
      (void)(*session)->Submit(query);
    }
  } catch (...) {
    SKYMR_FUZZ_ASSERT(!"validation, Open or Submit threw");
  }
  return 0;
}

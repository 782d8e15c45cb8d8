// Writes the deterministic seed corpora under fuzz/corpus/<harness>/.
//
// Seeds give the fuzzers a running start (valid wire messages, real JSON,
// real CSV) and double as regression inputs: the committed corpus is
// replayed by the fuzz_<name>_replay ctest targets in every sanitizer
// preset. The generator is deterministic — re-running it reproduces the
// same bytes — so regenerated corpora do not churn in git.
//
// Usage: gen_seed_corpus <corpus-root>
//
// The dataset seeds reproduce the adversarial shapes of
// tests/integration/fuzz_test.cc (coarse value lattices forcing exact
// ties, duplicated rows, constant dimensions); the config seeds append
// fields in exactly the order fuzz_config.cc consumes them.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/core/checkpoint.h"
#include "src/core/messages.h"
#include "src/data/dataset_io.h"
#include "src/local/skyline_window.h"
#include "src/obs/log.h"
#include "src/relation/dataset.h"

namespace skymr::fuzz {
namespace {

namespace fs = std::filesystem;

/// Little-endian byte assembler mirroring FuzzInput::ConsumeRaw.
class SeedBuilder {
 public:
  template <typename T>
  SeedBuilder& Raw(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t old = bytes_.size();
    bytes_.resize(old + sizeof(T));
    std::memcpy(bytes_.data() + old, &value, sizeof(T));
    return *this;
  }

  SeedBuilder& Text(std::string_view text) {
    bytes_.insert(bytes_.end(), text.begin(), text.end());
    return *this;
  }

  /// Double encoded as its bit pattern (what ConsumeDouble reads).
  SeedBuilder& DoubleBits(uint64_t bits) { return Raw<uint64_t>(bits); }
  SeedBuilder& Double(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return DoubleBits(bits);
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

int g_written = 0;

void WriteSeed(const fs::path& root, const std::string& harness,
               const std::string& name, const std::vector<uint8_t>& bytes) {
  const fs::path dir = root / harness;
  fs::create_directories(dir);
  const fs::path path = dir / name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "gen_seed_corpus: write failed: %s\n",
                 path.c_str());
    std::exit(1);
  }
  ++g_written;
}

void WriteSeed(const fs::path& root, const std::string& harness,
               const std::string& name, const std::string& text) {
  WriteSeed(root, harness, name,
            std::vector<uint8_t>(text.begin(), text.end()));
}

// ---------------------------------------------------------------- json

void JsonSeeds(const fs::path& root) {
  WriteSeed(root, "json_parse", "object",
            R"({"name":"skymr","jobs":[{"id":1,"maps":4},{"id":2,"maps":8}],)"
            R"("ok":true,"err":null,"ratio":0.125})");
  WriteSeed(root, "json_parse", "numbers",
            R"([0,-0,1e308,-1e-308,2.2250738585072014e-308,)"
            R"(9007199254740993,0.1,3.141592653589793])");
  WriteSeed(root, "json_parse", "strings",
            R"(["\u0041\u00e9\ud83d\ude00","\"\\\/\b\f\n\r\t","plain"])");
  // 300 levels of '[' — past kMaxJsonNestingDepth; must be rejected
  // cleanly, not by stack exhaustion.
  std::string deep(300, '[');
  WriteSeed(root, "json_parse", "deep_nesting", deep);
  // Exactly at the limit, and balanced: must parse.
  std::string at_limit;
  at_limit.append(255, '[');
  at_limit.append("1");
  at_limit.append(255, ']');
  WriteSeed(root, "json_parse", "at_depth_limit", at_limit);
  WriteSeed(root, "json_parse", "truncated", R"({"a":[1,2,{"b":)");
}

// ----------------------------------------------------------- log_parse

/// Seeds for fuzz_log_parse.cc. First byte picks the mode: even = parse
/// the remaining bytes as a log line, odd = synthesize a record from the
/// remaining bytes and round-trip it.
void LogParseSeeds(const fs::path& root) {
  const auto raw = [](const std::string& line) {
    std::string bytes(1, '\0');  // mode 0: raw parse
    bytes += line;
    return bytes;
  };

  // Real FormatLogLine output: a fully-populated record and a minimal one.
  obs::LogRecord full;
  full.ts_us = 123456.0;
  full.severity = obs::LogSeverity::kWarn;
  full.query_id = 42;
  full.task = 3;
  full.attempt = 2;
  std::strncpy(full.event, "task.retry", sizeof(full.event) - 1);
  std::strncpy(full.job, "skyline", sizeof(full.job) - 1);
  std::strncpy(full.tag, "size=large", sizeof(full.tag) - 1);
  std::strncpy(full.message, "attempt 2 of task 3 after crash",
               sizeof(full.message) - 1);
  WriteSeed(root, "log_parse", "full_record", raw(obs::FormatLogLine(full)));

  obs::LogRecord minimal;
  minimal.ts_us = 1.0;
  std::strncpy(minimal.event, "job.start", sizeof(minimal.event) - 1);
  WriteSeed(root, "log_parse", "minimal_record",
            raw(obs::FormatLogLine(minimal)));

  // Adversarial lines the parser must reject or truncate cleanly.
  WriteSeed(root, "log_parse", "truncated",
            raw(R"({"ts_us":12.5,"sev":"info","event":"job)"));
  WriteSeed(root, "log_parse", "bad_severity",
            raw(R"({"ts_us":1,"sev":"loud","event":"x"})"));
  WriteSeed(root, "log_parse", "wrong_types",
            raw(R"({"ts_us":"soon","sev":4,"event":[1],"query":"q"})"));
  WriteSeed(root, "log_parse", "oversized_strings",
            raw(R"({"ts_us":1,"sev":"info","event":")" +
                std::string(200, 'e') + R"(","msg":")" +
                std::string(500, 'm') + R"("})"));
  WriteSeed(root, "log_parse", "huge_query",
            raw(R"({"ts_us":1,"sev":"info","event":"x","query":1e300})"));
  WriteSeed(root, "log_parse", "not_an_object", raw(R"(["ts_us",1])"));

  // Synthesized-mode seeds: mode byte 1 + structured draws (short inputs
  // zero-fill, so even the empty tail is a valid record).
  SeedBuilder synth;
  synth.Raw<uint8_t>(1);
  synth.Raw<uint32_t>(987654);        // ts_us
  synth.Raw<uint64_t>(3);             // severity draw
  synth.Raw<uint64_t>(0x1234567890ULL);  // query_id bits
  synth.Raw<uint64_t>(17);            // task draw
  synth.Raw<uint64_t>(4);             // attempt draw
  synth.Raw<uint64_t>(31);            // event length: capacity boundary
  synth.Text(std::string(31, 'E'));
  synth.Raw<uint64_t>(0);             // empty job
  synth.Raw<uint64_t>(5);
  synth.Text("tag\\\"");              // tag needing JSON escapes
  synth.Raw<uint64_t>(103);           // message at capacity boundary
  synth.Text(std::string(103, 'M'));
  WriteSeed(root, "log_parse", "synth_boundaries", synth.bytes());

  SeedBuilder tiny;
  tiny.Raw<uint8_t>(1);
  WriteSeed(root, "log_parse", "synth_empty", tiny.bytes());
}

// ------------------------------------------------------------ messages

SkylineWindow MakeWindow(size_t dim, size_t rows, Rng* rng) {
  SkylineWindow window(dim);
  std::vector<double> row(dim);
  for (size_t i = 0; i < rows; ++i) {
    for (double& v : row) {
      v = rng->NextDouble();
    }
    window.AppendUnchecked(row.data(),
                           static_cast<TupleId>(rng->NextBounded(1u << 20)));
  }
  return window;
}

template <typename T>
std::vector<uint8_t> MessageSeed(uint8_t selector, const T& value) {
  std::vector<uint8_t> bytes{selector};
  const std::vector<uint8_t> payload = SerializeToBytes(value);
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

void MessageSeeds(const fs::path& root) {
  Rng rng(0x5eedc0de);
  const SkylineWindow window = MakeWindow(3, 12, &rng);
  WriteSeed(root, "messages", "window", MessageSeed(0, window));

  core::PartitionSkyline part;
  part.cell = 42;
  part.window = MakeWindow(2, 6, &rng);
  WriteSeed(root, "messages", "partition_skyline", MessageSeed(1, part));

  core::LocalSkylineSet set;
  for (uint64_t cell = 0; cell < 4; ++cell) {
    core::PartitionSkyline p;
    p.cell = cell * 7;
    p.window = MakeWindow(2, 3, &rng);
    set.parts.push_back(std::move(p));
  }
  WriteSeed(root, "messages", "local_skyline_set", MessageSeed(2, set));

  core::GroupPayload payload;
  payload.reducer_group = 3;
  payload.responsible = {1, 5, 9, 13};
  payload.parts = set.parts;
  WriteSeed(root, "messages", "group_payload", MessageSeed(3, payload));

  DynamicBitset bits(129);  // Straddles a word boundary.
  for (size_t i = 0; i < bits.size(); i += 3) {
    bits.Set(i);
  }
  WriteSeed(root, "messages", "bitset", MessageSeed(4, bits));

  const std::vector<std::pair<uint64_t, std::string>> kvs = {
      {0, ""}, {1, "tuple"}, {UINT64_MAX, std::string(100, 'x')}};
  WriteSeed(root, "messages", "kv_pairs", MessageSeed(5, kvs));

  // A mapper set carrying a dim-1 part beside dim-2 ones: it decodes, but
  // merging it at dim 2 must be a clean SerdeUnderflow.
  core::LocalSkylineSet mixed = set;
  mixed.parts[1].window = MakeWindow(1, 3, &rng);
  WriteSeed(root, "messages", "local_skyline_set_mixed_dim",
            MessageSeed(2, mixed));

  // Truncation regressions: a valid message cut mid-payload must be a
  // clean SerdeUnderflow.
  std::vector<uint8_t> truncated = MessageSeed(3, payload);
  truncated.resize(truncated.size() / 2);
  WriteSeed(root, "messages", "group_payload_truncated", truncated);

  // Length-prefix bomb: a window header claiming 2^61 rows. The decoder
  // must reject it against remaining() instead of allocating.
  SeedBuilder bomb;
  bomb.Raw<uint8_t>(0).Raw<uint64_t>(3);  // selector window, dim 3.
  bomb.Raw<uint64_t>(uint64_t{1} << 61);  // claimed value count.
  WriteSeed(root, "messages", "length_bomb", bomb.bytes());
}

// ----------------------------------------------------------- checkpoint

core::BitstringBuildResult MakeBitstringResult(uint32_t ppd, Rng* rng) {
  core::BitstringBuildResult result;
  result.ppd = ppd;
  result.bits = DynamicBitset(static_cast<size_t>(ppd) * ppd);
  for (size_t i = 0; i < result.bits.size(); ++i) {
    if (rng->NextBounded(3) != 0) {
      result.bits.Set(i);
    }
  }
  result.nonempty = result.bits.Count();
  result.pruned = rng->NextBounded(result.bits.size() + 1);
  for (uint32_t candidate = 2; candidate <= ppd; ++candidate) {
    result.occupancies.emplace_back(candidate,
                                    rng->NextBounded(1000) + 1);
  }
  return result;
}

void CheckpointSeeds(const fs::path& root) {
  Rng rng(0xc4ec7);
  core::PipelineCheckpoint store;
  store.StoreBitstring(0x1111222233334444ULL, MakeBitstringResult(4, &rng));
  store.StoreBitstring(0xaaaabbbbccccddddULL, MakeBitstringResult(8, &rng));
  const std::vector<uint8_t> bytes = store.SaveBytes();
  WriteSeed(root, "checkpoint", "two_entries", bytes);

  std::vector<uint8_t> truncated = bytes;
  truncated.resize(truncated.size() * 2 / 3);
  WriteSeed(root, "checkpoint", "truncated", truncated);

  std::vector<uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  WriteSeed(root, "checkpoint", "bad_magic", bad_magic);

  std::vector<uint8_t> bit_flip = bytes;
  bit_flip[bytes.size() / 2] ^= 0x10;  // Corrupt an entry body.
  WriteSeed(root, "checkpoint", "bit_flip", bit_flip);

  WriteSeed(root, "checkpoint", "empty_store",
            core::PipelineCheckpoint().SaveBytes());
}

// ---------------------------------------------------------- dataset_csv

/// The adversarial dataset recipe of tests/integration/fuzz_test.cc:
/// coarse lattices (exact ties), duplicated rows, constant dimensions.
Dataset AdversarialDataset(uint64_t seed) {
  Rng rng(seed);
  const size_t dim = 1 + rng.NextBounded(5);
  const size_t n = 1 + rng.NextBounded(40);
  const bool coarse = rng.NextBounded(2) == 0;
  const uint64_t lattice = 2 + rng.NextBounded(5);
  const bool constant_dim = dim > 1 && rng.NextBounded(4) == 0;
  Dataset data(dim);
  std::vector<double> row(dim);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.NextBounded(8) == 0) {
      data.Append(data.Row(static_cast<TupleId>(rng.NextBounded(i))));
      continue;
    }
    for (size_t k = 0; k < dim; ++k) {
      if (constant_dim && k == 0) {
        row[k] = 0.5;
      } else if (coarse) {
        row[k] = static_cast<double>(rng.NextBounded(lattice)) /
                 static_cast<double>(lattice);
      } else {
        row[k] = rng.NextDouble();
      }
    }
    data.Append(row);
  }
  return data;
}

std::vector<uint8_t> CsvSeed(bool has_header, const std::string& text) {
  std::vector<uint8_t> bytes;
  bytes.reserve(1 + text.size());
  bytes.push_back(has_header ? 1 : 0);
  bytes.insert(bytes.end(), text.begin(), text.end());
  return bytes;
}

void DatasetCsvSeeds(const fs::path& root) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Dataset data = AdversarialDataset(seed);
    std::vector<std::string> header;
    for (size_t k = 0; k < data.dim(); ++k) {
      std::string name = "d";
      name += std::to_string(k);
      header.push_back(std::move(name));
    }
    auto with_header = data::SaveCsvToString(data, header);
    auto bare = data::SaveCsvToString(data);
    WriteSeed(root, "dataset_csv", "adversarial" + std::to_string(seed),
              CsvSeed(seed % 2 == 0, seed % 2 == 0 ? with_header.value()
                                                   : bare.value()));
  }
  WriteSeed(root, "dataset_csv", "quoted",
            CsvSeed(true, "\"x,1\",\"y\"\"q\"\n0.5,0.25\n1,0\n"));
  WriteSeed(root, "dataset_csv", "crlf",
            CsvSeed(false, "0.1,0.2\r\n0.3,0.4\r\n\r\n0.5,0.6\r\n"));
  WriteSeed(root, "dataset_csv", "ragged",
            CsvSeed(false, "1,2,3\n4,5\n6,7,8\n"));
  WriteSeed(root, "dataset_csv", "not_numbers",
            CsvSeed(false, "a,b\n1,two\n"));
  WriteSeed(root, "dataset_csv", "specials",
            CsvSeed(false, "nan,-nan\ninf,-inf\n0,-0\n1e308,-1e-308\n"));
  WriteSeed(root, "dataset_csv", "header_only", CsvSeed(true, "x,y\n"));
  // The reader's pinned rules (src/data/dataset_io.h).
  WriteSeed(root, "dataset_csv", "nul_in_field",
            CsvSeed(false, std::string("0.5\0junk,0.25\n", 14)));
  WriteSeed(root, "dataset_csv", "blank_lines_then_ragged",
            CsvSeed(false, "0.1,0.2\n\n\n0.3\n"));
  WriteSeed(root, "dataset_csv", "out_of_range",
            CsvSeed(false, "0.5,0.5\n1e400,0.5\n"));
  WriteSeed(root, "dataset_csv", "hex_float",
            CsvSeed(false, "0.5,0.5\n0x1p-1,0.5\n"));
  WriteSeed(root, "dataset_csv", "pinned_accepts",
            CsvSeed(true, "x,y\n 0.5,+0.25\n\"0.5\",inf\n-inf,4e-320\n"));
}

// --------------------------------------------------------------- config

/// Chaos fields in fuzz_config.cc's ConsumeChaosSchedule order.
void AppendChaos(SeedBuilder* b, uint64_t crash_rate_bits) {
  b->Raw<uint64_t>(7);                // seed
  b->DoubleBits(crash_rate_bits);     // crash_rate
  b->Raw<int32_t>(1);                 // crash_until_attempt
  b->Double(0.25);                    // slow_rate
  b->Double(2.0);                     // slow_ms
  b->Raw<int32_t>(-1);                // slow_task
  b->Raw<int32_t>(1);                 // slow_until_attempt
  b->Double(0.25);                    // corrupt_rate
  b->Double(0.0);                     // cache_fail_rate
  b->Text("chaosjob");                // fail_job (8 bytes)
}

/// Remaining SessionOptions/QuerySpec fields in ConsumeRawConfig order.
void AppendRawConfig(SeedBuilder* b, uint64_t backoff_base_bits) {
  b->Raw<uint8_t>(1);                 // algorithm
  b->Raw<int32_t>(4);                 // num_map_tasks
  b->Raw<int32_t>(2);                 // num_reducers
  b->Raw<int16_t>(1);                 // num_threads
  b->Raw<int32_t>(4);                 // max_task_attempts
  b->DoubleBits(backoff_base_bits);   // retry_backoff_base_ms
  b->Double(32.0);                    // retry_backoff_max_ms
  AppendChaos(b, 0);                  // engine.chaos (crash_rate 0)
  b->Raw<uint32_t>(4);                // ppd.explicit_ppd
  b->Raw<uint8_t>(1);                 // ppd.strategy
  b->Double(512.0);                   // ppd.target_tpp
  b->Raw<uint32_t>(8);                // ppd.max_candidate
  b->Raw<uint64_t>(1 << 20);          // ppd.max_cells
  b->Raw<uint8_t>(0);                 // prune_mode
  b->Raw<uint8_t>(1);                 // merge
  b->Raw<uint8_t>(0);                 // local_algorithm
}

void ConfigSeeds(const fs::path& root) {
  constexpr uint64_t kQuietNaN = 0x7ff8000000000000ULL;
  constexpr uint64_t kHalfBits = 0x3fe0000000000000ULL;  // 0.5
  constexpr uint64_t kOneBits = 0x3ff0000000000000ULL;   // 1.0

  {
    // Validation mode, everything in range.
    SeedBuilder b;
    b.Raw<uint8_t>(0);  // run_pipeline = false
    AppendChaos(&b, kHalfBits);
    b.Raw<int32_t>(4);  // max_attempts
    AppendRawConfig(&b, kOneBits);
    WriteSeed(root, "config", "validate_sane", b.bytes());
  }
  {
    // NaN crash_rate and NaN backoff base: the historical holes in the
    // reject-form range checks.
    SeedBuilder b;
    b.Raw<uint8_t>(0);
    AppendChaos(&b, kQuietNaN);
    b.Raw<int32_t>(4);
    AppendRawConfig(&b, kQuietNaN);
    WriteSeed(root, "config", "validate_nan_rate", b.bytes());
  }
  {
    // Pipeline mode: a full Session::Open + Submit on the tiny dataset,
    // no chaos.
    SeedBuilder b;
    b.Raw<uint8_t>(1);      // run_pipeline = true
    b.Raw<uint64_t>(1);     // algorithm range draw
    b.Raw<uint64_t>(2);     // num_map_tasks draw
    b.Raw<uint64_t>(0);     // num_reducers draw
    b.Raw<uint64_t>(0);     // max_task_attempts draw
    b.Raw<uint64_t>(99);    // chaos.seed
    b.Raw<uint32_t>(0);     // crash_rate unit draw
    b.Raw<uint32_t>(0);     // corrupt_rate unit draw
    b.Raw<uint32_t>(0);     // cache_fail_rate unit draw
    b.Raw<uint64_t>(2);     // max_candidate draw
    b.Raw<uint8_t>(1);      // explicit_ppd present
    b.Raw<uint64_t>(1);     // explicit_ppd draw
    b.Raw<uint64_t>(0);     // merge draw
    b.Raw<uint8_t>(1);      // unit_bounds
    WriteSeed(root, "config", "pipeline_clean", b.bytes());
  }
  {
    // Pipeline mode with chaos high enough to exhaust small attempt
    // budgets: exercises retry, degradation, and the error path.
    SeedBuilder b;
    b.Raw<uint8_t>(1);
    b.Raw<uint64_t>(1);          // kMrGpmrs
    b.Raw<uint64_t>(3);
    b.Raw<uint64_t>(3);
    b.Raw<uint64_t>(1);          // 2 attempts
    b.Raw<uint64_t>(0xc4a05);    // chaos.seed
    b.Raw<uint32_t>(0xcccccccc); // crash_rate ~0.4
    b.Raw<uint32_t>(0x40000000); // corrupt_rate ~0.125
    b.Raw<uint32_t>(0x20000000); // cache_fail_rate ~0.06
    b.Raw<uint64_t>(3);
    b.Raw<uint8_t>(0);           // no explicit ppd
    b.Raw<uint64_t>(2);
    b.Raw<uint8_t>(0);           // data bounds
    WriteSeed(root, "config", "pipeline_chaos", b.bytes());
  }
}

// ----------------------------------------------------------- bbs_parity

/// Fields in fuzz_bbs_parity.cc's consumption order. Range draws read a
/// uint64 and map it as lo + raw % span, so a raw of (value - lo) lands
/// exactly on `value`.
void BbsParitySeeds(const fs::path& root) {
  {
    // Coarse 3-level lattice in 3-d: exact ties, duplicated MBR corners,
    // small leaves forcing a multi-level tree.
    SeedBuilder b;
    b.Raw<uint64_t>(2);   // dim = 3
    b.Raw<uint64_t>(24);  // n = 24
    b.Raw<uint64_t>(3);   // lattice = 3
    b.Raw<uint64_t>(3);   // leaf_capacity = 4
    b.Raw<uint64_t>(0);   // fanout = 2
    b.Raw<uint8_t>(0);    // no constraint box
    for (uint32_t i = 0; i < 24; ++i) {
      b.Raw<uint8_t>(0);  // fresh row, not a duplicate
      for (uint32_t k = 0; k < 3; ++k) {
        b.Raw<uint8_t>(static_cast<uint8_t>(i * 7 + k * 3));
      }
    }
    WriteSeed(root, "bbs_parity", "lattice_ties", b.bytes());
  }
  {
    // Continuous 2-d rows with duplicates and a constraint box that
    // excludes a dominating corner point.
    SeedBuilder b;
    b.Raw<uint64_t>(1);   // dim = 2
    b.Raw<uint64_t>(16);  // n = 16
    b.Raw<uint64_t>(0);   // continuous values
    b.Raw<uint64_t>(15);  // leaf_capacity = 16
    b.Raw<uint64_t>(6);   // fanout = 8
    b.Raw<uint8_t>(1);    // constraint box present
    for (uint32_t k = 0; k < 2; ++k) {
      b.Raw<uint32_t>(0x33333333);  // ~0.2
      b.Raw<uint32_t>(0xcccccccc);  // ~0.8
    }
    for (uint32_t i = 0; i < 16; ++i) {
      if (i % 5 == 4) {
        b.Raw<uint8_t>(1);             // duplicate ...
        b.Raw<uint64_t>(i % 3);        // ... of an early row
        continue;
      }
      b.Raw<uint8_t>(0);
      b.Raw<uint32_t>(0x11111111u * (i + 1));
      b.Raw<uint32_t>(0x11111111u * (15 - i));
    }
    WriteSeed(root, "bbs_parity", "constrained_dups", b.bytes());
  }
  {
    // Empty dataset with degenerate packing parameters.
    SeedBuilder b;
    b.Raw<uint64_t>(3);  // dim = 4
    b.Raw<uint64_t>(0);  // n = 0
    b.Raw<uint64_t>(0);  // continuous
    b.Raw<uint64_t>(0);  // leaf_capacity = 1
    b.Raw<uint64_t>(0);  // fanout = 2
    b.Raw<uint8_t>(0);
    WriteSeed(root, "bbs_parity", "empty", b.bytes());
  }
  {
    // Deepest possible tree: 64 rows, 1-row leaves, 2-way fanout, binary
    // value lattice (half the rows tie exactly).
    SeedBuilder b;
    b.Raw<uint64_t>(1);   // dim = 2
    b.Raw<uint64_t>(64);  // n = 64
    b.Raw<uint64_t>(2);   // lattice = 2
    b.Raw<uint64_t>(0);   // leaf_capacity = 1
    b.Raw<uint64_t>(0);   // fanout = 2
    b.Raw<uint8_t>(0);
    for (uint32_t i = 0; i < 64; ++i) {
      b.Raw<uint8_t>(static_cast<uint8_t>(i % 11 == 10 ? 1 : 0));
      if (i % 11 == 10) {
        b.Raw<uint64_t>(i / 2);  // duplicate index draw
        continue;
      }
      b.Raw<uint8_t>(static_cast<uint8_t>(i));
      b.Raw<uint8_t>(static_cast<uint8_t>(i * 5 + 1));
    }
    WriteSeed(root, "bbs_parity", "deep_tree", b.bytes());
  }
}

}  // namespace
}  // namespace skymr::fuzz

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root(argv[1]);
  skymr::fuzz::JsonSeeds(root);
  skymr::fuzz::LogParseSeeds(root);
  skymr::fuzz::MessageSeeds(root);
  skymr::fuzz::CheckpointSeeds(root);
  skymr::fuzz::DatasetCsvSeeds(root);
  skymr::fuzz::ConfigSeeds(root);
  skymr::fuzz::BbsParitySeeds(root);
  std::printf("gen_seed_corpus: wrote %d seed(s) under %s\n",
              skymr::fuzz::g_written, root.c_str());
  return 0;
}

// Harness: serde decoding of every shuffle wire type in
// src/core/messages.h plus the common serde containers they compose.
//
// The shuffle deliberately feeds these decoders corrupt bytes (the chaos
// harness truncates serialized values), so the contract is strict: for
// arbitrary input the decoder either throws SerdeUnderflow — caught here,
// the engine turns it into a task failure — or produces a value whose
// every row/field is readable (shape invariants hold) and that survives
// an encode -> decode fixpoint. Decoded mapper sets and group payloads are
// also merged the way reducers merge them (MergeParts), which must accept
// them or reject them with the same clean SerdeUnderflow.

#include <cstdint>
#include <vector>

#include "fuzz/fuzz_common.h"
#include "src/common/dynamic_bitset.h"
#include "src/common/serde.h"
#include "src/core/messages.h"
#include "src/local/skyline_window.h"

namespace {

using skymr::ByteSource;
using skymr::Serde;
using skymr::SerdeUnderflow;
using skymr::SerializeToBytes;
using skymr::SkylineWindow;

/// Touches every row of a decoded window; under ASan this proves the
/// shape invariant (values.size() == ids.size() * dim) actually holds.
double TouchWindow(const SkylineWindow& window) {
  double sink = 0.0;
  for (size_t i = 0; i < window.size(); ++i) {
    const double* row = window.RowAt(i);
    for (size_t k = 0; k < window.dim(); ++k) {
      sink += row[k];
    }
    sink += static_cast<double>(window.IdAt(i));
  }
  return sink;
}

/// decode -> touch -> encode -> decode fixpoint for one wire type.
template <typename T, typename TouchFn>
void RoundTrip(const uint8_t* data, size_t size, TouchFn&& touch) {
  T decoded;
  try {
    ByteSource source(data, size);
    decoded = Serde<T>::Read(&source);
  } catch (const SerdeUnderflow&) {
    return;  // Clean rejection of corrupt bytes.
  }
  touch(decoded);
  const std::vector<uint8_t> encoded = SerializeToBytes(decoded);
  ByteSource source(encoded.data(), encoded.size());
  T again;
  try {
    again = Serde<T>::Read(&source);
  } catch (const SerdeUnderflow&) {
    SKYMR_FUZZ_ASSERT(!"re-decoding our own encoding underflowed");
  }
  SKYMR_FUZZ_ASSERT(source.AtEnd());
  SKYMR_FUZZ_ASSERT(again == decoded);
}

/// The dim of the committed seeds' parts, so they reach InsertTuple.
constexpr size_t kMergeDim = 2;

/// Merges decoded parts the way a reducer does, at a fixed dim: a part
/// written at another dim must be a clean SerdeUnderflow, never a read
/// past the end of its rows.
void MergeAtFixedDim(const std::vector<skymr::core::PartitionSkyline>& parts) {
  skymr::core::CellWindowMap windows;
  try {
    skymr::core::MergeParts(parts, kMergeDim, &windows, nullptr);
  } catch (const SerdeUnderflow&) {
    return;
  }
  for (const auto& [cell, window] : windows) {
    SKYMR_FUZZ_ASSERT(window.dim() == kMergeDim);
    TouchWindow(window);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0 || size > (1u << 20)) {
    return 0;
  }
  // First byte selects the wire type; the rest is the payload.
  const uint8_t selector = data[0] % 6;
  const uint8_t* payload = data + 1;
  const size_t payload_size = size - 1;
  switch (selector) {
    case 0:
      RoundTrip<SkylineWindow>(payload, payload_size,
                               [](const SkylineWindow& w) { TouchWindow(w); });
      break;
    case 1:
      RoundTrip<skymr::core::PartitionSkyline>(
          payload, payload_size,
          [](const skymr::core::PartitionSkyline& p) {
            TouchWindow(p.window);
          });
      break;
    case 2:
      RoundTrip<skymr::core::LocalSkylineSet>(
          payload, payload_size,
          [](const skymr::core::LocalSkylineSet& s) {
            for (const auto& part : s.parts) {
              TouchWindow(part.window);
            }
            MergeAtFixedDim(s.parts);
          });
      break;
    case 3:
      RoundTrip<skymr::core::GroupPayload>(
          payload, payload_size, [](const skymr::core::GroupPayload& g) {
            for (const auto& part : g.parts) {
              TouchWindow(part.window);
            }
            MergeAtFixedDim(g.parts);
          });
      break;
    case 4:
      RoundTrip<skymr::DynamicBitset>(
          payload, payload_size, [](const skymr::DynamicBitset& bits) {
            volatile size_t sink = bits.Count();
            (void)sink;
          });
      break;
    case 5:
      // The shuffle's generic key/value containers.
      RoundTrip<std::vector<std::pair<uint64_t, std::string>>>(
          payload, payload_size,
          [](const std::vector<std::pair<uint64_t, std::string>>& kvs) {
            size_t total = 0;
            for (const auto& [key, value] : kvs) {
              total += static_cast<size_t>(key) + value.size();
            }
            volatile size_t sink = total;
            (void)sink;
          });
      break;
  }
  return 0;
}

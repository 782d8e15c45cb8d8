// Shuffle message types for the skyline MapReduce jobs, plus helpers for
// merging per-partition skylines on the reduce side.

#ifndef SKYMR_CORE_MESSAGES_H_
#define SKYMR_CORE_MESSAGES_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/serde.h"
#include "src/core/grid.h"
#include "src/local/skyline_window.h"

namespace skymr::core {

/// One partition's local skyline, S_p in the paper.
struct PartitionSkyline {
  CellId cell = 0;
  SkylineWindow window;

  bool operator==(const PartitionSkyline& other) const {
    return cell == other.cell && window == other.window;
  }
};

/// Local skylines organized by partition: the value every skyline job
/// shuffles. A grid job's mapper sends one per reducer group, holding the
/// group's windows (Algorithm 8 line 18; for MR-GPSRS's one group, the
/// mapper's whole local skyline, Figure 4).
struct LocalSkylineSet {
  std::vector<PartitionSkyline> parts;

  bool operator==(const LocalSkylineSet& other) const {
    return parts == other.parts;
  }
};

/// A LocalSkylineSet tagged with its reducer group and the group's
/// Section 5.4.2 responsibility list. No job ships it: the broadcast
/// SkylineJobContext holds both. It stays only because querybench's
/// replay still encodes it.
struct GroupPayload {
  uint32_t reducer_group = 0;
  std::vector<CellId> responsible;
  std::vector<PartitionSkyline> parts;

  bool operator==(const GroupPayload& other) const {
    return reducer_group == other.reducer_group &&
           responsible == other.responsible && parts == other.parts;
  }
};

/// Ordered per-cell window map used on the reduce side.
using CellWindowMap = std::map<CellId, SkylineWindow>;

/// Merges `parts` into `windows` tuple by tuple with InsertTuple
/// (Algorithm 6 lines 1-6 / Algorithm 9 lines 2-8). When `targets`
/// (ascending) is given, only parts of those cells are merged; every
/// other part is appended unchecked to a source-only window, which may
/// hold rows that other rows dominate and so may only be read as a
/// source by CompareAllPartitions with the same `targets`. Throws
/// SerdeUnderflow when a non-empty part's window has a dim other than
/// `dim` (a decoded but foreign shuffle value); the engine turns that
/// into a task failure.
void MergeParts(const std::vector<PartitionSkyline>& parts, size_t dim,
                CellWindowMap* windows, DominanceCounter* counter,
                const std::vector<CellId>* targets = nullptr);

/// Concatenates all windows into one (the reducer's output union).
SkylineWindow UnionWindows(const CellWindowMap& windows, size_t dim);

}  // namespace skymr::core

namespace skymr {

template <>
struct Serde<core::PartitionSkyline> {
  static void Write(const core::PartitionSkyline& value, ByteSink* sink) {
    sink->AppendRaw<uint64_t>(value.cell);
    Serde<SkylineWindow>::Write(value.window, sink);
  }
  static core::PartitionSkyline Read(ByteSource* source) {
    core::PartitionSkyline out;
    out.cell = source->ReadRaw<uint64_t>();
    out.window = Serde<SkylineWindow>::Read(source);
    return out;
  }
};

template <>
struct Serde<core::LocalSkylineSet> {
  static void Write(const core::LocalSkylineSet& value, ByteSink* sink) {
    Serde<std::vector<core::PartitionSkyline>>::Write(value.parts, sink);
  }
  static core::LocalSkylineSet Read(ByteSource* source) {
    core::LocalSkylineSet out;
    out.parts = Serde<std::vector<core::PartitionSkyline>>::Read(source);
    return out;
  }
};

template <>
struct Serde<core::GroupPayload> {
  static void Write(const core::GroupPayload& value, ByteSink* sink) {
    sink->AppendRaw<uint32_t>(value.reducer_group);
    Serde<std::vector<core::CellId>>::Write(value.responsible, sink);
    Serde<std::vector<core::PartitionSkyline>>::Write(value.parts, sink);
  }
  static core::GroupPayload Read(ByteSource* source) {
    core::GroupPayload out;
    out.reducer_group = source->ReadRaw<uint32_t>();
    out.responsible = Serde<std::vector<core::CellId>>::Read(source);
    out.parts = Serde<std::vector<core::PartitionSkyline>>::Read(source);
    return out;
  }
};

}  // namespace skymr

#endif  // SKYMR_CORE_MESSAGES_H_

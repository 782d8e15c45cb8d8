#include "src/core/messages.h"

#include <string>

namespace skymr::core {

void MergeParts(const std::vector<PartitionSkyline>& parts, size_t dim,
                CellWindowMap* windows, DominanceCounter* counter) {
  for (const PartitionSkyline& part : parts) {
    // A decoded window's shape is self-consistent, but its rows are only
    // readable as `dim`-wide rows if it was written at this job's dim.
    if (!part.window.empty() && part.window.dim() != dim) {
      throw SerdeUnderflow("serde underflow: part of cell " +
                           std::to_string(part.cell) + " has dim " +
                           std::to_string(part.window.dim()) +
                           ", job has dim " + std::to_string(dim));
    }
    auto [it, inserted] = windows->try_emplace(part.cell, SkylineWindow(dim));
    SkylineWindow& target = it->second;
    for (size_t i = 0; i < part.window.size(); ++i) {
      target.Insert(part.window.RowAt(i), part.window.IdAt(i), counter);
    }
  }
}

SkylineWindow UnionWindows(const CellWindowMap& windows, size_t dim) {
  SkylineWindow out(dim);
  for (const auto& [cell, window] : windows) {
    for (size_t i = 0; i < window.size(); ++i) {
      out.AppendUnchecked(window.RowAt(i), window.IdAt(i));
    }
  }
  return out;
}

}  // namespace skymr::core

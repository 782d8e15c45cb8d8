#include "src/core/messages.h"

#include <algorithm>
#include <string>

namespace skymr::core {

void MergeParts(const std::vector<PartitionSkyline>& parts, size_t dim,
                CellWindowMap* windows, DominanceCounter* counter,
                const std::vector<CellId>* targets) {
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
    SkylineWindow& window = it->second;
    const bool merge =
        targets == nullptr ||
        std::binary_search(targets->begin(), targets->end(), part.cell);
    for (size_t i = 0; i < part.window.size(); ++i) {
      if (merge) {
        window.Insert(part.window.RowAt(i), part.window.IdAt(i), counter);
      } else {
        window.AppendUnchecked(part.window.RowAt(i), part.window.IdAt(i));
      }
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

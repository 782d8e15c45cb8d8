// Phase-level checkpointing for the skyline pipeline.
//
// The grid algorithms run two jobs: the bitstring/PPD-selection job and
// the skyline job. On a real cluster the first phase's output would live
// in HDFS; here a PipelineCheckpoint plays that role, so a run that dies
// in the skyline phase (or a deliberate re-run, e.g. after a chaos-killed
// job) resumes from the stored bitstring instead of rescanning the input.
//
// Entries are keyed by a 64-bit fingerprint of everything that determines
// the phase's output: a digest of every dataset value, the PPD policy,
// prune mode, bounds choice and constraint box (Session's
// FingerprintPrefix and FingerprintFor). A checkpoint from a different
// dataset or configuration misses, so resuming can never serve stale
// results short of a 64-bit hash collision. The store can be
// persisted to a single file (skymr_cli --checkpoint=FILE) and reloaded
// in a later process.

#ifndef SKYMR_CORE_CHECKPOINT_H_
#define SKYMR_CORE_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "src/common/status.h"
#include "src/core/bitstring_job.h"

namespace skymr::core {

/// Thread-safe store of checkpointed bitstring-phase results. One
/// instance may be shared by many sessions (SessionOptions::checkpoint).
class PipelineCheckpoint {
 public:
  /// Returns true and fills `out` when `fingerprint` has a stored result.
  bool LoadBitstring(uint64_t fingerprint, BitstringBuildResult* out) const;
  /// Stores (or replaces) the result for `fingerprint`.
  void StoreBitstring(uint64_t fingerprint,
                      const BitstringBuildResult& result);

  /// Serializes every entry to `path` (atomic only at the filesystem's
  /// rename granularity is not attempted; the file is rewritten whole).
  Status SaveFile(const std::string& path) const;
  /// Merges entries from `path` into the store; a missing file is OK
  /// (first run), a malformed one is an IoError.
  Status LoadFile(const std::string& path);

  /// The serialized form SaveFile writes, as bytes (magic included).
  std::vector<uint8_t> SaveBytes() const;
  /// Merges entries from a serialized store. Untrusted-input boundary:
  /// any malformed payload — bad magic, truncation, corrupt lengths —
  /// comes back as an IoError naming `origin`, never an exception, and
  /// leaves the store unchanged.
  Status LoadBytes(const uint8_t* data, size_t size,
                   const std::string& origin);

  void Clear();
  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<uint64_t, BitstringBuildResult> entries_;
};

}  // namespace skymr::core

#endif  // SKYMR_CORE_CHECKPOINT_H_

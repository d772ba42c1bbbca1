// Crash-safe snapshot files for the timing replay (docs/robustness.md).
//
// File layout (all integers little-endian):
//
//   offset  size  field
//   0       8     magic "ST2SNAP1"
//   8       4     format version (kFormatVersion)
//   12      8     config hash — fingerprint of every option that affects
//                 simulation state; resuming under different options is
//                 rejected instead of silently producing wrong results
//   20      8     payload size in bytes
//   28      4     CRC-32 of the payload
//   32      4     CRC-32 of the 32 header bytes above
//   36      ...   payload (opaque to this layer; see st2sim + engine)
//
// The file length must equal 36 + payload size exactly, so any single-bit
// flip or truncation anywhere in the file is caught by exactly one of: bad
// magic, bad version, header CRC, size mismatch, payload CRC, or config-hash
// mismatch — all rejected with SimError kind `snapshot-invalid` (exit 8).
//
// Writes are atomic (FILE.tmp + rename): a crash — including SIGKILL mid-
// write — leaves either the previous complete snapshot or the new complete
// snapshot, never a torn one.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace st2::snapshot {

/// Bumped whenever the serialized payload layout changes so stale snapshot
/// files are rejected up front instead of misparsed. History:
///   1  original layout (AoS warp slots, u64 cursors)
///   2  replay-core SoA slot banks: slots serialized per physical slot id up
///      to max_warps_per_sm, u32 stream cursors
///   3  pluggable carry predictors: per-SM predictor state is preceded by
///      the canonical policy spec string, and the payload bytes after it
///      are policy-shaped (CRF rows / MRU row / TAGE tables / static
///      pattern register)
///   4  one write arbiter: a predictor's state is its table, then the
///      arbitration RNG and the lane-write/conflict counters; the predictor
///      no longer holds a pending-write queue or a row-read counter
inline constexpr std::uint32_t kFormatVersion = 4;
inline constexpr std::size_t kHeaderBytes = 36;

/// Writes `content` to `path` crash-consistently: the bytes land in
/// `path + ".tmp"`, are flushed and close-checked, and only then renamed
/// into place. Short writes, ENOSPC and rename failures throw
/// SimError(kIo) naming the path and the OS error — the tmp file is removed,
/// and the destination is never left truncated.
///
/// With `unique_tmp` the staging name is suffixed with the writer's pid and
/// a per-process counter, making the write safe against CONCURRENT WRITERS
/// of the same destination across processes: each writer stages into its own
/// file and the final rename is atomic, so the destination always holds one
/// writer's complete bytes — never an interleaving. When the competing
/// writers produce identical content (the trace-cache store: captures are
/// deterministic functions of the key) the rename race is benign
/// win-either-way. The default fixed `.tmp` name is kept for single-writer
/// paths whose tests and tooling rely on the predictable staging name.
void atomic_write_file(const std::string& path, std::string_view content,
                       bool unique_tmp = false);

/// Serializes header + payload and writes the snapshot atomically.
/// Throws SimError(kIo) on any write failure. `unique_tmp` as in
/// atomic_write_file — pass true when several processes may store the same
/// snapshot path concurrently.
void write_snapshot(const std::string& path, std::uint64_t config_hash,
                    std::string_view payload, bool unique_tmp = false);

/// Reads and validates a snapshot: magic, version, header CRC, exact file
/// size, payload CRC, and the config hash against `expected_config_hash`.
/// Returns the payload. Any failure — unreadable file, corruption,
/// truncation, version or config mismatch — throws
/// SimError(kSnapshotInvalid) with a one-line cause.
std::string read_snapshot(const std::string& path,
                          std::uint64_t expected_config_hash);

}  // namespace st2::snapshot

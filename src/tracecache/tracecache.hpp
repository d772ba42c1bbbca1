// Capture-once trace cache (the ROADMAP's "make a hot path measurably
// faster" item): serializes the engine's phase-1 `GridCapture` so sweeps
// replay one canonical functional pass under many machine configs instead
// of re-executing it per config point.
//
// Canonical form. A capture's per-warp streams are a pure function of
// (kernel, launch, input memory, line_bytes, st2 payload flag) — the
// `b % num_sms` block partitioning is the only SM-count-dependent part, and
// it is a cheap permutation. The cache therefore stores blocks in flat
// launch order (as captured with num_sms = 1) and `provide` redistributes
// them round-robin for whatever chip the caller simulates. Adder-lane
// payloads are always captured: baseline replays never read them (the
// `st2_enabled` gate in SmCore), so one payload-bearing entry serves
// baseline and ST² runs bit-identically.
//
// Key. Entries are content-addressed by a string key covering the kernel
// structure (FNV-1a of the disassembly + name + shared bytes + register
// count), the launch geometry and arguments, `line_bytes`, and an FNV-1a
// hash of the *pre-launch* global-memory image (which subsumes --scale and
// chains correctly across multi-launch workloads: launch N's key includes
// launch N-1's output). The full key string is stored inside the payload
// and compared on read, so even a hash collision cannot alias two entries.
//
// Value. Besides the streams, an entry stores the *post-launch* memory
// image; a hit restores it instead of re-executing, so validation and
// downstream launches see exactly the state a cold capture leaves.
//
// Tiers. An in-memory memo (FIFO-bounded by `memo_max_bytes`) serves
// intra-process sweeps; an optional on-disk tier (`CacheOptions::dir`) uses
// the ST2SNAP1 container — CRC-32 over header and payload, atomic
// tmp+rename writes — with the key hash in the config-hash slot. Any
// corrupt, truncated or mismatched file is rejected through the
// `snapshot-invalid` taxonomy and handled as a clean miss: recapture,
// overwrite, correct results. Disk write failures are non-fatal (the run
// just loses the warm start).
//
// Multi-process writers. The disk tier is a shared store: concurrent
// `st2sim run|serve --trace-cache DIR` processes and bench binaries under
// `BENCH_TRACE_CACHE=DIR` may all write one directory. Stores stage into
// pid+counter-suffixed tmp files (snapshot::atomic_write_file with
// unique_tmp), so two processes storing the same key can never interleave
// into a torn file; the final rename race is benign win-either-way — both
// writers hold identical bytes, because a capture is a deterministic
// function of the key. The two-process hammer in tests/test_trace_cache.cpp
// holds the no-corrupt/no-lost-entry property.
//
// Thread safety. The memo and stats are guarded by one internal mutex, so
// any number of threads may call `provide`/`populate` concurrently — the
// serve daemon shares one process-wide cache across its worker pool. The
// canonical capture itself runs *outside* the lock (it can take seconds);
// two threads missing on the same key concurrently both capture, and the
// second insert is a no-op. Entries are immutable once inserted and handed
// out as shared_ptrs, so an eviction never invalidates a capture another
// thread is still rebinding.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/isa/instruction.hpp"
#include "src/sim/config.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/launch.hpp"
#include "src/sim/memory.hpp"
#include "src/sim/trace_run.hpp"

namespace st2::tracecache {

struct CacheStats {
  std::uint64_t memo_hits = 0;    ///< served from the in-memory memo
  std::uint64_t disk_hits = 0;    ///< deserialized from the disk tier
  std::uint64_t misses = 0;       ///< recaptured functionally
  std::uint64_t disk_rejects = 0; ///< corrupt/mismatched files treated as miss
  std::uint64_t disk_stores = 0;  ///< entries written to the disk tier
  std::uint64_t evictions = 0;    ///< memo entries dropped by the byte bound
  std::uint64_t memo_bytes = 0;   ///< current memo footprint

  std::uint64_t hits() const { return memo_hits + disk_hits; }
};

struct CacheOptions {
  std::string dir;     ///< disk-tier directory; empty = memo only
  bool memo = true;    ///< keep entries in memory across provide() calls
  std::size_t memo_max_bytes = 256ull << 20;  ///< memo byte bound (FIFO)
};

/// An SM-count-independent capture: blocks in flat launch order
/// (`blocks[b].block_flat == b`) plus the post-launch memory image.
struct CanonicalCapture {
  std::vector<sim::BlockWork> blocks;
  std::vector<std::uint8_t> final_mem;
};

/// The content-addressed identity of a capture. `gmem` must be in its
/// *pre-launch* state.
std::string capture_key(const sim::GpuConfig& cfg, const isa::Kernel& kernel,
                        const sim::LaunchConfig& launch,
                        const sim::GlobalMemory& gmem);

/// Serializes a canonical capture (with its key embedded) into the byte
/// payload stored inside the ST2SNAP1 container.
std::string serialize_capture(const CanonicalCapture& cap,
                              std::string_view key);

/// Parses and validates a serialized capture of `kernel`. Every structural
/// and semantic expectation — embedded key == `expected_key`, every op's pc
/// inside `kernel.code`, in-bounds stream indices for the kind of op the
/// opcode at that pc is, lane planes under the opcode's relevant mask and
/// zero in inactive lanes — is checked; any violation
/// throws SimError(kSnapshotInvalid) carrying `context`, never indexes out
/// of range.
CanonicalCapture deserialize_capture(std::string_view payload,
                                     std::string_view expected_key,
                                     const isa::Kernel& kernel,
                                     const std::string& context);

/// The CaptureProvider implementation plugged into EngineOptions.
class TraceCache final : public sim::CaptureProvider {
 public:
  explicit TraceCache(CacheOptions opts = {});

  /// Memo → disk → recapture. On a hit, `gmem` is restored to the
  /// post-launch image; on a miss, the canonical capture runs (mutating
  /// `gmem` exactly like `capture_grid`) and the entry is stored. Always
  /// returns a capture bound to `cfg.num_sms`.
  sim::GridCapture provide(const sim::GpuConfig& cfg,
                           const isa::Kernel& kernel,
                           const sim::LaunchConfig& launch,
                           sim::GlobalMemory& gmem) override;

  /// Producer path for trace-mode passes: always runs the canonical
  /// functional capture (the observer needs every ExecRecord), chains
  /// `observer` through it (with `record_lane_values`, as capture_grid),
  /// and stores the entry so later `provide` calls hit. Counts as neither
  /// hit nor miss.
  void populate(const sim::GpuConfig& cfg, const isa::Kernel& kernel,
                const sim::LaunchConfig& launch, sim::GlobalMemory& gmem,
                const sim::TraceObserver& observer,
                bool record_lane_values = false);

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  /// "trace-cache: memo-hits=... disk-hits=... ..." one-liner for stdout.
  std::string stats_line() const;
  /// One-line JSON object {"trace_cache": {...}} for report files.
  std::string stats_json() const;

  /// Disk-tier path for the entry this (config, kernel, launch, pre-launch
  /// memory) maps to — empty when the disk tier is off. Exposed for tests.
  std::string entry_path(const sim::GpuConfig& cfg,
                         const isa::Kernel& kernel,
                         const sim::LaunchConfig& launch,
                         const sim::GlobalMemory& gmem) const;

  const CacheOptions& options() const { return opts_; }

 private:
  struct Entry {
    CanonicalCapture cap;
    std::size_t bytes = 0;  ///< memo accounting footprint
  };

  std::string path_for(std::string_view key) const;
  /// Inserts into the memo (if enabled) and evicts FIFO past the bound.
  /// Caller must hold mu_.
  void memo_insert_locked(const std::string& key,
                          std::shared_ptr<Entry> entry);
  /// Memo lookup; returns null on miss. Caller must hold mu_.
  std::shared_ptr<Entry> memo_find_locked(const std::string& key);
  /// Writes the entry to the disk tier; failures are swallowed (counted by
  /// the absence of a disk_stores increment).
  void disk_store(std::string_view key, const Entry& entry);

  CacheOptions opts_;
  mutable std::mutex mu_;  ///< guards stats_, memo_ and fifo_
  CacheStats stats_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> memo_;
  std::list<std::string> fifo_;  ///< insertion order, oldest first
};

}  // namespace st2::tracecache

// Parallel, deterministic chip-level execution engine.
//
// A kernel run has two phases:
//
//  1. Capture (serial, canonical): the grid executes functionally exactly
//     like trace_run — blocks in flat order, warps drained round-robin with
//     barrier semantics — applying every architectural side effect (stores,
//     atomics) to global memory exactly once. Each executed warp instruction
//     is recorded into its warp's replay stream, and blocks are assigned
//     round-robin to SMs.
//
//  2. Replay (parallel): each SM's SmCore replays its streams through the
//     cycle-level pipeline. SMs share no mutable state — private L1, private
//     L2 tag array, private CRF — so any number of worker threads produce
//     bit-identical counters, merged by RunReport::reduce in SM order.
//
// SMs were already documented as independent in the serial simulator; the
// one piece of cross-SM state it had, the shared L2 tag array, made SM i's
// hit rate depend on SMs 0..i-1 having *finished first* — a serialization
// artifact no real chip exhibits. The engine gives each SM a private
// full-size tag array instead (tag-only caches carry no data, so this only
// re-times, never corrupts).
#pragma once

#include <atomic>
#include <cstdint>

#include "src/isa/instruction.hpp"
#include "src/sim/config.hpp"
#include "src/sim/launch.hpp"
#include "src/sim/memory.hpp"
#include "src/sim/report.hpp"
#include "src/sim/sm_core.hpp"
#include "src/sim/trace_run.hpp"

namespace st2::sim {

struct GridCapture;

/// Source of phase-1 captures. `ExecutionEngine::run` normally calls
/// `capture_grid` directly; a provider can interpose a cache (st2::tracecache)
/// or any other capture strategy. The contract is strict: `provide` must
/// leave `gmem` in exactly the post-launch state `capture_grid` would, and
/// return a capture whose replay is bit-identical to a fresh one.
class CaptureProvider {
 public:
  virtual ~CaptureProvider() = default;
  virtual GridCapture provide(const GpuConfig& cfg, const isa::Kernel& kernel,
                              const LaunchConfig& launch,
                              GlobalMemory& gmem) = 0;
};

struct EngineOptions {
  int jobs = 0;  ///< worker threads for SM replay; 0 = hardware_concurrency

  // --- watchdog -------------------------------------------------------------
  // A runaway replay (a kernel far larger than intended, a pathological
  // config) is cancelled gracefully instead of spinning to the 2^40-cycle
  // runaway abort: the run returns a partial RunReport marked "aborted" and
  // st2sim exits with the documented watchdog code.
  //
  // The cycle budget is enforced per SM — every SM stops at
  // min(own finish, budget) independently of thread schedule — so even the
  // *partial* aborted report is bit-identical across --jobs N. The wall
  // deadline and external cancellation are inherently schedule-dependent;
  // their partial counters are valid but not reproducible.
  std::uint64_t watchdog_cycles = 0;  ///< per-SM cycle budget; 0 = off
  std::uint64_t watchdog_ms = 0;      ///< replay wall deadline; 0 = off

  /// External cancellation (e.g. st2sim's SIGINT/SIGTERM flag): when it
  /// becomes true, workers stop at the next check quantum and the run
  /// reports "interrupted". Not owned; may be null.
  const std::atomic<bool>* cancel = nullptr;

  /// Capture source for `run`; null = call `capture_grid` directly.
  /// Not owned; must outlive the engine.
  CaptureProvider* capture_provider = nullptr;
};

/// Phase-1 result: one replay workload per SM (empty for idle SMs).
struct GridCapture {
  std::vector<SmWorkload> per_sm;
};

/// Runs the canonical functional pass over the whole grid (mutating `gmem`
/// exactly as trace_run would) and records the per-warp replay streams.
/// Adder-lane payloads are only captured when `cfg.st2_enabled`. A non-null
/// `observer` additionally sees every executed record, exactly as if passed
/// to `trace_run` with `record_lane_values` — so one functional pass can
/// both build a capture and feed trace-mode consumers (the sweep benches use
/// this to populate the trace cache for free).
GridCapture capture_grid(const GpuConfig& cfg, const isa::Kernel& kernel,
                         const LaunchConfig& launch, GlobalMemory& gmem,
                         const TraceObserver& observer = {},
                         bool record_lane_values = false);

class ExecutionEngine {
 public:
  explicit ExecutionEngine(const GpuConfig& cfg, EngineOptions opts = {});

  /// Captures and replays one kernel launch; returns the structured report.
  RunReport run(const isa::Kernel& kernel, const LaunchConfig& launch,
                GlobalMemory& gmem);

  /// Phase 1 alone: the capture from the configured provider, or from
  /// `capture_grid` when there is none.
  GridCapture capture(const isa::Kernel& kernel, const LaunchConfig& launch,
                      GlobalMemory& gmem);

  /// Replays an existing capture (capture once, replay many — e.g. the same
  /// value stream under different machine configs) in one pass per SM: each
  /// worker claims an SM, builds its SmCore, steps it to its finish or an
  /// abort cause (the watchdog budget, the wall deadline, `cancel`), seals
  /// it and frees it, so a replay holds at most one live core per worker.
  /// Counters are bit-identical for any `jobs`.
  RunReport replay(const isa::Kernel& kernel, const GridCapture& capture);

  const GpuConfig& config() const { return cfg_; }

 private:
  GpuConfig cfg_;
  EngineOptions opts_;
};

}  // namespace st2::sim

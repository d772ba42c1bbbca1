// One streaming multiprocessor's cycle-level pipeline model, as a
// first-class, unit-testable component: resident-block admission, warp
// slots with a register scoreboard, GTO/LRR warp schedulers, per-scheduler
// functional-unit occupancy, the L1/L2 latency model, and the ST2 carry
// speculation hooks (CRF read at operand collection, +1-cycle misprediction
// stall, write-back arbitration).
//
// The core is *replay-driven* (Accel-Sim style): it consumes per-warp
// instruction streams recorded by a single canonical functional pass
// (engine.hpp's capture_grid) instead of executing instructions itself.
// That split is what makes the chip-level engine parallel and deterministic:
// all architectural side effects (global memory, atomics) land exactly once
// during capture, and each SmCore afterwards touches nothing but its own
// state, so SMs can replay on any number of threads with bit-identical
// counters.
//
// Hot-path layout (docs/simulator.md, "Replay core internals"): warp-slot
// state lives in structure-of-arrays banks indexed by slot id, with packed
// active/at-barrier bitmasks so the schedulers walk candidate warps with
// countr_zero scans instead of iterating every slot. The banks, the masks
// and the per-PC interned metadata are pure layout changes — issue order,
// arbitration order and every counter are bit-identical to the original
// per-slot-struct design.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/isa/instruction.hpp"
#include "src/sim/config.hpp"
#include "src/sim/counters.hpp"
#include "src/sim/memory.hpp"
#include "src/sim/op_timing.hpp"
#include "src/spec/crf.hpp"
#include "src/spec/predictor.hpp"

namespace st2::sim {

/// One executed warp instruction, reduced to what timing replay needs.
/// Payload (coalesced cache lines for global memory ops, per-lane carry
/// data for adder ops) lives in the owning WarpStream's pools.
struct TraceOp {
  static constexpr std::uint8_t kIsMem = 1u << 0;
  static constexpr std::uint8_t kIsStore = 1u << 1;
  static constexpr std::uint8_t kIsShared = 1u << 2;
  static constexpr std::uint8_t kHasAdder = 1u << 3;
  static constexpr std::uint8_t kWritesReg = 1u << 4;

  std::uint32_t pc = 0;
  std::uint32_t active_mask = 0;
  std::uint8_t flags = 0;
  std::uint16_t mem_lines = 0;  ///< coalesced line count (global mem ops)
  std::uint32_t payload = 0;    ///< start index into the stream's pools

  bool is_mem() const { return (flags & kIsMem) != 0; }
  bool is_store() const { return (flags & kIsStore) != 0; }
  bool is_shared() const { return (flags & kIsShared) != 0; }
  bool has_adder() const { return (flags & kHasAdder) != 0; }
  bool writes_reg() const { return (flags & kWritesReg) != 0; }
};

/// The recorded instruction stream of one warp, in program-execution order.
struct WarpStream {
  std::vector<TraceOp> ops;
  std::vector<std::uint64_t> lines;        ///< coalesced line addresses
  /// Per (op, active lane), in order. Peek and the ground truth are
  /// functions of the operands only, so capture derives them once and
  /// replay combines them with the (timing-dependent) CRF history.
  std::vector<spec::LaneRecord> adder_lanes;
};

/// One thread block's warps, ready for admission to an SM.
struct BlockWork {
  int block_flat = -1;
  std::vector<WarpStream> warps;
};

/// Everything one SM will simulate: its blocks, in launch order.
struct SmWorkload {
  std::vector<BlockWork> blocks;
};

/// Checks that every block of `work` can be admitted to an SM under `cfg`
/// (enough warp slots, enough shared memory). Throws
/// SimError(kInadmissibleLaunch) with a one-line message otherwise — an
/// inadmissible block would leave the SM spinning forever with
/// finished() == false.
void validate_admissible(const GpuConfig& cfg, const isa::Kernel& kernel,
                         const SmWorkload& work);

/// Cycle-level model of one SM. Deterministic: state depends only on
/// (config, kernel, workload), never on wall-clock or other SMs.
class SmCore {
 public:
  SmCore(const GpuConfig& cfg, const isa::Kernel& kernel,
         const SmWorkload& work);

  /// Advances one cycle. Returns false once all blocks have retired (the
  /// final counters are sealed on the transition).
  bool step_cycle();

  /// Runs to completion and returns this SM's counters.
  EventCounters run();

  /// Seals the counters at the current cycle, finished or not — the
  /// watchdog's graceful-abort path. Idempotent; runs the always-on
  /// consistency invariants (counter reconciliation, CRF validity) and
  /// throws SimError(kInvariantViolation) if any fails.
  void seal() { seal_counters(); }

  /// Runs the always-on consistency invariants without sealing. Checkpoint
  /// snapshots call this at cycle boundaries: sealing there would make the
  /// eventual final seal a no-op and freeze `cycles` at the snapshot point.
  void validate_invariants() const;

  /// Checkpoint support: serializes the complete mutable replay state (warp
  /// slots, scoreboard, pending FU/memory/CRF events, CRF contents, fault
  /// RNG position, counters, timeline). The core is a pure function of
  /// (config, kernel, workload), so restoring into a freshly-constructed
  /// core over the same capture and stepping on is bit-identical to never
  /// having paused. All indices are validated on restore; violations throw
  /// the typed snapshot error. Derived state (the SoA bitmasks, stream
  /// pointers, the pending-CRF due watermark) is rebuilt, not stored.
  void save_state(snapshot::Writer& w) const;
  void restore_state(snapshot::Reader& r);

  bool finished() const { return live_blocks_ == 0 && next_block_ == work_.blocks.size(); }
  std::uint64_t now() const { return now_; }
  const EventCounters& counters() const { return counters_; }
  const spec::CarryPredictor& crf() const { return *crf_; }
  int live_blocks() const { return live_blocks_; }
  /// Blocks admitted so far (resident or retired).
  std::size_t blocks_admitted() const { return next_block_; }
  /// Issues per `cfg.timeline_bucket`-cycle bucket (empty when recording is
  /// off). Bucket i covers cycles [i*bucket, (i+1)*bucket).
  const std::vector<std::uint32_t>& timeline() const { return timeline_; }

 private:
  struct Resident {
    int work_idx = -1;  ///< index into work_.blocks; -1 = slot free
    int live_warps = 0;
    int warps_at_barrier = 0;
  };

  struct PendingCrfWrite {
    std::uint64_t due;
    std::uint32_t pc;
    std::uint8_t lane;
    std::uint8_t carries;
  };

  /// Per-PC scheduling facts, precomputed once so the per-cycle readiness
  /// polls and issue path never re-derive them.
  struct StaticInfo {
    Deps deps;
    OpTiming timing;
    isa::UnitClass unit;
    FuKind fu;
    bool is_bar = false;
    bool is_atomic = false;
    int rf_conflict_extra = 0;  ///< operand-collector bank serialization
  };

  /// Interned instruction-mix accounting: the exact counter deltas
  /// count_instruction would produce for one issued op, reduced to a sparse
  /// list of (counter, per-thread coefficient, per-warp constant) entries.
  /// Built lazily on a PC's first issue by *differential evaluation* of
  /// count_instruction itself (two synthetic records per variant), so
  /// count_instruction stays the single source of truth and the program
  /// cannot drift from it. Variants are keyed by the two record flags the
  /// accounting reads (writes_reg, is_shared); everything else it reads is
  /// static per PC.
  struct CounterProgram {
    struct Entry {
      std::uint16_t idx;         ///< for_each_counter visit position
      std::uint16_t per_thread;  ///< scaled by popcount(active_mask)
      std::uint16_t per_warp;    ///< charged once per issued op
    };
    std::array<Entry, 12> entries{};
    int n = -1;  ///< entry count; -1 = not built yet
  };

  bool admit_blocks();
  void skip_idle_cycles();
  bool warp_ready(int w, const TraceOp** out_op);
  bool try_issue(int sched);
  /// Scans candidate slots of `sched` in ascending slot order over
  /// [lo, hi), skipping `skip`, attempting to issue. Re-reads the candidate
  /// mask after any attempt that retired or admitted warps (mid-scan
  /// admissions become pollable exactly as they did under slot iteration).
  bool scan_candidates(int sched, int lo, int hi, int skip,
                       const TraceOp** op);
  void issue(int sched, int w, const TraceOp& op);
  void build_counter_program(std::uint32_t pc, int variant,
                             CounterProgram& cp) const;
  int mem_latency(const WarpStream& ws, const TraceOp& op, bool atomic,
                  int* occupancy);
  int speculate(const WarpStream& ws, const TraceOp& op, int latency);
  void release_barriers();
  void commit_crf_writes();
  void seal_counters();
  void attribute_stall(int sched, std::uint64_t start, std::uint64_t end);
  void attribute_scanned(int sched);

  // --- scan-side stall notes ------------------------------------------------
  // A failed try_issue already polled every candidate warp of its scheduler,
  // which is exactly the set attribute_stall would walk again one call
  // later. The scan therefore notes the stall cause of each failed poll as
  // it goes; step_cycle charges the cycle from the notes (attribute_scanned)
  // and only falls back to the attribute_stall rescan when a mid-scan
  // retire/admission (scan_exact_ == false) means not every candidate was
  // polled. Cause ranking matches attribute_stall: empty < barrier <
  // dependency < structural, with ST2-recovery overriding all of them.
  enum StallCause {
    kStallEmpty = 0,
    kStallBarrier = 1,
    kStallDependency = 2,
    kStallStructural = 3,
  };

  /// Notes a warp whose poll failed on scoreboard dependencies.
  void note_unready(int w) {
    const auto ws = static_cast<std::size_t>(w);
    if (!mask_bit(active_bits_, w)) return;  // the poll retired the warp
    scan_best_ = std::max(scan_best_, +kStallDependency);
    if (slot_ready_hint_base_[ws] < slot_ready_hint_[ws] &&
        slot_ready_hint_base_[ws] <= now_) {
      scan_st2_ = true;
    }
  }
  /// Notes a dep-ready warp held back by its busy functional unit.
  void note_fu_busy(int sched, FuKind k) {
    scan_best_ = std::max(scan_best_, +kStallStructural);
    const std::uint64_t tail = fu_st2_from(sched, k);
    if (tail < fu(sched, k) && tail <= now_) scan_st2_ = true;
  }

  std::uint64_t& fu(int sched, FuKind k) {
    return fu_busy_[static_cast<std::size_t>(sched * kNumFuKinds + int(k))];
  }
  std::uint64_t& fu_st2_from(int sched, FuKind k) {
    return fu_st2_from_[static_cast<std::size_t>(sched * kNumFuKinds +
                                                 int(k))];
  }

  // --- packed slot masks ----------------------------------------------------
  // One bit per warp slot, split into 64-bit words so any --max-warps value
  // works. Invariants: barrier_bits_ is a subset of active_bits_; bits at or
  // above max_warps_per_sm are never set. sched_bits_ holds each scheduler's
  // static slot ownership (slot w belongs to scheduler w % schedulers).
  bool mask_bit(const std::vector<std::uint64_t>& m, int w) const {
    return ((m[static_cast<std::size_t>(w >> 6)] >> (w & 63)) & 1u) != 0;
  }
  void set_mask_bit(std::vector<std::uint64_t>& m, int w) {
    m[static_cast<std::size_t>(w >> 6)] |= std::uint64_t{1} << (w & 63);
  }
  void clear_mask_bit(std::vector<std::uint64_t>& m, int w) {
    m[static_cast<std::size_t>(w >> 6)] &= ~(std::uint64_t{1} << (w & 63));
  }
  /// Candidate slots of `sched` in `word`: active, not at a barrier, owned.
  std::uint64_t cand_word(int sched, int word) const {
    const auto wi = static_cast<std::size_t>(word);
    return active_bits_[wi] & ~barrier_bits_[wi] &
           sched_bits_[static_cast<std::size_t>(sched) *
                           static_cast<std::size_t>(mask_words_) +
                       wi];
  }

  const GpuConfig& cfg_;
  const isa::Kernel& kernel_;
  const SmWorkload& work_;
  std::vector<StaticInfo> static_;  ///< indexed by pc
  /// Indexed by pc*4 + (writes_reg | is_shared<<1) — see CounterProgram.
  std::vector<CounterProgram> counter_prog_;
  /// for_each_counter visit position -> counter address, for applying
  /// CounterProgram entries without re-deriving the field each issue.
  std::vector<std::uint64_t*> counter_slots_;
  Cache l1_;
  Cache l2_;  ///< private tag array: keeps SMs independent (see engine.hpp)
  /// The selected carry-prediction policy (cfg.predictor; the paper's CRF
  /// by default). Owned per SM so parallel replay shares nothing.
  std::unique_ptr<spec::CarryPredictor> crf_;
  /// Fault source, engaged only when cfg.inject.enabled(): draws are a pure
  /// function of this SM's replay stream, so fault placement is
  /// bit-identical across --jobs N. Disengaged = zero simulation impact.
  std::optional<fault::FaultInjector> inject_;

  std::size_t next_block_ = 0;  ///< next work_.blocks entry to admit
  /// Pending CRF write-backs, one flat arena reused across cycles (capacity
  /// is never released). Commit order must stay the insertion-plus-swap-
  /// remove order of the original design: the CRF's write arbitration draws
  /// its RNG per same-cycle (row, lane) group, so any reordering of
  /// request_write calls would change arbitration winners and break
  /// bit-identity. The `crf_due_min_` watermark (earliest due cycle, or
  /// ~0 when empty) lets commit_crf_writes skip the scan entirely on the
  /// overwhelming majority of cycles where nothing is due.
  std::vector<PendingCrfWrite> pending_crf_;
  std::uint64_t crf_due_min_ = ~std::uint64_t{0};
  std::vector<Resident> resident_;

  // --- warp-slot banks (structure of arrays, indexed by slot id) ------------
  // Split by access pattern: the scheduler's ready polls touch cursor/len/
  // hint and the ops pointer; the scoreboard banks are flat 2-D arrays
  // `[slot * stride + reg]` so one warp's scoreboard is a contiguous run.
  int mask_words_ = 0;
  std::vector<std::uint64_t> active_bits_;
  std::vector<std::uint64_t> barrier_bits_;
  std::vector<std::uint64_t> sched_bits_;
  std::vector<const WarpStream*> slot_stream_;
  std::vector<const TraceOp*> slot_ops_;   ///< = slot_stream_->ops.data()
  std::vector<std::uint32_t> slot_cursor_;
  std::vector<std::uint32_t> slot_len_;    ///< = slot_stream_->ops.size()
  std::vector<std::int32_t> slot_resident_;
  /// Cycle at which the current op's scoreboard deps are all ready;
  /// memoizes failed polls so stalled warps cost one compare per cycle.
  std::vector<std::uint64_t> slot_ready_hint_;
  /// Same point with the producers' ST2 recovery cycles subtracted: the
  /// window [ready_hint_base, ready_hint) is wait time the stall
  /// attribution charges to ST2 repair rather than to the dependency.
  std::vector<std::uint64_t> slot_ready_hint_base_;
  std::vector<std::uint64_t> reg_ready_;      ///< [slot * regs_used + r]
  /// Per register: how many of the cycles up to reg_ready are ST2 recovery
  /// cycles of the producing instruction (0 or 1).
  std::vector<std::uint8_t> reg_st2_extra_;
  std::vector<std::uint64_t> pred_ready_;     ///< [slot * kNumPredRegs + p]

  /// Bumped whenever a retire or admission changes the slot population;
  /// in-flight candidate scans detect it and re-read their masks.
  std::uint64_t topo_gen_ = 0;

  std::vector<std::uint64_t> fu_busy_;
  /// Per (scheduler, FU): start of the ST2-recovery tail of the current busy
  /// window. The window [fu_st2_from, fu_busy) is occupancy the unit only
  /// has because of a +1 repair cycle; equal values mean no tail.
  std::vector<std::uint64_t> fu_st2_from_;
  std::vector<std::uint32_t> timeline_;  ///< issues per bucket (opt-in)
  std::vector<int> last_issued_;
  std::vector<int> slot_scratch_;  ///< admit_blocks working set, reused
  std::uint64_t now_ = 0;
  int live_blocks_ = 0;
  /// Number of resident blocks whose live warps are ALL parked at a barrier
  /// (ready for release). Maintained at every warps_at_barrier / live_warps
  /// transition so the per-cycle release_barriers scan reduces to one
  /// compare when nothing is ripe — the overwhelmingly common cycle.
  int barrier_ripe_ = 0;
  int scan_best_ = kStallEmpty;  ///< strongest cause the last scan saw
  bool scan_st2_ = false;        ///< some warp was held back only by ST2
  bool scan_exact_ = false;      ///< the last scan polled every candidate
  bool admitted_midcycle_ = false;  ///< blocks landed during this cycle's polls
  bool sealed_ = false;
  EventCounters counters_;
};

}  // namespace st2::sim

// Functional SIMT execution core: executes one warp-instruction at a time
// with full divergence/barrier semantics against a flat global memory.
// Both the fast trace runner (Figures 2/3/5/6) and the cycle-level timing
// simulator (Figure 7) drive this core, so functional results are identical
// by construction in both modes.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/isa/instruction.hpp"
#include "src/sim/adder_ops.hpp"
#include "src/sim/launch.hpp"
#include "src/sim/memory.hpp"
#include "src/sim/simt.hpp"
#include "src/spec/predictor.hpp"

namespace st2::sim {

/// Per-warp architectural state.
class WarpContext {
 public:
  WarpContext(int block_flat, int warp_in_block, std::uint32_t initial_mask,
              int regs_used);

  SimtStack& stack() { return stack_; }
  const SimtStack& stack() const { return stack_; }

  std::uint64_t reg(int lane, int r) const {
    return regs_[static_cast<std::size_t>(lane) * regs_used_ + r];
  }
  void set_reg(int lane, int r, std::uint64_t v) {
    regs_[static_cast<std::size_t>(lane) * regs_used_ + r] = v;
  }
  /// The lane-major register file: lane l's register r is at
  /// reg_file()[l * regs_used() + r]. Warp-wide loops hoist both.
  std::uint64_t* reg_file() { return regs_.data(); }
  int regs_used() const { return regs_used_; }

  /// Predicate `p` of every lane, lane l in bit l.
  std::uint32_t pred_bits(int p) const {
    return preds_[static_cast<std::size_t>(p)];
  }
  /// Sets predicate `p` of the lanes in `mask` to their bits of `bits`.
  void set_pred_bits(int p, std::uint32_t mask, std::uint32_t bits) {
    std::uint32_t& word = preds_[static_cast<std::size_t>(p)];
    word = (word & ~mask) | (bits & mask);
  }

  bool pred(int lane, int p) const {
    return ((preds_[static_cast<std::size_t>(p)] >> lane) & 1u) != 0;
  }
  void set_pred(int lane, int p, bool v) {
    const std::uint32_t bit = 1u << lane;
    if (v) {
      preds_[static_cast<std::size_t>(p)] |= bit;
    } else {
      preds_[static_cast<std::size_t>(p)] &= ~bit;
    }
  }

  int block_flat() const { return block_flat_; }
  int warp_in_block() const { return warp_in_block_; }
  bool done() const { return stack_.done(); }

  /// Rearms this context for another block of the same launch: fresh stack,
  /// zeroed registers and predicates. Reusing contexts keeps the trace
  /// loop free of per-block register-file allocations.
  void reset(int block_flat, std::uint32_t initial_mask) {
    stack_.reset(initial_mask);
    block_flat_ = block_flat;
    std::fill(regs_.begin(), regs_.end(), 0);
    preds_.fill(0);
    at_barrier = false;
  }

  bool at_barrier = false;

 private:
  SimtStack stack_;
  int block_flat_;
  int warp_in_block_;
  int regs_used_;
  std::vector<std::uint64_t> regs_;
  std::array<std::uint32_t, isa::kNumPredRegs> preds_{};
};

/// What one warp-instruction did — the observer payload for trace mode and
/// the input of capture. What kind of op it was (unit, memory, store,
/// shared, register write) is a fact of its opcode, read from `instr`.
struct ExecRecord {
  const isa::Instruction* instr = nullptr;
  std::uint32_t pc = 0;
  int block_flat = 0;
  int warp_in_block = 0;
  std::uint32_t active_mask = 0;

  /// adder_slices(instr->op) != 0, set by step() for observers.
  bool has_adder_op = false;
  /// Each active adder lane's Peek mask and true carries
  /// (spec::lane_record), computed once by step(): capture copies them
  /// into the replay stream, and the lattice reads them as words(). Valid
  /// where active.
  spec::WarpLanes lanes{};

  /// The lane planes as spec::lane_words under the relevant mask of the
  /// opcode's slice count and the active lanes. Derived on the first call
  /// after step() executes an adder instruction and kept until it executes
  /// the next one, so the lattice's harnesses derive them once per record
  /// however many read them, and capture, which never asks, never pays for
  /// them. Adder records only.
  const spec::LaneWords& words() const {
    ST2_EXPECTS(has_adder_op);
    if (!words_ready_) {
      words_ = spec::lane_words(
          lanes, spec::relevant_mask(adder_slices(instr->op)), active_mask);
      words_ready_ = true;
    }
    return words_;
  }
  /// Each active adder lane's micro-op; valid where active, and only under
  /// record_lane_values.
  std::array<AdderMicroOp, kWarpSize> adder{};

  /// Each active lane's address; valid where active, for memory opcodes.
  std::array<std::uint64_t, kWarpSize> mem_addr{};

  /// Input knob, not an output: when set by the caller, `result` receives
  /// the destination value written per lane (valid where active, for
  /// opcodes that write a register) and `adder` each active adder lane's
  /// micro-op. Off by default: capture and the lattice read neither, and
  /// skipping the per-lane stores measurably speeds up the functional
  /// step. Observers that read per-lane operands or results (the Figure 2
  /// tracer, the related-adder and ablation benches) turn it on.
  bool record_lane_values = false;
  std::array<std::uint64_t, kWarpSize> result{};

 private:
  friend class FunctionalCore;  // an adder step forgets the last words
  mutable spec::LaneWords words_{};
  mutable bool words_ready_ = false;
};

enum class StepStatus {
  kExecuted,   ///< one instruction executed
  kAtBarrier,  ///< warp parked at a barrier (no instruction consumed)
  kDone,       ///< warp has exited
};

/// Executes the code of one kernel for the warps of one block.
class FunctionalCore {
 public:
  FunctionalCore(const isa::Kernel& kernel, const LaunchConfig& launch,
                 GlobalMemory& gmem, std::vector<std::uint8_t>& smem);

  /// Executes the next instruction of `w` (respecting barriers). `rec` is
  /// filled with what happened (only the fields its opcode makes valid).
  StepStatus step(WarpContext& w, ExecRecord& rec);

  /// Clears the barrier flag of a warp (block controller releases barriers).
  static void release_barrier(WarpContext& w) { w.at_barrier = false; }

  const isa::Kernel& kernel() const { return kernel_; }
  const LaunchConfig& launch() const { return launch_; }

  /// Initial active mask for a warp of the block (partial last warp).
  std::uint32_t initial_mask(int warp_in_block) const;

 private:
  std::uint64_t special_value(isa::SpecialReg s, int block_flat,
                              int lin_tid) const;

  const isa::Kernel& kernel_;
  const LaunchConfig& launch_;
  GlobalMemory& gmem_;
  std::vector<std::uint8_t>& smem_;
};

}  // namespace st2::sim

// Mini-PTX: the PTX-like intermediate ISA our GPU simulator executes.
//
// This plays the role of NVIDIA's PTX in the paper's GPGPU-Sim setup
// (Section V): a data-parallel virtual ISA with integer ALU ops, FP32/FP64
// arithmetic, special-function ops, predication, global/shared memory and
// barriers. Kernels are built with isa::KernelBuilder, which also fixes the
// SIMT reconvergence points the simulator's divergence stack uses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace st2::isa {

enum class Opcode : std::uint8_t {
  kNop = 0,
  // Integer ALU (64-bit registers; 32-bit ops sign-extend their result).
  kIAdd, kISub, kIMul, kIMulHi, kIDiv, kIRem, kIMad,
  kIMin, kIMax, kIAbs, kINeg,
  kIAnd, kIOr, kIXor, kINot, kIShl, kIShrL, kIShrA,
  // Integer comparisons writing a predicate register.
  kSetEq, kSetNe, kSetLt, kSetLe, kSetGt, kSetGe,
  // Predicate logic and select.
  kPAnd, kPOr, kPNot, kSelp,
  // FP32 (value kept as bit pattern in the low 32 bits of the register).
  kFAdd, kFSub, kFMul, kFDiv, kFFma, kFMin, kFMax, kFAbs, kFNeg,
  kFSetLt, kFSetLe, kFSetGt, kFSetGe, kFSetEq, kFSetNe,
  // FP32 special functions (SFU).
  kFSqrt, kFRsqrt, kFRcp, kFLog2, kFExp2, kFSin, kFCos,
  // FP64 (DPU).
  kDAdd, kDSub, kDMul, kDDiv, kDFma, kDMin, kDMax,
  // Conversions and moves.
  kMov, kMovImm, kMovSpecial, kLdParam, kI2F, kF2I, kI2D, kD2I, kF2D, kD2F,
  // Memory. Operand address = reg[src1] + imm; size is msize bytes.
  kLdGlobal, kStGlobal, kLdShared, kStShared,
  // Atomic add (returns the old value). The addition happens in the memory
  // subsystem's atomic units, not the SM adders, so ST2 does not speculate
  // on it. Active lanes hitting one address serialize in lane order.
  kAtomAddGlobal, kAtomAddShared,
  // Warp shuffles (data exchange without shared memory).
  kShflDown,  ///< dst = reg[src1] of lane (lane + imm), else own value
  kShflIdx,   ///< dst = reg[src1] of lane (reg[src2] & 31), else own value
  // Control.
  kBra,     ///< if pred (or !pred per pred_negate) jump to target
  kJmp,     ///< unconditional jump
  kBar,     ///< block-wide barrier
  kExit,    ///< thread exit
  kOpcodeCount,
};

enum class SpecialReg : std::uint8_t {
  kTidX, kTidY, kNtidX, kNtidY, kCtaidX, kCtaidY, kNctaidX, kNctaidY,
  kGtid,    ///< flattened global thread id
  kLaneId,  ///< 0..31
  kWarpId,  ///< warp index within the block
};

/// Functional unit class, mirroring the paper's component breakdown.
enum class UnitClass : std::uint8_t {
  kAlu,      ///< integer add/sub/logic/shift/min/max/compare
  kIntMulDiv,
  kFpu,      ///< FP32 add/sub/min/max/compare (adder datapath)
  kFpMulDiv, ///< FP32 mul, div, fma multiplier portion
  kDpu,      ///< FP64
  kSfu,      ///< transcendental ops
  kMem,
  kControl,
};

struct Instruction {
  Opcode op = Opcode::kNop;
  std::uint16_t dst = 0;   ///< destination register (or predicate for setp)
  std::uint16_t src1 = 0;
  std::uint16_t src2 = 0;
  std::uint16_t src3 = 0;  ///< third source (mad/fma/selp)
  std::uint8_t pred = 0;   ///< guarding predicate register (kBra, kSelp)
  bool pred_negate = false;
  std::uint8_t msize = 0;  ///< memory access size in bytes (1, 4 or 8)
  bool msext = false;      ///< sign-extend narrow loads (s32/s8 vs b32/b8)
  SpecialReg special = SpecialReg::kTidX;
  std::int64_t imm = 0;
  std::uint32_t target = 0;  ///< branch target pc
  std::uint32_t reconv = 0;  ///< SIMT reconvergence pc for kBra
};

/// Maximum *virtual* registers per thread. Mini-PTX, like PTX, is a virtual
/// ISA: the builder allocates SSA-style virtual registers freely and reports
/// each kernel's actual high-water mark in Kernel::regs_used, which is what
/// the simulator sizes per-thread storage by. (A real backend would run a
/// register allocator; modeling that pressure is out of scope.)
inline constexpr int kNumRegs = 4096;
/// Number of 1-bit predicate registers per thread.
inline constexpr int kNumPredRegs = 256;  // virtual, like the general regs

/// Unit that executes an opcode.
UnitClass unit_class(Opcode op);

/// True for the memory opcodes that address shared memory; the other
/// kMem opcodes address global memory.
bool is_shared(Opcode op);

/// True for the memory opcodes that write memory. An atomic counts as a
/// store: timing replays its read-modify-write as one.
bool is_store(Opcode op);

/// True for the pure add/sub opcodes counted as "ALU Add" / "FPU Add" in the
/// paper's Figure 1 instruction mix.
bool is_add_sub(Opcode op);

const char* mnemonic(Opcode op);
const char* special_name(SpecialReg s);

/// A complete kernel: instructions plus static metadata.
struct Kernel {
  std::string name;
  std::vector<Instruction> code;
  int shared_bytes = 0;   ///< static shared memory per block
  int regs_used = kNumRegs;

  std::string disassemble() const;
};

}  // namespace st2::isa

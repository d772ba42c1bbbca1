#include "src/sim/functional.hpp"

#include <bit>
#include <cmath>
#include <limits>

#include "src/common/bitutils.hpp"
#include "src/common/contracts.hpp"

namespace st2::sim {

namespace {

using isa::Instruction;
using isa::Opcode;

float f32(std::uint64_t raw) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(raw));
}
std::uint64_t from_f32(float v) {
  return std::bit_cast<std::uint32_t>(v);  // upper 32 bits zero
}
double f64(std::uint64_t raw) { return std::bit_cast<double>(raw); }
std::uint64_t from_f64(double v) { return std::bit_cast<std::uint64_t>(v); }
std::int64_t s64(std::uint64_t raw) { return static_cast<std::int64_t>(raw); }
std::uint64_t from_s64(std::int64_t v) {
  return static_cast<std::uint64_t>(v);
}

std::int64_t safe_div(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  if (a == std::numeric_limits<std::int64_t>::min() && b == -1) return a;
  return a / b;
}

std::int64_t safe_rem(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  if (a == std::numeric_limits<std::int64_t>::min() && b == -1) return 0;
  return a % b;
}

std::int64_t f2i(float v) {
  if (std::isnan(v)) return 0;
  if (v >= 9.2e18f) return std::numeric_limits<std::int64_t>::max();
  if (v <= -9.2e18f) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(v);
}

std::int64_t d2i(double v) {
  if (std::isnan(v)) return 0;
  if (v >= 9.2e18) return std::numeric_limits<std::int64_t>::max();
  if (v <= -9.2e18) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(v);
}

}  // namespace

WarpContext::WarpContext(int block_flat, int warp_in_block,
                         std::uint32_t initial_mask, int regs_used)
    : stack_(initial_mask),
      block_flat_(block_flat),
      warp_in_block_(warp_in_block),
      regs_used_(regs_used),
      regs_(static_cast<std::size_t>(kWarpSize) * regs_used, 0) {}

FunctionalCore::FunctionalCore(const isa::Kernel& kernel,
                               const LaunchConfig& launch, GlobalMemory& gmem,
                               std::vector<std::uint8_t>& smem)
    : kernel_(kernel), launch_(launch), gmem_(gmem), smem_(smem) {
  if (smem_.size() < static_cast<std::size_t>(kernel.shared_bytes)) {
    smem_.resize(static_cast<std::size_t>(kernel.shared_bytes), 0);
  }
  decode_.reserve(kernel.code.size());
  for (const Instruction& in : kernel.code) {
    decode_.push_back(DecodedOp{isa::unit_class(in.op), isa::uses_adder(in.op)});
  }
}

std::uint32_t FunctionalCore::initial_mask(int warp_in_block) const {
  const int tpb = launch_.threads_per_block();
  const int first = warp_in_block * kWarpSize;
  std::uint32_t m = 0;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (first + lane < tpb) m |= 1u << lane;
  }
  return m;
}

std::uint64_t FunctionalCore::special_value(isa::SpecialReg s, int block_flat,
                                            int lin_tid) const {
  using isa::SpecialReg;
  switch (s) {
    case SpecialReg::kTidX: return std::uint64_t(lin_tid % launch_.block_x);
    case SpecialReg::kTidY: return std::uint64_t(lin_tid / launch_.block_x);
    case SpecialReg::kNtidX: return std::uint64_t(launch_.block_x);
    case SpecialReg::kNtidY: return std::uint64_t(launch_.block_y);
    case SpecialReg::kCtaidX: return std::uint64_t(block_flat % launch_.grid_x);
    case SpecialReg::kCtaidY: return std::uint64_t(block_flat / launch_.grid_x);
    case SpecialReg::kNctaidX: return std::uint64_t(launch_.grid_x);
    case SpecialReg::kNctaidY: return std::uint64_t(launch_.grid_y);
    case SpecialReg::kGtid:
      return std::uint64_t(block_flat) * launch_.threads_per_block() + lin_tid;
    case SpecialReg::kLaneId: return std::uint64_t(lin_tid % kWarpSize);
    case SpecialReg::kWarpId: return std::uint64_t(lin_tid / kWarpSize);
  }
  return 0;
}

StepStatus FunctionalCore::step(WarpContext& w, ExecRecord& rec) {
  if (w.at_barrier) return StepStatus::kAtBarrier;
  w.stack().settle();
  if (w.done()) return StepStatus::kDone;

  const std::uint32_t pc = w.stack().pc();
  ST2_ASSERT(pc < kernel_.code.size());
  const Instruction& in = kernel_.code[pc];
  const DecodedOp dec = decode_[pc];
  const std::uint32_t mask = w.stack().mask();

  // Reset the scalar fields only: the per-lane arrays are "valid where
  // active" under the flag that guards them (see ExecRecord), and every
  // such lane is rewritten below — zeroing ~800 bytes per instruction
  // would dominate the interpreter.
  rec.instr = &in;
  rec.pc = pc;
  rec.block_flat = w.block_flat();
  rec.warp_in_block = w.warp_in_block();
  rec.active_mask = mask;
  rec.unit = dec.unit;
  rec.has_adder_op = false;
  rec.is_mem = false;
  rec.is_store = false;
  rec.is_shared = false;
  rec.mem_size = 0;
  rec.writes_reg = false;

  const bool adder = dec.uses_adder;

  // Visits active lanes in ascending order by peeling set bits — no work and
  // no branch misprediction for inactive lanes (divergent masks are common).
  auto for_lanes = [&](auto&& fn) {
    for (std::uint32_t m = mask; m != 0; m &= m - 1) {
      fn(std::countr_zero(m));
    }
  };

  auto write_result = [&](int lane, std::uint64_t v) {
    w.set_reg(lane, in.dst, v);
    rec.writes_reg = true;
    if (rec.record_results) {
      rec.result[static_cast<std::size_t>(lane)] = v;
    }
  };

  auto record_adder = [&](int lane, std::uint64_t s1, std::uint64_t s2,
                          std::uint64_t s3) {
    if (!adder) return;
    const auto mop = adder_micro_op(in.op, s1, s2, s3);
    if (mop.has_value()) {
      rec.has_adder_op = true;
      rec.adder[static_cast<std::size_t>(lane)] = *mop;
      rec.lanes.set(lane, spec::lane_record(mop->a, mop->b, mop->cin,
                                            mop->num_slices));
    }
  };

  // Generic 3-source integer/float execute. The opcode is warp-invariant, so
  // dispatch on it ONCE and run a tight per-lane loop inside each case: the
  // old shape (a per-lane switch) paid an indirect branch per active lane and
  // dominated the interpreter's profile. ST2_LANE_OP expands to the lane loop
  // body shared by every case — source reads, adder capture, then the op.
  // Inside a case the opcode is a compile-time constant, so the inline
  // adder_micro_op switch folds away too.
#define ST2_LANE_OP(...)                             \
  for_lanes([&](int lane) {                          \
    const std::uint64_t s1 = w.reg(lane, in.src1);   \
    const std::uint64_t s2 = w.reg(lane, in.src2);   \
    const std::uint64_t s3 = w.reg(lane, in.src3);   \
    record_adder(lane, s1, s2, s3);                  \
    __VA_ARGS__;                                     \
  })

  auto exec_generic = [&] {
    switch (in.op) {
      // Integer add/sub/mul/mad/neg wrap modulo 2^64 like the modeled
      // hardware, so they are computed in unsigned arithmetic (same bits as
      // two's-complement, without the signed-overflow UB that workloads with
      // LCG-style constants actually hit).
      case Opcode::kIAdd: ST2_LANE_OP(write_result(lane, s1 + s2)); break;
      case Opcode::kISub: ST2_LANE_OP(write_result(lane, s1 - s2)); break;
      case Opcode::kIMul: ST2_LANE_OP(write_result(lane, s1 * s2)); break;
      case Opcode::kIMulHi:
        ST2_LANE_OP({
          const __int128 p = static_cast<__int128>(s64(s1)) * s64(s2);
          write_result(lane, from_s64(static_cast<std::int64_t>(p >> 64)));
        });
        break;
      case Opcode::kIDiv: ST2_LANE_OP(write_result(lane, from_s64(safe_div(s64(s1), s64(s2))))); break;
      case Opcode::kIRem: ST2_LANE_OP(write_result(lane, from_s64(safe_rem(s64(s1), s64(s2))))); break;
      case Opcode::kIMad: ST2_LANE_OP(write_result(lane, s1 * s2 + s3)); break;
      case Opcode::kIMin: ST2_LANE_OP(write_result(lane, from_s64(std::min(s64(s1), s64(s2))))); break;
      case Opcode::kIMax: ST2_LANE_OP(write_result(lane, from_s64(std::max(s64(s1), s64(s2))))); break;
      case Opcode::kIAbs: ST2_LANE_OP(write_result(lane, from_s64(std::abs(s64(s1))))); break;
      case Opcode::kINeg: ST2_LANE_OP(write_result(lane, 0 - s1)); break;
      case Opcode::kIAnd: ST2_LANE_OP(write_result(lane, s1 & s2)); break;
      case Opcode::kIOr: ST2_LANE_OP(write_result(lane, s1 | s2)); break;
      case Opcode::kIXor: ST2_LANE_OP(write_result(lane, s1 ^ s2)); break;
      case Opcode::kINot: ST2_LANE_OP(write_result(lane, ~s1)); break;
      case Opcode::kIShl: ST2_LANE_OP(write_result(lane, s1 << (s2 & 63))); break;
      case Opcode::kIShrL: ST2_LANE_OP(write_result(lane, s1 >> (s2 & 63))); break;
      case Opcode::kIShrA: ST2_LANE_OP(write_result(lane, from_s64(s64(s1) >> (s2 & 63)))); break;

      case Opcode::kSetEq: ST2_LANE_OP(w.set_pred(lane, in.dst, s64(s1) == s64(s2))); break;
      case Opcode::kSetNe: ST2_LANE_OP(w.set_pred(lane, in.dst, s64(s1) != s64(s2))); break;
      case Opcode::kSetLt: ST2_LANE_OP(w.set_pred(lane, in.dst, s64(s1) < s64(s2))); break;
      case Opcode::kSetLe: ST2_LANE_OP(w.set_pred(lane, in.dst, s64(s1) <= s64(s2))); break;
      case Opcode::kSetGt: ST2_LANE_OP(w.set_pred(lane, in.dst, s64(s1) > s64(s2))); break;
      case Opcode::kSetGe: ST2_LANE_OP(w.set_pred(lane, in.dst, s64(s1) >= s64(s2))); break;

      case Opcode::kPAnd:
        ST2_LANE_OP(w.set_pred(lane, in.dst,
                               w.pred(lane, in.src1) && w.pred(lane, in.src2)));
        break;
      case Opcode::kPOr:
        ST2_LANE_OP(w.set_pred(lane, in.dst,
                               w.pred(lane, in.src1) || w.pred(lane, in.src2)));
        break;
      case Opcode::kPNot:
        ST2_LANE_OP(w.set_pred(lane, in.dst, !w.pred(lane, in.src1)));
        break;
      case Opcode::kSelp:
        ST2_LANE_OP(write_result(lane, w.pred(lane, in.pred) ? s1 : s2));
        break;

      case Opcode::kFAdd: ST2_LANE_OP(write_result(lane, from_f32(f32(s1) + f32(s2)))); break;
      case Opcode::kFSub: ST2_LANE_OP(write_result(lane, from_f32(f32(s1) - f32(s2)))); break;
      case Opcode::kFMul: ST2_LANE_OP(write_result(lane, from_f32(f32(s1) * f32(s2)))); break;
      case Opcode::kFDiv: ST2_LANE_OP(write_result(lane, from_f32(f32(s1) / f32(s2)))); break;
      case Opcode::kFFma:
        ST2_LANE_OP(write_result(lane, from_f32(std::fma(f32(s1), f32(s2), f32(s3)))));
        break;
      case Opcode::kFMin: ST2_LANE_OP(write_result(lane, from_f32(std::fmin(f32(s1), f32(s2))))); break;
      case Opcode::kFMax: ST2_LANE_OP(write_result(lane, from_f32(std::fmax(f32(s1), f32(s2))))); break;
      case Opcode::kFAbs: ST2_LANE_OP(write_result(lane, from_f32(std::fabs(f32(s1))))); break;
      case Opcode::kFNeg: ST2_LANE_OP(write_result(lane, from_f32(-f32(s1)))); break;

      case Opcode::kFSetLt: ST2_LANE_OP(w.set_pred(lane, in.dst, f32(s1) < f32(s2))); break;
      case Opcode::kFSetLe: ST2_LANE_OP(w.set_pred(lane, in.dst, f32(s1) <= f32(s2))); break;
      case Opcode::kFSetGt: ST2_LANE_OP(w.set_pred(lane, in.dst, f32(s1) > f32(s2))); break;
      case Opcode::kFSetGe: ST2_LANE_OP(w.set_pred(lane, in.dst, f32(s1) >= f32(s2))); break;
      case Opcode::kFSetEq: ST2_LANE_OP(w.set_pred(lane, in.dst, f32(s1) == f32(s2))); break;
      case Opcode::kFSetNe: ST2_LANE_OP(w.set_pred(lane, in.dst, f32(s1) != f32(s2))); break;

      case Opcode::kFSqrt: ST2_LANE_OP(write_result(lane, from_f32(std::sqrt(f32(s1))))); break;
      case Opcode::kFRsqrt:
        ST2_LANE_OP(write_result(lane, from_f32(1.0f / std::sqrt(f32(s1)))));
        break;
      case Opcode::kFRcp: ST2_LANE_OP(write_result(lane, from_f32(1.0f / f32(s1)))); break;
      case Opcode::kFLog2: ST2_LANE_OP(write_result(lane, from_f32(std::log2(f32(s1))))); break;
      case Opcode::kFExp2: ST2_LANE_OP(write_result(lane, from_f32(std::exp2(f32(s1))))); break;
      case Opcode::kFSin: ST2_LANE_OP(write_result(lane, from_f32(std::sin(f32(s1))))); break;
      case Opcode::kFCos: ST2_LANE_OP(write_result(lane, from_f32(std::cos(f32(s1))))); break;

      case Opcode::kDAdd: ST2_LANE_OP(write_result(lane, from_f64(f64(s1) + f64(s2)))); break;
      case Opcode::kDSub: ST2_LANE_OP(write_result(lane, from_f64(f64(s1) - f64(s2)))); break;
      case Opcode::kDMul: ST2_LANE_OP(write_result(lane, from_f64(f64(s1) * f64(s2)))); break;
      case Opcode::kDDiv: ST2_LANE_OP(write_result(lane, from_f64(f64(s1) / f64(s2)))); break;
      case Opcode::kDFma:
        ST2_LANE_OP(write_result(lane, from_f64(std::fma(f64(s1), f64(s2), f64(s3)))));
        break;
      case Opcode::kDMin: ST2_LANE_OP(write_result(lane, from_f64(std::fmin(f64(s1), f64(s2))))); break;
      case Opcode::kDMax: ST2_LANE_OP(write_result(lane, from_f64(std::fmax(f64(s1), f64(s2))))); break;

      case Opcode::kMov: ST2_LANE_OP(write_result(lane, s1)); break;
      case Opcode::kI2F: ST2_LANE_OP(write_result(lane, from_f32(static_cast<float>(s64(s1))))); break;
      case Opcode::kF2I: ST2_LANE_OP(write_result(lane, from_s64(f2i(f32(s1))))); break;
      case Opcode::kI2D: ST2_LANE_OP(write_result(lane, from_f64(static_cast<double>(s64(s1))))); break;
      case Opcode::kD2I: ST2_LANE_OP(write_result(lane, from_s64(d2i(f64(s1))))); break;
      case Opcode::kF2D: ST2_LANE_OP(write_result(lane, from_f64(static_cast<double>(f32(s1))))); break;
      case Opcode::kD2F: ST2_LANE_OP(write_result(lane, from_f32(static_cast<float>(f64(s1))))); break;

      default:
        ST2_ASSERT(false && "unhandled opcode in exec_generic");
    }
  };
#undef ST2_LANE_OP

  switch (in.op) {
    case Opcode::kNop:
      w.stack().advance();
      break;

    case Opcode::kMovImm:
      for_lanes([&](int lane) {
        write_result(lane, static_cast<std::uint64_t>(in.imm));
      });
      w.stack().advance();
      break;

    case Opcode::kLdParam:
      for_lanes([&](int lane) {
        write_result(lane,
                     launch_.args.at(static_cast<std::size_t>(in.imm)));
      });
      w.stack().advance();
      break;

    case Opcode::kMovSpecial:
      for_lanes([&](int lane) {
        const int lin = w.warp_in_block() * kWarpSize + lane;
        write_result(lane, special_value(in.special, w.block_flat(), lin));
      });
      w.stack().advance();
      break;

    case Opcode::kLdGlobal:
    case Opcode::kLdShared: {
      const bool shared = in.op == Opcode::kLdShared;
      rec.is_mem = true;
      rec.is_shared = shared;
      rec.mem_size = in.msize;
      for_lanes([&](int lane) {
        const std::uint64_t addr =
            w.reg(lane, in.src1) + static_cast<std::uint64_t>(in.imm);
        std::uint64_t v;
        if (shared) {
          ST2_ASSERT(addr + in.msize <= smem_.size());
          v = 0;
          std::memcpy(&v, smem_.data() + addr, in.msize);
        } else {
          v = gmem_.load(addr, in.msize);
        }
        if (in.msext && in.msize < 8) {
          v = static_cast<std::uint64_t>(sign_extend(v, 8 * in.msize));
        }
        write_result(lane, v);
        rec.mem_addr[static_cast<std::size_t>(lane)] = addr;
      });
      w.stack().advance();
      break;
    }

    case Opcode::kStGlobal:
    case Opcode::kStShared: {
      const bool shared = in.op == Opcode::kStShared;
      rec.is_mem = true;
      rec.is_store = true;
      rec.is_shared = shared;
      rec.mem_size = in.msize;
      for_lanes([&](int lane) {
        const std::uint64_t addr =
            w.reg(lane, in.src1) + static_cast<std::uint64_t>(in.imm);
        const std::uint64_t v = w.reg(lane, in.src2);
        if (shared) {
          ST2_ASSERT(addr + in.msize <= smem_.size());
          std::memcpy(smem_.data() + addr, &v, in.msize);
        } else {
          gmem_.store(addr, v, in.msize);
        }
        rec.mem_addr[static_cast<std::size_t>(lane)] = addr;
      });
      w.stack().advance();
      break;
    }

    case Opcode::kAtomAddGlobal:
    case Opcode::kAtomAddShared: {
      // Active lanes serialize in lane order (how GPU atomic units resolve
      // intra-warp contention deterministically in simulators).
      const bool shared = in.op == Opcode::kAtomAddShared;
      rec.is_mem = true;
      rec.is_store = true;  // timing: read-modify-write transaction
      rec.is_shared = shared;
      rec.mem_size = in.msize;
      for_lanes([&](int lane) {
        const std::uint64_t addr =
            w.reg(lane, in.src1) + static_cast<std::uint64_t>(in.imm);
        const std::uint64_t v = w.reg(lane, in.src2);
        std::uint64_t old = 0;
        if (shared) {
          ST2_ASSERT(addr + in.msize <= smem_.size());
          std::memcpy(&old, smem_.data() + addr, in.msize);
          const std::uint64_t nv = old + v;
          std::memcpy(smem_.data() + addr, &nv, in.msize);
        } else {
          old = gmem_.load(addr, in.msize);
          gmem_.store(addr, old + v, in.msize);
        }
        if (in.msext && in.msize < 8) {
          old = static_cast<std::uint64_t>(sign_extend(old, 8 * in.msize));
        }
        write_result(lane, old);
        rec.mem_addr[static_cast<std::size_t>(lane)] = addr;
      });
      w.stack().advance();
      break;
    }

    case Opcode::kShflDown:
    case Opcode::kShflIdx: {
      // Gather all active lanes' source values first: the exchange is
      // simultaneous, and inactive source lanes yield the reader's own value
      // (the *_sync semantics with the current active mask).
      std::array<std::uint64_t, kWarpSize> snapshot{};
      for_lanes([&](int lane) {
        snapshot[static_cast<std::size_t>(lane)] = w.reg(lane, in.src1);
      });
      for_lanes([&](int lane) {
        int src_lane;
        if (in.op == Opcode::kShflDown) {
          src_lane = lane + static_cast<int>(in.imm);
        } else {
          src_lane = static_cast<int>(w.reg(lane, in.src2) & 31u);
        }
        const bool valid = src_lane >= 0 && src_lane < kWarpSize &&
                           ((mask >> src_lane) & 1u) != 0;
        write_result(lane, valid
                               ? snapshot[static_cast<std::size_t>(src_lane)]
                               : snapshot[static_cast<std::size_t>(lane)]);
      });
      w.stack().advance();
      break;
    }

    case Opcode::kBra: {
      std::uint32_t taken = 0;
      for_lanes([&](int lane) {
        const bool p = w.pred(lane, in.pred) != in.pred_negate;
        if (p) taken |= 1u << lane;
      });
      w.stack().branch(taken, in.target, in.reconv);
      break;
    }

    case Opcode::kJmp:
      w.stack().jump(in.target);
      break;

    case Opcode::kBar:
      w.at_barrier = true;
      w.stack().advance();
      break;

    case Opcode::kExit:
      w.stack().exit_lanes(mask);
      w.stack().settle();
      break;

    default:
      exec_generic();
      w.stack().advance();
      break;
  }

  return StepStatus::kExecuted;
}

}  // namespace st2::sim

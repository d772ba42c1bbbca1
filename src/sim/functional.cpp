#include "src/sim/functional.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

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

// fmin / fmax as glibc computes them, with the operand order fixed: equal
// operands (+0 and -0) give the first. C leaves the sign of fmin(+0, -0)
// unspecified and GCC treats std::fmin as commutative, so through std::fmin
// that sign depended on the operand order the compiler chose for a loop.
template <typename F>
bool is_signaling(F v) {
  using Bits = std::conditional_t<sizeof(F) == 4, std::uint32_t, std::uint64_t>;
  constexpr Bits kQuiet = Bits{1} << (std::numeric_limits<F>::digits - 2);
  return std::isnan(v) && (std::bit_cast<Bits>(v) & kQuiet) == 0;
}

template <typename F>
F min_of(F x, F y) {
  if (std::islessequal(x, y)) return x;
  if (std::isgreater(x, y)) return y;
  if (is_signaling(x) || is_signaling(y)) return x + y;
  return std::isnan(y) ? x : y;
}

template <typename F>
F max_of(F x, F y) {
  if (std::isgreaterequal(x, y)) return x;
  if (std::isless(x, y)) return y;
  if (is_signaling(x) || is_signaling(y)) return x + y;
  return std::isnan(y) ? x : y;
}

// FP arithmetic under the one NaN rule (propagate_nan, adder_ops.hpp): a
// NaN result carries the first NaN source's payload, whichever operand order
// the compiler emits.
template <typename F>
F add_of(F x, F y) { return propagate_nan(x + y, x, y); }
template <typename F>
F sub_of(F x, F y) { return propagate_nan(x - y, x, y); }
template <typename F>
F mul_of(F x, F y) { return propagate_nan(x * y, x, y); }
template <typename F>
F fma_of(F x, F y, F z) { return propagate_nan(std::fma(x, y, z), x, y, z); }

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
  const std::uint32_t mask = w.stack().mask();

  // Reset the scalar fields only: the per-lane arrays are "valid where
  // active" for the opcodes that write them (see ExecRecord), and every
  // such lane is rewritten below — zeroing ~800 bytes per instruction
  // would dominate the interpreter.
  rec.instr = &in;
  rec.pc = pc;
  rec.block_flat = w.block_flat();
  rec.warp_in_block = w.warp_in_block();
  rec.active_mask = mask;
  rec.has_adder_op = false;

  // Visits active lanes in ascending order: a plain 0..31 loop when the
  // whole warp is active (about 94% of warp instructions), else by peeling
  // set bits — no work and no branch misprediction for inactive lanes.
  // Flattened: `fn` and all it calls inline into the loop, which GCC's
  // size heuristics otherwise decline inside this large function, leaving a
  // call per lane.
  auto for_lanes = [&](auto&& fn) __attribute__((flatten)) {
    if (mask == kFullWarpMask) {
      for (int lane = 0; lane < kWarpSize; ++lane) fn(lane);
    } else {
      for (std::uint32_t m = mask; m != 0; m &= m - 1) {
        fn(std::countr_zero(m));
      }
    }
  };

  // Everything a lane loop reads besides the lanes' own registers lives in
  // locals: a byte store (a lane plane, a 1-byte access) may alias any
  // object, so reading these through `w`, `in` or `rec` would reload them on
  // every lane. Lane l's register r is regs[l * stride + r].
  std::uint64_t* const regs = w.reg_file();
  const auto stride = static_cast<std::size_t>(w.regs_used());
  const std::size_t src1 = in.src1, src2 = in.src2, src3 = in.src3;
  const std::size_t dst = in.dst;
  const auto imm = static_cast<std::uint64_t>(in.imm);
  const bool msext = in.msext;
  const bool record_lane_values = rec.record_lane_values;

  auto reg = [&](int lane, std::size_t r) {
    return regs[static_cast<std::size_t>(lane) * stride + r];
  };
  auto write_result = [&](int lane, std::uint64_t v) {
    regs[static_cast<std::size_t>(lane) * stride + dst] = v;
    if (record_lane_values) rec.result[static_cast<std::size_t>(lane)] = v;
  };

  // Memory instructions resolve their access width once: `fn` runs with a
  // value of the unsigned type of in.msize bytes, and `widen` zero- or
  // (msext) sign-extends a loaded T to a register.
  auto with_width = [&](auto&& fn) {
    switch (in.msize) {
      case 1: fn(std::uint8_t{}); break;
      case 4: fn(std::uint32_t{}); break;
      case 8: fn(std::uint64_t{}); break;
      default: ST2_ASSERT(false && "memory access width must be 1, 4 or 8");
    }
  };
  auto widen = [&](auto v) -> std::uint64_t {
    using T = decltype(v);
    if constexpr (sizeof(T) < sizeof(std::uint64_t)) {
      if (msext) {
        return static_cast<std::uint64_t>(sign_extend(v, 8 * sizeof(T)));
      }
    }
    return v;
  };

  // One lane loop per opcode. The opcode arrives as a type, so the switch
  // below resolves it once per instruction, and `op(lane, s1, s2, s3)`
  // returns the lane's result: a register value, or a predicate bit that
  // lands in the destination predicate once per warp. An adder opcode also
  // stores each lane's Peek mask and true carries (and, under
  // record_lane_values, its micro-op); its slice count, and with it the
  // relevant mask and (for integers) the carry-in, is a constant of the
  // opcode.
  auto lane_loop = [&](auto opcode, auto&& op) {
    constexpr Opcode kOp = decltype(opcode)::value;
    constexpr int kSlices = adder_slices(kOp);
    using Result = decltype(op(0, std::uint64_t{}, std::uint64_t{},
                               std::uint64_t{}));
    if constexpr (kSlices != 0) {
      rec.has_adder_op = true;
      rec.words_ready_ = false;
    }
    std::uint32_t bits = 0;
    for_lanes([&](int lane) {
      const auto l = static_cast<std::size_t>(lane);
      std::uint64_t* const lane_regs = regs + l * stride;
      const std::uint64_t s1 = lane_regs[src1];
      const std::uint64_t s2 = lane_regs[src2];
      const std::uint64_t s3 = lane_regs[src3];
      if constexpr (kSlices != 0) {
        const AdderMicroOp m = adder_operands<kOp>(s1, s2, s3);
        if (record_lane_values) rec.adder[l] = m;
        const spec::LaneRecord r = spec::lane_record(m.a, m.b, m.cin, kSlices);
        rec.lanes.peek_mask[l] = r.peek_mask;
        rec.lanes.actual[l] = r.actual;
      }
      const Result v = op(lane, s1, s2, s3);
      if constexpr (std::is_same_v<Result, bool>) {
        bits |= std::uint32_t{v} << lane;
      } else {
        lane_regs[dst] = v;
        if (record_lane_values) rec.result[l] = v;
      }
    });
    if constexpr (std::is_same_v<Result, bool>) {
      w.set_pred_bits(static_cast<int>(dst), mask, bits);
    }
  };

  // ST2_LANE_OP(kOp, expr) is the case of opcode kOp: `expr` is the result
  // of one lane, with `lane` and the sources s1, s2, s3 in scope.
#define ST2_LANE_OP(OP, ...)                                              \
  case Opcode::OP:                                                        \
    lane_loop(std::integral_constant<Opcode, Opcode::OP>{},               \
              [&]([[maybe_unused]] int lane,                              \
                  [[maybe_unused]] std::uint64_t s1,                      \
                  [[maybe_unused]] std::uint64_t s2,                      \
                  [[maybe_unused]] std::uint64_t s3) {                    \
                return __VA_ARGS__;                                       \
              });                                                         \
    break;

  auto exec_generic = [&] {
    switch (in.op) {
      // Integer add/sub/mul/mad/abs/neg wrap modulo 2^64 like the modeled
      // hardware, so they are computed in unsigned arithmetic (same bits as
      // two's-complement, without the signed-overflow UB that workloads with
      // LCG-style constants actually hit).
      ST2_LANE_OP(kIAdd, s1 + s2)
      ST2_LANE_OP(kISub, s1 - s2)
      ST2_LANE_OP(kIMul, s1 * s2)
      ST2_LANE_OP(kIMulHi, from_s64(static_cast<std::int64_t>(
                               (static_cast<__int128>(s64(s1)) * s64(s2)) >> 64)))
      ST2_LANE_OP(kIDiv, from_s64(safe_div(s64(s1), s64(s2))))
      ST2_LANE_OP(kIRem, from_s64(safe_rem(s64(s1), s64(s2))))
      ST2_LANE_OP(kIMad, s1 * s2 + s3)
      ST2_LANE_OP(kIMin, from_s64(std::min(s64(s1), s64(s2))))
      ST2_LANE_OP(kIMax, from_s64(std::max(s64(s1), s64(s2))))
      ST2_LANE_OP(kIAbs, s64(s1) < 0 ? 0 - s1 : s1)
      ST2_LANE_OP(kINeg, 0 - s1)
      ST2_LANE_OP(kIAnd, s1 & s2)
      ST2_LANE_OP(kIOr, s1 | s2)
      ST2_LANE_OP(kIXor, s1 ^ s2)
      ST2_LANE_OP(kINot, ~s1)
      ST2_LANE_OP(kIShl, s1 << (s2 & 63))
      ST2_LANE_OP(kIShrL, s1 >> (s2 & 63))
      ST2_LANE_OP(kIShrA, from_s64(s64(s1) >> (s2 & 63)))

      ST2_LANE_OP(kSetEq, s64(s1) == s64(s2))
      ST2_LANE_OP(kSetNe, s64(s1) != s64(s2))
      ST2_LANE_OP(kSetLt, s64(s1) < s64(s2))
      ST2_LANE_OP(kSetLe, s64(s1) <= s64(s2))
      ST2_LANE_OP(kSetGt, s64(s1) > s64(s2))
      ST2_LANE_OP(kSetGe, s64(s1) >= s64(s2))

      // Predicate logic is word-wide: one bit per lane.
      case Opcode::kPAnd:
        w.set_pred_bits(static_cast<int>(dst), mask,
                        w.pred_bits(in.src1) & w.pred_bits(in.src2));
        break;
      case Opcode::kPOr:
        w.set_pred_bits(static_cast<int>(dst), mask,
                        w.pred_bits(in.src1) | w.pred_bits(in.src2));
        break;
      case Opcode::kPNot:
        w.set_pred_bits(static_cast<int>(dst), mask, ~w.pred_bits(in.src1));
        break;
      ST2_LANE_OP(kSelp, w.pred(lane, in.pred) ? s1 : s2)

      ST2_LANE_OP(kFAdd, from_f32(add_of(f32(s1), f32(s2))))
      ST2_LANE_OP(kFSub, from_f32(sub_of(f32(s1), f32(s2))))
      ST2_LANE_OP(kFMul, from_f32(mul_of(f32(s1), f32(s2))))
      ST2_LANE_OP(kFDiv, from_f32(f32(s1) / f32(s2)))
      ST2_LANE_OP(kFFma, from_f32(fma_of(f32(s1), f32(s2), f32(s3))))
      ST2_LANE_OP(kFMin, from_f32(min_of(f32(s1), f32(s2))))
      ST2_LANE_OP(kFMax, from_f32(max_of(f32(s1), f32(s2))))
      ST2_LANE_OP(kFAbs, from_f32(std::fabs(f32(s1))))
      ST2_LANE_OP(kFNeg, from_f32(-f32(s1)))

      ST2_LANE_OP(kFSetLt, f32(s1) < f32(s2))
      ST2_LANE_OP(kFSetLe, f32(s1) <= f32(s2))
      ST2_LANE_OP(kFSetGt, f32(s1) > f32(s2))
      ST2_LANE_OP(kFSetGe, f32(s1) >= f32(s2))
      ST2_LANE_OP(kFSetEq, f32(s1) == f32(s2))
      ST2_LANE_OP(kFSetNe, f32(s1) != f32(s2))

      ST2_LANE_OP(kFSqrt, from_f32(std::sqrt(f32(s1))))
      ST2_LANE_OP(kFRsqrt, from_f32(1.0f / std::sqrt(f32(s1))))
      ST2_LANE_OP(kFRcp, from_f32(1.0f / f32(s1)))
      ST2_LANE_OP(kFLog2, from_f32(std::log2(f32(s1))))
      ST2_LANE_OP(kFExp2, from_f32(std::exp2(f32(s1))))
      ST2_LANE_OP(kFSin, from_f32(std::sin(f32(s1))))
      ST2_LANE_OP(kFCos, from_f32(std::cos(f32(s1))))

      ST2_LANE_OP(kDAdd, from_f64(add_of(f64(s1), f64(s2))))
      ST2_LANE_OP(kDSub, from_f64(sub_of(f64(s1), f64(s2))))
      ST2_LANE_OP(kDMul, from_f64(mul_of(f64(s1), f64(s2))))
      ST2_LANE_OP(kDDiv, from_f64(f64(s1) / f64(s2)))
      ST2_LANE_OP(kDFma, from_f64(fma_of(f64(s1), f64(s2), f64(s3))))
      ST2_LANE_OP(kDMin, from_f64(min_of(f64(s1), f64(s2))))
      ST2_LANE_OP(kDMax, from_f64(max_of(f64(s1), f64(s2))))

      ST2_LANE_OP(kMov, s1)
      ST2_LANE_OP(kI2F, from_f32(static_cast<float>(s64(s1))))
      ST2_LANE_OP(kF2I, from_s64(f2i(f32(s1))))
      ST2_LANE_OP(kI2D, from_f64(static_cast<double>(s64(s1))))
      ST2_LANE_OP(kD2I, from_s64(d2i(f64(s1))))
      ST2_LANE_OP(kF2D, from_f64(static_cast<double>(f32(s1))))
      ST2_LANE_OP(kD2F, from_f32(static_cast<float>(f64(s1))))

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
        write_result(lane, imm);
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
      with_width([&](auto width) {
        using T = decltype(width);
        for_lanes([&](int lane) {
          const std::uint64_t addr = reg(lane, src1) + imm;
          T v;
          if (shared) {
            ST2_ASSERT(in_bounds(addr, sizeof(T), smem_.size()));
            std::memcpy(&v, smem_.data() + addr, sizeof(T));
          } else {
            v = gmem_.read_one<T>(addr);
          }
          write_result(lane, widen(v));
          rec.mem_addr[static_cast<std::size_t>(lane)] = addr;
        });
      });
      w.stack().advance();
      break;
    }

    case Opcode::kStGlobal:
    case Opcode::kStShared: {
      const bool shared = in.op == Opcode::kStShared;
      with_width([&](auto width) {
        using T = decltype(width);
        for_lanes([&](int lane) {
          const std::uint64_t addr = reg(lane, src1) + imm;
          const T v = static_cast<T>(reg(lane, src2));
          if (shared) {
            ST2_ASSERT(in_bounds(addr, sizeof(T), smem_.size()));
            std::memcpy(smem_.data() + addr, &v, sizeof(T));
          } else {
            gmem_.write_one<T>(addr, v);
          }
          rec.mem_addr[static_cast<std::size_t>(lane)] = addr;
        });
      });
      w.stack().advance();
      break;
    }

    case Opcode::kAtomAddGlobal:
    case Opcode::kAtomAddShared: {
      // Active lanes serialize in lane order (how GPU atomic units resolve
      // intra-warp contention deterministically in simulators).
      const bool shared = in.op == Opcode::kAtomAddShared;
      with_width([&](auto width) {
        using T = decltype(width);
        for_lanes([&](int lane) {
          const std::uint64_t addr = reg(lane, src1) + imm;
          const T v = static_cast<T>(reg(lane, src2));
          T old;
          if (shared) {
            ST2_ASSERT(in_bounds(addr, sizeof(T), smem_.size()));
            std::memcpy(&old, smem_.data() + addr, sizeof(T));
            const T nv = static_cast<T>(old + v);
            std::memcpy(smem_.data() + addr, &nv, sizeof(T));
          } else {
            old = gmem_.read_one<T>(addr);
            gmem_.write_one<T>(addr, static_cast<T>(old + v));
          }
          write_result(lane, widen(old));
          rec.mem_addr[static_cast<std::size_t>(lane)] = addr;
        });
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
        snapshot[static_cast<std::size_t>(lane)] = reg(lane, src1);
      });
      for_lanes([&](int lane) {
        int src_lane;
        if (in.op == Opcode::kShflDown) {
          src_lane = lane + static_cast<int>(in.imm);
        } else {
          src_lane = static_cast<int>(reg(lane, src2) & 31u);
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
      const std::uint32_t p = w.pred_bits(in.pred);
      w.stack().branch((in.pred_negate ? ~p : p) & mask, in.target, in.reconv);
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

// Extraction of the adder-datapath micro-operation from each executed
// instruction — the value stream the ST2 carry speculator sees.
//
// Integer adds map directly (subtracts as a + ~b + 1). Floating-point ops
// engage the *mantissa* adder after exponent alignment (paper Section IV-C:
// FP32 mantissas use 3 slices, FP64 use 7; exponents are not speculated on),
// so we reproduce the FPU front-end: decode, align the smaller operand's
// significand, complement on effective subtraction. The resulting operand
// pair is what the speculative slices actually add, and therefore what the
// carry history must predict.
//
// The opcode-to-operand mapping is defined once, in adder_operands<Op>. The
// functional step picks the mapping once per instruction (the opcode is a
// template argument) and runs it inline in its lane loop, with the slice
// count and relevant mask already fixed; adder_micro_op looks the same
// mapping up by runtime opcode, for tests and benches.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <utility>

#include "src/common/bitutils.hpp"
#include "src/isa/instruction.hpp"

namespace st2::sim {

struct AdderMicroOp {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool cin = false;
  int num_slices = 8;
};

/// `r`, the result of an FP operation on `ops` (in source order), under the
/// simulator's one NaN rule: a NaN result carries the first NaN operand's
/// payload, quieted (the x86 SSE rule); a NaN made from non-NaN operands
/// (inf - inf, 0 * inf) stays as computed. Left to plain arithmetic, the
/// payload of NaN op NaN depends on the operand order the compiler happens
/// to emit. The check runs after the arithmetic, so a non-NaN result costs
/// one compare.
template <typename F, typename... Ops>
inline F propagate_nan(F r, Ops... ops) {
  if (!std::isnan(r)) [[likely]] return r;
  for (const F x : {ops...}) {
    if (std::isnan(x)) return x + x;
  }
  return r;
}

namespace adder_detail {

struct FpParts {
  bool sign;
  int exp;             // raw biased exponent
  std::uint64_t mant;  // significand with implicit bit when normal
};

inline FpParts decode_f32(float x) {
  const auto bits32 = std::bit_cast<std::uint32_t>(x);
  FpParts p{};
  p.sign = (bits32 >> 31) != 0;
  p.exp = static_cast<int>((bits32 >> 23) & 0xff);
  p.mant = bits32 & 0x7fffff;
  if (p.exp != 0) p.mant |= 0x800000;  // implicit leading 1 -> 24 bits
  return p;
}

inline FpParts decode_f64(double x) {
  const auto bits64 = std::bit_cast<std::uint64_t>(x);
  FpParts p{};
  p.sign = (bits64 >> 63) != 0;
  p.exp = static_cast<int>((bits64 >> 52) & 0x7ff);
  p.mant = bits64 & 0xfffffffffffffULL;
  if (p.exp != 0) p.mant |= 1ULL << 52;  // 53 bits
  return p;
}

inline AdderMicroOp mantissa_op(FpParts x, FpParts y, int num_slices) {
  // Larger-exponent operand stays put; the other shifts right to align.
  if (y.exp > x.exp || (y.exp == x.exp && y.mant > x.mant)) {
    std::swap(x, y);
  }
  const int shift = std::min(x.exp - y.exp, 63);
  const std::uint64_t aligned = y.mant >> shift;

  AdderMicroOp op{};
  op.num_slices = num_slices;
  op.a = x.mant;
  if (x.sign == y.sign) {
    op.b = aligned;
    op.cin = false;
  } else {
    // Effective subtraction: two's-complement the smaller significand over
    // the slice datapath width.
    op.b = ~aligned & low_mask(num_slices * kSliceBits);
    op.cin = true;
  }
  return op;
}

inline float as_f32(std::uint64_t raw) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(raw));
}

inline double as_f64(std::uint64_t raw) { return std::bit_cast<double>(raw); }

}  // namespace adder_detail

/// Mantissa-adder micro-op for an FP32 effective addition x + y (callers
/// pre-negate y for subtraction). 3 slices (24-bit significands).
inline AdderMicroOp fp32_mantissa_op(float x, float y) {
  return adder_detail::mantissa_op(adder_detail::decode_f32(x),
                                   adder_detail::decode_f32(y), 3);
}

/// Mantissa-adder micro-op for FP64. 7 slices (53-bit significands).
inline AdderMicroOp fp64_mantissa_op(double x, double y) {
  return adder_detail::mantissa_op(adder_detail::decode_f64(x),
                                   adder_detail::decode_f64(y), 7);
}

/// Slices of the adder datapath `op` engages, 0 if it engages none. The
/// evaluation platform is a TITAN V, whose ALUs are 32-bit (paper Section
/// IV-A: "The NVIDIA TITAN V Volta GPU has only 32-bit adders"), so integer
/// operations run through 4 slices; FP32 mantissas use 3 and FP64 7
/// (Section IV-C).
constexpr int adder_slices(isa::Opcode op) {
  using isa::Opcode;
  switch (op) {
    case Opcode::kIAdd: case Opcode::kISub: case Opcode::kIMad:
    case Opcode::kIMin: case Opcode::kIMax:
    case Opcode::kSetEq: case Opcode::kSetNe: case Opcode::kSetLt:
    case Opcode::kSetLe: case Opcode::kSetGt: case Opcode::kSetGe:
      return 4;
    case Opcode::kFAdd: case Opcode::kFSub: case Opcode::kFFma:
    case Opcode::kFMin: case Opcode::kFMax:
    case Opcode::kFSetLt: case Opcode::kFSetLe: case Opcode::kFSetGt:
    case Opcode::kFSetGe: case Opcode::kFSetEq: case Opcode::kFSetNe:
      return 3;
    case Opcode::kDAdd: case Opcode::kDSub: case Opcode::kDFma:
    case Opcode::kDMin: case Opcode::kDMax:
      return 7;
    default:
      return 0;
  }
}

/// The adder micro-op of opcode `Op` given the source values (raw 64-bit
/// register contents, FP32 in the low 32 bits): the one mapping from an
/// opcode to the operands its adder adds. Integer ops add the low 32 bits
/// (our 64-bit registers hold int32-range values in all evaluation kernels,
/// so they are exactly what the 32-bit hardware adder would see), with a
/// carry-in fixed by the opcode; FP ops add aligned mantissas.
template <isa::Opcode Op>
inline AdderMicroOp adder_operands(std::uint64_t s1, std::uint64_t s2,
                                   std::uint64_t s3) {
  using isa::Opcode;
  using adder_detail::as_f32;
  using adder_detail::as_f64;
  static_assert(adder_slices(Op) != 0, "opcode does not engage the adder");
  constexpr std::uint64_t kMask32 = 0xffffffffu;
  if constexpr (Op == Opcode::kIAdd) {
    return AdderMicroOp{s1 & kMask32, s2 & kMask32, false, 4};
  } else if constexpr (Op == Opcode::kIMad) {
    // Multiplier produces s1*s2; the ALU adder then adds s3.
    return AdderMicroOp{(s1 * s2) & kMask32, s3 & kMask32, false, 4};
  } else if constexpr (adder_slices(Op) == 4) {
    // Subtract and every comparison-class op run a subtraction.
    return AdderMicroOp{s1 & kMask32, ~s2 & kMask32, true, 4};
  } else if constexpr (Op == Opcode::kFAdd) {
    return fp32_mantissa_op(as_f32(s1), as_f32(s2));
  } else if constexpr (Op == Opcode::kFFma) {
    // The FMA's final addition: product significand + addend.
    const float x = as_f32(s1), y = as_f32(s2);
    return fp32_mantissa_op(propagate_nan(x * y, x, y), as_f32(s3));
  } else if constexpr (adder_slices(Op) == 3) {
    // Subtract, min/max and compares: an effective mantissa subtraction.
    return fp32_mantissa_op(as_f32(s1), -as_f32(s2));
  } else if constexpr (Op == Opcode::kDAdd) {
    return fp64_mantissa_op(as_f64(s1), as_f64(s2));
  } else if constexpr (Op == Opcode::kDFma) {
    const double x = as_f64(s1), y = as_f64(s2);
    return fp64_mantissa_op(propagate_nan(x * y, x, y), as_f64(s3));
  } else {
    return fp64_mantissa_op(as_f64(s1), -as_f64(s2));
  }
}

namespace adder_detail {

using OperandsFn = AdderMicroOp (*)(std::uint64_t, std::uint64_t,
                                    std::uint64_t);

template <isa::Opcode Op>
constexpr OperandsFn operands_fn() {
  if constexpr (adder_slices(Op) != 0) {
    return &adder_operands<Op>;
  } else {
    return nullptr;
  }
}

template <std::size_t... I>
constexpr std::array<OperandsFn, sizeof...(I)> operands_table(
    std::index_sequence<I...>) {
  return {operands_fn<static_cast<isa::Opcode>(I)>()...};
}

/// adder_operands of every opcode, null where the opcode has no adder op.
inline constexpr auto kOperandsTable = operands_table(
    std::make_index_sequence<static_cast<std::size_t>(
        isa::Opcode::kOpcodeCount)>{});

}  // namespace adder_detail

/// adder_operands for a runtime opcode; nullopt for instructions that do not
/// engage the adder datapath.
inline std::optional<AdderMicroOp> adder_micro_op(isa::Opcode op,
                                                  std::uint64_t s1,
                                                  std::uint64_t s2,
                                                  std::uint64_t s3) {
  const auto i = static_cast<std::size_t>(op);
  if (i >= adder_detail::kOperandsTable.size() ||
      adder_detail::kOperandsTable[i] == nullptr) {
    return std::nullopt;
  }
  return adder_detail::kOperandsTable[i](s1, s2, s3);
}

}  // namespace st2::sim

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "src/common/bitutils.hpp"
#include "src/common/rng.hpp"
#include "src/sim/adder_ops.hpp"

namespace st2::sim {
namespace {

using isa::Opcode;

bool carry_out_of_24(std::uint64_t a, std::uint64_t b) {
  return (((a & low_mask(24)) + (b & low_mask(24))) >> 24) != 0;
}

TEST(AdderOps, SliceCountsCoverExactlyTheAdderOpcodes) {
  for (int o = 0; o < static_cast<int>(Opcode::kOpcodeCount); ++o) {
    const auto op = static_cast<Opcode>(o);
    const auto m = adder_micro_op(op, 5, 3, 1);
    ASSERT_EQ(m.has_value(), adder_slices(op) != 0) << isa::mnemonic(op);
    if (m) {
      EXPECT_EQ(m->num_slices, adder_slices(op)) << isa::mnemonic(op);
    }
  }
}

// NaN * NaN carries the first NaN's payload, whatever operand order the
// compiler emits for the multiply.
TEST(AdderOps, FmaOfTwoNansAddsTheFirstNansMantissa) {
  const std::uint64_t nan1 = 0x7fc00001u, nan2 = 0x7fc00002u;
  const std::uint64_t one = std::bit_cast<std::uint32_t>(1.0f);
  EXPECT_EQ(adder_micro_op(Opcode::kFFma, nan1, nan2, one)->a, 0xc00001u);
  EXPECT_EQ(adder_micro_op(Opcode::kFFma, nan2, nan1, one)->a, 0xc00002u);
  const std::uint64_t dnan1 = 0x7ff8000000000001u, dnan2 = 0x7ff8000000000002u;
  const std::uint64_t done = std::bit_cast<std::uint64_t>(1.0);
  EXPECT_EQ(adder_micro_op(Opcode::kDFma, dnan1, dnan2, done)->a,
            0x18000000000001u);
  EXPECT_EQ(adder_micro_op(Opcode::kDFma, dnan2, dnan1, done)->a,
            0x18000000000002u);
}

TEST(AdderOps, IntegerAddIsThirtyTwoBit) {
  const auto m = adder_micro_op(Opcode::kIAdd, 0x1'0000'00FFull, 1, 0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->num_slices, 4);           // TITAN V: 32-bit ALUs
  EXPECT_EQ(m->a, 0xFFu);                // truncated to the low word
  EXPECT_EQ(m->b, 1u);
  EXPECT_FALSE(m->cin);
}

TEST(AdderOps, SubtractIsComplementAddWithCarry) {
  const auto m = adder_micro_op(Opcode::kISub, 10, 3, 0);
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(m->cin);
  EXPECT_EQ(m->b, (~3ull) & 0xFFFFFFFFull);
  // The micro-op must reproduce the subtraction result.
  const std::uint64_t sum = (m->a + m->b + 1) & 0xFFFFFFFFull;
  EXPECT_EQ(sum, 7u);
}

TEST(AdderOps, ComparesAndMinMaxUseTheSubtractPath) {
  for (Opcode op : {Opcode::kSetLt, Opcode::kSetGe, Opcode::kIMin,
                    Opcode::kIMax}) {
    const auto m = adder_micro_op(op, 100, 42, 0);
    ASSERT_TRUE(m.has_value()) << isa::mnemonic(op);
    EXPECT_TRUE(m->cin);
  }
}

TEST(AdderOps, MadAddsTheProduct) {
  const auto m = adder_micro_op(Opcode::kIMad, 6, 7, 100);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->a, 42u);
  EXPECT_EQ(m->b, 100u);
}

TEST(AdderOps, NonAdderOpsReturnNothing) {
  EXPECT_FALSE(adder_micro_op(Opcode::kIMul, 1, 2, 0).has_value());
  EXPECT_FALSE(adder_micro_op(Opcode::kIAnd, 1, 2, 0).has_value());
  EXPECT_FALSE(adder_micro_op(Opcode::kFMul, 1, 2, 0).has_value());
  EXPECT_FALSE(adder_micro_op(Opcode::kLdGlobal, 1, 2, 0).has_value());
  EXPECT_FALSE(adder_micro_op(Opcode::kFSqrt, 1, 2, 0).has_value());
}

TEST(AdderOps, Fp32MantissaAddSameExponent) {
  // 1.5 + 1.25: exponents equal, significands 0xC00000 and 0xA00000.
  const AdderMicroOp m = fp32_mantissa_op(1.5f, 1.25f);
  EXPECT_EQ(m.num_slices, 3);
  EXPECT_FALSE(m.cin);
  EXPECT_EQ(m.a, 0xC00000u);
  EXPECT_EQ(m.b, 0xA00000u);
}

TEST(AdderOps, Fp32AlignmentShiftsSmallerOperand) {
  // 8.0 (exp+3) + 1.0: the 1.0 significand shifts right by 3.
  const AdderMicroOp m = fp32_mantissa_op(8.0f, 1.0f);
  EXPECT_EQ(m.a, 0x800000u);
  EXPECT_EQ(m.b, 0x800000u >> 3);
}

TEST(AdderOps, Fp32EffectiveSubtractionComplements) {
  const AdderMicroOp m = fp32_mantissa_op(2.0f, -1.5f);
  EXPECT_TRUE(m.cin);
  // Check the datapath result: |2.0| mant - aligned |1.5| mant.
  const std::uint64_t mask = low_mask(24);
  const std::uint64_t diff = (m.a + m.b + 1) & mask;
  // 2.0 -> 0x800000 (exp 1), 1.5 aligned -> 0xC00000 >> 1 = 0x600000.
  EXPECT_EQ(diff, 0x800000u - 0x600000u);
}

TEST(AdderOps, Fp32MagnitudeOrdersOperands) {
  // The larger-magnitude operand must sit in `a` regardless of order.
  const AdderMicroOp m1 = fp32_mantissa_op(1.0f, 8.0f);
  const AdderMicroOp m2 = fp32_mantissa_op(8.0f, 1.0f);
  EXPECT_EQ(m1.a, m2.a);
  EXPECT_EQ(m1.b, m2.b);
}

TEST(AdderOps, Fp64UsesSevenSlices) {
  const AdderMicroOp m = fp64_mantissa_op(3.0, 5.0);
  EXPECT_EQ(m.num_slices, 7);
  // 53-bit significands fit the 56-bit datapath.
  EXPECT_LT(m.a, 1ull << 53);
  EXPECT_LT(m.b, 1ull << 53);
}

TEST(AdderOps, FfmaFeedsProductIntoMantissaAdder) {
  const auto direct = fp32_mantissa_op(2.0f * 3.0f, 10.0f);
  const auto via_op = adder_micro_op(
      Opcode::kFFma,
      std::bit_cast<std::uint32_t>(2.0f),
      std::bit_cast<std::uint32_t>(3.0f),
      std::bit_cast<std::uint32_t>(10.0f));
  ASSERT_TRUE(via_op.has_value());
  EXPECT_EQ(via_op->a, direct.a);
  EXPECT_EQ(via_op->b, direct.b);
  EXPECT_EQ(via_op->cin, direct.cin);
}

// Property: for same-sign additions the mantissa datapath sum (with its true
// carries) reproduces the exact significand sum the FPU would round.
TEST(AdderOps, MantissaSumMatchesWideArithmetic) {
  Xoshiro256 rng(77);
  for (int i = 0; i < 20000; ++i) {
    const float x = std::ldexp(1.0f + rng.next_float(),
                               static_cast<int>(rng.next_below(20)) - 10);
    const float y = std::ldexp(1.0f + rng.next_float(),
                               static_cast<int>(rng.next_below(20)) - 10);
    const AdderMicroOp m = fp32_mantissa_op(x, y);
    ASSERT_FALSE(m.cin);
    const std::uint64_t full = m.a + m.b;  // up to 25 bits
    // Reconstruct via per-slice adds with the true carries — must agree
    // (this is the invariant the ST2 recovery depends on).
    std::uint64_t rebuilt = 0;
    for (int s = 0; s < 3; ++s) {
      const std::uint64_t as = bits(m.a, s * 8, 8);
      const std::uint64_t bs = bits(m.b, s * 8, 8);
      const bool cin = carry_into_bit(m.a, m.b, false, s * 8);
      rebuilt |= ((as + bs + (cin ? 1 : 0)) & 0xFF) << (s * 8);
    }
    if (carry_out_of_24(m.a, m.b)) rebuilt |= 1ull << 24;
    ASSERT_EQ(rebuilt, full) << "x=" << x << " y=" << y;
  }
}

TEST(AdderOps, SpecialFloatsNeverCrashTheMantissaPath) {
  // NaN/Inf/zero/denormal operands must produce *some* well-defined micro-op
  // (the hardware adder still cycles; only the FP back-end special-cases
  // them), and the speculation machinery must accept it.
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::max(),
                            1.0f};
  for (float x : specials) {
    for (float y : specials) {
      const AdderMicroOp m = fp32_mantissa_op(x, y);
      EXPECT_EQ(m.num_slices, 3);
      EXPECT_LT(m.a, 1u << 24);
      EXPECT_LT(m.b, 1ull << 24);
    }
  }
  const double dspecials[] = {0.0, std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN(), 1.0};
  for (double x : dspecials) {
    for (double y : dspecials) {
      const AdderMicroOp m = fp64_mantissa_op(x, y);
      EXPECT_EQ(m.num_slices, 7);
      EXPECT_LT(m.a, 1ull << 53);
    }
  }
}

TEST(AdderOps, HugeExponentGapClampsTheShift) {
  const AdderMicroOp m =
      fp32_mantissa_op(std::numeric_limits<float>::max(),
                       std::numeric_limits<float>::denorm_min());
  EXPECT_EQ(m.b, 0u);  // fully shifted out
  EXPECT_FALSE(m.cin);
}

}  // namespace
}  // namespace st2::sim

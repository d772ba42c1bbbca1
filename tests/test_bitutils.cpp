#include <gtest/gtest.h>

#include <bit>

#include "src/common/bitutils.hpp"
#include "src/common/rng.hpp"

namespace st2 {
namespace {

TEST(BitUtils, LowMaskEdges) {
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(1), 1u);
  EXPECT_EQ(low_mask(8), 0xffu);
  EXPECT_EQ(low_mask(63), 0x7fffffffffffffffull);
  EXPECT_EQ(low_mask(64), ~std::uint64_t{0});
}

TEST(BitUtils, BitsExtraction) {
  EXPECT_EQ(bits(0xABCD, 4, 8), 0xBCu);
  EXPECT_EQ(bits(~0ull, 60, 4), 0xFu);
  EXPECT_EQ(bits(0x12345678, 0, 4), 0x8u);
}

TEST(BitUtils, CarryOutMatchesWideArithmetic) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    const bool cin = (i & 1) != 0;
    const unsigned __int128 wide =
        (unsigned __int128)a + b + (cin ? 1 : 0);
    EXPECT_EQ(carry_out(a, b, cin), (wide >> 64) != 0);
  }
}

TEST(BitUtils, CarryOutEdgeCases) {
  EXPECT_FALSE(carry_out(0, 0, false));
  EXPECT_FALSE(carry_out(~0ull, 0, false));
  EXPECT_TRUE(carry_out(~0ull, 0, true));
  EXPECT_TRUE(carry_out(~0ull, 1, false));
  EXPECT_TRUE(carry_out(~0ull, ~0ull, false));
  EXPECT_TRUE(carry_out(1ull << 63, 1ull << 63, false));
}

// Property: carry_into_bit must agree with a bit-serial ripple adder.
TEST(BitUtils, CarryIntoBitMatchesRippleReference) {
  Xoshiro256 rng(2);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    const bool cin = (iter & 1) != 0;
    bool c = cin;
    for (int i = 0; i <= 64; ++i) {
      ASSERT_EQ(carry_into_bit(a, b, cin, i), c)
          << "a=" << a << " b=" << b << " bit=" << i;
      if (i < 64) {
        const int ai = static_cast<int>(bit(a, i));
        const int bi = static_cast<int>(bit(b, i));
        c = (ai + bi + (c ? 1 : 0)) >= 2;
      }
    }
  }
}

TEST(BitUtils, SliceCarriesPacksRippleCarries) {
  Xoshiro256 rng(3);
  for (int iter = 0; iter < 5000; ++iter) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    const std::uint8_t packed = slice_carries(a, b, false);
    for (int s = 1; s < kNumSlices; ++s) {
      EXPECT_EQ(((packed >> (s - 1)) & 1) != 0,
                carry_into_bit(a, b, false, s * kSliceBits));
    }
  }
}

// The branchless byte-gather slice_carries must agree with the scalar
// reference for any operands and carry-in (shaped to hit long propagate
// runs and slice-boundary generates, not just uniform noise).
TEST(BitUtils, SliceCarriesMatchesScalarReference) {
  Xoshiro256 rng(7);
  for (int iter = 0; iter < 100000; ++iter) {
    std::uint64_t a = rng.next_u64();
    std::uint64_t b = rng.next_u64();
    switch (iter & 3) {
      case 1: a &= 0xffff; break;
      case 2: b = sign_extend(b & 0xffffff, 24); break;
      case 3: a |= low_mask(32); break;
      default: break;
    }
    const bool cin = (iter & 4) != 0;
    ASSERT_EQ(slice_carries(a, b, cin), slice_carries_reference(a, b, cin))
        << "a=" << a << " b=" << b << " cin=" << cin;
  }
}

TEST(BitUtils, PackByteGathers) {
  EXPECT_EQ(pack_byte_msbs(0), 0);
  EXPECT_EQ(pack_byte_msbs(~0ull), 0xff);
  EXPECT_EQ(pack_byte_msbs(0x8000000000000000ull), 0x80);
  EXPECT_EQ(pack_byte_msbs(0x0000000000000080ull), 0x01);
  EXPECT_EQ(pack_byte_lsbs(0), 0);
  EXPECT_EQ(pack_byte_lsbs(~0ull), 0xff);
  EXPECT_EQ(pack_byte_lsbs(0x0100000000000001ull), 0x81);
  for (unsigned v = 0; v < 256; ++v) {
    ASSERT_EQ(popcount_byte(static_cast<std::uint8_t>(v)), std::popcount(v));
  }
  Xoshiro256 rng(8);
  for (int iter = 0; iter < 20000; ++iter) {
    const std::uint64_t v = rng.next_u64();
    std::uint8_t msbs = 0;
    std::uint8_t lsbs = 0;
    for (int i = 0; i < 8; ++i) {
      if (bit(v, 8 * i + 7)) msbs |= std::uint8_t(1u << i);
      if (bit(v, 8 * i)) lsbs |= std::uint8_t(1u << i);
    }
    ASSERT_EQ(pack_byte_msbs(v), msbs);
    ASSERT_EQ(pack_byte_lsbs(v), lsbs);
  }
}

// The byte-lane helpers of the packed warp step, against std::popcount and
// scalar per-lane loops: every byte value in every lane position, then
// random words whose lanes mix those values.
TEST(BitUtils, ByteLaneHelpersMatchScalarLoops) {
  const auto check = [](std::uint64_t v) {
    ASSERT_EQ(popcount64(v), std::popcount(v)) << std::hex << v;
    std::uint64_t counts = 0;
    std::uint64_t nonzero = 0;
    std::uint64_t smeared = 0;
    for (int i = 0; i < 8; ++i) {
      const auto lane = static_cast<std::uint8_t>(v >> (8 * i));
      counts |= std::uint64_t(std::popcount(lane)) << (8 * i);
      if (lane != 0) nonzero |= std::uint64_t{0x80} << (8 * i);
      std::uint8_t up = 0;
      for (int j = 0; j < 8; ++j) {
        if ((lane & ((2u << j) - 1u)) != 0) up |= std::uint8_t(1u << j);
      }
      smeared |= std::uint64_t{up} << (8 * i);
    }
    ASSERT_EQ(byte_popcounts(v), counts) << std::hex << v;
    ASSERT_EQ(nonzero_byte_msbs(v), nonzero) << std::hex << v;
    ASSERT_EQ(smear_bytes_up(v), smeared) << std::hex << v;
  };
  for (std::uint64_t b = 0; b < 256; ++b) {
    for (int i = 0; i < 8; ++i) check(b << (8 * i));
    check(b * 0x0101010101010101ULL);
  }
  Xoshiro256 rng(9);
  for (int iter = 0; iter < 20000; ++iter) {
    std::uint64_t v = rng.next_u64();
    // Zero some lanes so the non-zero test sees both kinds in one word.
    v &= byte_mask_from_bits(static_cast<std::uint32_t>(rng.next_u64()));
    check(v);
  }

  for (std::uint32_t bits8 = 0; bits8 < 256; ++bits8) {
    std::uint64_t want = 0;
    for (int i = 0; i < 8; ++i) {
      if (((bits8 >> i) & 1u) != 0) want |= std::uint64_t{0xff} << (8 * i);
    }
    ASSERT_EQ(byte_mask_from_bits(bits8), want) << bits8;
    // Bits above the low byte (the next lanes' bits) are ignored.
    ASSERT_EQ(byte_mask_from_bits(bits8 | 0xabcd00u), want) << bits8;
    ASSERT_EQ(pack_byte_msbs(byte_mask_from_bits(bits8)), bits8);
  }
  // The packed resolve's accumulators: four words of 7-bit lanes give at
  // most 28 a byte, 224 in all, and one multiply still sums them exactly.
  EXPECT_EQ(sum_bytes(0x1c1c1c1c1c1c1c1cULL), 224);
  EXPECT_EQ(sum_bytes(0x00000000000000ffULL), 255);
}

TEST(BitUtils, LongestCarryChainKnownCases) {
  EXPECT_EQ(longest_carry_chain(0, 0, false), 0);
  // 1 + 1: generate at bit 0, no propagation beyond it.
  EXPECT_EQ(longest_carry_chain(1, 1, false), 1);
  // 0xFF + 1: carry generated at bit 0 propagates through bits 1..7.
  EXPECT_EQ(longest_carry_chain(0xFF, 1, false), 8);
  // All-ones + 1 ripples across the whole word.
  EXPECT_EQ(longest_carry_chain(~0ull, 1, false), 64);
}

// Property: a nonzero chain exists iff some carry is produced.
TEST(BitUtils, ChainLengthZeroIffNoCarries) {
  Xoshiro256 rng(4);
  for (int iter = 0; iter < 5000; ++iter) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64() & a;  // bias towards overlap
    const bool any_carry = ((a + b) ^ a ^ b) != 0 || carry_out(a, b, false);
    EXPECT_EQ(longest_carry_chain(a, b, false) > 0, any_carry);
  }
}

TEST(BitUtils, SignExtend) {
  EXPECT_EQ(sign_extend(0xFF, 8), -1);
  EXPECT_EQ(sign_extend(0x7F, 8), 127);
  EXPECT_EQ(sign_extend(0x80, 8), -128);
  EXPECT_EQ(sign_extend(0xFFFF'FFFF, 32), -1);
  EXPECT_EQ(sign_extend(0x7FFF'FFFF, 32), 0x7FFF'FFFF);
  EXPECT_EQ(sign_extend(~0ull, 64), -1);
}

class SliceCarryInParam : public ::testing::TestWithParam<int> {};

// Property sweep over every slice boundary: slice_carry_in equals
// carry_into_bit at the boundary.
TEST_P(SliceCarryInParam, MatchesBoundaryCarry) {
  const int s = GetParam();
  Xoshiro256 rng(100 + static_cast<std::uint64_t>(s));
  for (int iter = 0; iter < 2000; ++iter) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    EXPECT_EQ(slice_carry_in(a, b, true, s),
              carry_into_bit(a, b, true, s * kSliceBits));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSlices, SliceCarryInParam,
                         ::testing::Range(0, kNumSlices));

}  // namespace
}  // namespace st2

// Bit-level helpers shared by the adder models, the carry-speculation
// machinery and the circuit library. Everything here is purely functional and
// constexpr-friendly so that tests can verify adder properties exhaustively.
#pragma once

#include <cstdint>

namespace st2 {

/// Number of bits in the full adder datapath modelled throughout the repo.
inline constexpr int kAdderBits = 64;
/// Paper's chosen slice width (Section V-B design-space exploration).
inline constexpr int kSliceBits = 8;
/// Slices per 64-bit adder.
inline constexpr int kNumSlices = kAdderBits / kSliceBits;
/// Carry-in predictions needed per 64-bit add: slices 1..7 (slice 0 receives
/// the architectural carry-in, e.g. 1 for subtraction).
inline constexpr int kNumPredictedCarries = kNumSlices - 1;

/// Extracts bit `i` (0 = LSB) of `v`.
constexpr bool bit(std::uint64_t v, int i) { return ((v >> i) & 1u) != 0; }

/// Mask with the low `n` bits set; `n` may be 64.
constexpr std::uint64_t low_mask(int n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// Extracts `width` bits of `v` starting at bit `lo`.
constexpr std::uint64_t bits(std::uint64_t v, int lo, int width) {
  return (v >> lo) & low_mask(width);
}

/// Carry-out of the full 64-bit addition `a + b + cin`.
constexpr bool carry_out(std::uint64_t a, std::uint64_t b, bool cin) {
  using u128 = unsigned __int128;
  return ((u128{a} + u128{b} + (cin ? 1u : 0u)) >> 64) != 0;
}

/// Carry *into* bit position `i` of `a + b + cin`, for i in [0, 64].
/// i == 0 returns cin; i == 64 returns the overall carry-out.
constexpr bool carry_into_bit(std::uint64_t a, std::uint64_t b, bool cin,
                              int i) {
  if (i <= 0) return cin;
  if (i >= 64) return carry_out(a, b, cin);
  const std::uint64_t sum = a + b + (cin ? 1u : 0u);
  return bit(sum ^ a ^ b, i);
}

/// True carry-in of slice `s` (s in [0, kNumSlices)) for `a + b + cin`.
constexpr bool slice_carry_in(std::uint64_t a, std::uint64_t b, bool cin,
                              int s) {
  return carry_into_bit(a, b, cin, s * kSliceBits);
}

/// Gathers the MSB of every byte of `v` into one byte: result bit i = bit
/// 8i+7 of `v`. The multiply shifts each isolated MSB into the top byte
/// (the classic SWAR byte-mask pack); the summands never collide because
/// each source bit lands in a distinct output position.
constexpr std::uint8_t pack_byte_msbs(std::uint64_t v) {
  return static_cast<std::uint8_t>(
      ((v & 0x8080808080808080ULL) * 0x0002040810204081ULL) >> 56);
}

/// Gathers the LSB of every byte of `v` into one byte: result bit i = bit
/// 8i of `v`.
constexpr std::uint8_t pack_byte_lsbs(std::uint64_t v) {
  return static_cast<std::uint8_t>(
      ((v & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56);
}

/// Set bits of one byte, by SWAR partial sums: pairs, then nibbles, then the
/// byte. Inline arithmetic rather than std::popcount, which without -mpopcnt
/// compiles to a libgcc call; the carry-mask counters run once per lane.
constexpr int popcount_byte(std::uint8_t v) {
  std::uint32_t x = v;
  x -= (x >> 1) & 0x55u;                 // 2-bit counts
  x = (x & 0x33u) + ((x >> 2) & 0x33u);  // 4-bit counts
  return static_cast<int>((x + (x >> 4)) & 0x0fu);
}

// ---- Byte-lane SWAR: a uint64_t as eight one-byte lanes, lane i in byte i.

/// Set bits of each byte lane of `v`, by the same SWAR partial sums as
/// popcount_byte: byte i of the result counts the bits of byte i.
constexpr std::uint64_t byte_popcounts(std::uint64_t v) {
  v -= (v >> 1) & 0x5555555555555555ULL;  // 2-bit counts
  v = (v & 0x3333333333333333ULL) + ((v >> 2) & 0x3333333333333333ULL);
  return (v + (v >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
}

/// The sum of the eight byte lanes of `v`, by one multiply. Exact while
/// that sum is below 256: every partial sum then stays inside its byte.
constexpr int sum_bytes(std::uint64_t v) {
  return static_cast<int>((v * 0x0101010101010101ULL) >> 56);
}

/// Set bits of a 64-bit word: its byte counts, summed.
constexpr int popcount64(std::uint64_t v) {
  return sum_bytes(byte_popcounts(v));
}

/// Expands lane bits to byte lanes: byte i of the result is 0xff if bit i of
/// `lanes` is set, else 0 (bits above 7 are ignored). The multiply copies
/// the byte into every lane, the AND keeps bit i in lane i, and adding 0x7f
/// moves any set bit to the lane's MSB without a carry into the next lane.
constexpr std::uint64_t byte_mask_from_bits(std::uint32_t lanes) {
  const std::uint64_t x =
      ((lanes & 0xffu) * 0x0101010101010101ULL) & 0x8040201008040201ULL;
  const std::uint64_t msbs =
      ((x + 0x7f7f7f7f7f7f7f7fULL) | x) & 0x8080808080808080ULL;
  return (msbs >> 7) * 0xff;
}

/// The MSB of every byte lane of `v` that is non-zero (other bits clear):
/// the low seven bits of a lane plus 0x7f reach bit 7 exactly when one of
/// them is set, and the OR adds the lane's own bit 7.
constexpr std::uint64_t nonzero_byte_msbs(std::uint64_t v) {
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  return (((v & kLow7) + kLow7) | v) & ~kLow7;
}

/// Smears every byte lane's set bits upward within the lane: bit j of a
/// lane is set iff some bit at or below j was (three shift-OR steps; the
/// masks stop a shift from crossing into the next lane).
constexpr std::uint64_t smear_bytes_up(std::uint64_t v) {
  v |= (v << 1) & 0xfefefefefefefefeULL;
  v |= (v << 2) & 0xfcfcfcfcfcfcfcfcULL;
  v |= (v << 4) & 0xf0f0f0f0f0f0f0f0ULL;
  return v;
}

/// All kNumPredictedCarries true carry-ins packed LSB-first: bit i holds the
/// carry-in of slice i+1. Scalar reference implementation — the oracle the
/// property tests hold the branchless version below to.
constexpr std::uint8_t slice_carries_reference(std::uint64_t a,
                                               std::uint64_t b, bool cin) {
  std::uint8_t packed = 0;
  for (int s = 1; s < kNumSlices; ++s) {
    if (slice_carry_in(a, b, cin, s)) packed |= std::uint8_t(1u << (s - 1));
  }
  return packed;
}

/// Branchless slice_carries: the carry into bit i of a+b+cin is
/// bit(sum^a^b, i), so all seven slice-boundary carries (bits 8, 16, .., 56
/// of that XOR) pack with one byte-LSB gather of the XOR shifted down a
/// slice.
constexpr std::uint8_t slice_carries(std::uint64_t a, std::uint64_t b,
                                     bool cin) {
  static_assert(kSliceBits == 8,
                "byte-gather packing assumes 8-bit slices");
  const std::uint64_t carries = (a + b + (cin ? 1u : 0u)) ^ a ^ b;
  return static_cast<std::uint8_t>(pack_byte_lsbs(carries >> kSliceBits) &
                                   low_mask(kNumPredictedCarries));
}

/// Length (in bits) of the longest carry-propagation chain of `a + b + cin`.
/// Used for workload characterization (paper Section III).
constexpr int longest_carry_chain(std::uint64_t a, std::uint64_t b, bool cin) {
  const std::uint64_t g = a & b;  // generate
  const std::uint64_t p = a ^ b;  // propagate
  int best = 0;
  int run = 0;
  bool carry = cin;  // carry into bit i
  for (int i = 0; i < 64; ++i) {
    if (carry && bit(p, i)) {
      ++run;  // the chain keeps propagating through bit i
    } else if (bit(g, i)) {
      run = 1;  // a chain is born at bit i
    } else {
      run = 0;
    }
    if (run > best) best = run;
    carry = bit(g, i) || (bit(p, i) && carry);
  }
  return best;
}

/// Sign-extends the low `width` bits of `v` (width in [1, 64]).
constexpr std::int64_t sign_extend(std::uint64_t v, int width) {
  if (width >= 64) return static_cast<std::int64_t>(v);
  const std::uint64_t m = std::uint64_t{1} << (width - 1);
  const std::uint64_t x = v & low_mask(width);
  return static_cast<std::int64_t>((x ^ m) - m);
}

}  // namespace st2

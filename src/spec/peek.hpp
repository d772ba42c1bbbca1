// The Peek mechanism (paper Section IV-B): when the most significant bits of
// the two operands of slice i-1 are equal, the carry-out of that slice — and
// therefore the carry-in of slice i — is statically certain:
//
//   Op1[msb] = Op2[msb] = 0  ->  carry-in of slice i is 0
//   Op1[msb] = Op2[msb] = 1  ->  carry-in of slice i is 1
//
// (carry-out of a bit position = G | P&C = a&b | (a^b)&c; with a == b the
// propagate term vanishes and the carry-out equals a.)
// These predictions are *guaranteed* correct, so peeked slices never pay a
// misprediction penalty and never need dynamic speculation.
#pragma once

#include <cstdint>

#include "src/common/bitutils.hpp"

namespace st2::spec {

/// The prediction bits an add with `num_slices` slices owns: bit s-1 for
/// each slice s = 1..num_slices-1 (slice 0's carry-in is the add's own cin).
constexpr std::uint8_t relevant_mask(int num_slices) {
  return static_cast<std::uint8_t>((1u << (num_slices - 1)) - 1u);
}

struct PeekResult {
  std::uint8_t mask = 0;     ///< bit s-1 set: slice s's carry-in is certain
  std::uint8_t carries = 0;  ///< the certain carry value, where mask is set
};

/// Computes the peek mask/values for an add with `num_slices` slices over
/// (already sub-complemented) operands a and b. Scalar reference
/// implementation — the oracle the property test holds `peek` to.
constexpr PeekResult peek_reference(std::uint64_t a, std::uint64_t b,
                                    int num_slices) {
  PeekResult r{};
  for (int s = 1; s < num_slices; ++s) {
    const int msb = s * kSliceBits - 1;  // MSB of slice s-1
    const bool a_msb = bit(a, msb);
    const bool b_msb = bit(b, msb);
    if (a_msb == b_msb) {
      r.mask |= std::uint8_t(1u << (s - 1));
      if (a_msb) r.carries |= std::uint8_t(1u << (s - 1));
    }
  }
  return r;
}

/// Branchless peek: bit s-1 of the mask is "slice s-1's operand MSBs agree",
/// which is one byte-MSB gather of ~(a^b); the certain carry value is a's
/// MSB wherever they agree. Equivalent to peek_reference for every input
/// (property-tested); this is the form both capture and replay run.
constexpr PeekResult peek(std::uint64_t a, std::uint64_t b, int num_slices) {
  static_assert(kSliceBits == 8, "byte-gather packing assumes 8-bit slices");
  const std::uint8_t rel = relevant_mask(num_slices);
  PeekResult r{};
  r.mask = static_cast<std::uint8_t>(pack_byte_msbs(~(a ^ b)) & rel);
  r.carries = static_cast<std::uint8_t>(pack_byte_msbs(a) & r.mask);
  return r;
}

}  // namespace st2::spec

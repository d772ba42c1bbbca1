// Deterministic pseudo-random number generation for workload input data and
// test vectors. We use xoshiro256++ (public domain, Blackman & Vigna): fast,
// high quality, and — unlike std::mt19937 — trivially seedable with
// guaranteed-identical streams across platforms, which keeps the benchmark
// numbers reproducible bit-for-bit.
#pragma once

#include <cstdint>

#include "src/common/contracts.hpp"

namespace st2 {

class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed = 0x5eed5eed5eed5eedULL) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    std::uint64_t z = seed;
    for (auto& word : state_) {
      z += 0x9e3779b97f4a7c15ULL;
      std::uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      word = x ^ (x >> 31);
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  std::uint32_t next_u32() {
    return static_cast<std::uint32_t>(next_u64() >> 32);
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    ST2_EXPECTS(bound > 0);
    // Lemire's multiply-shift rejection method.
    using u128 = unsigned __int128;
    std::uint64_t x = next_u64();
    u128 m = u128{x} * u128{bound};
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next_u64();
        m = u128{x} * u128{bound};
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) {
    ST2_EXPECTS(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(span == 0 ? next_u64()
                                                    : next_below(span));
  }

  /// Uniform float in [0, 1).
  float next_float() {
    return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Approximately normal(0,1) via the sum of uniforms (Irwin–Hall, n=12) —
  /// good enough for measurement-noise simulation and far cheaper to keep
  /// deterministic than Box–Muller with its platform-dependent libm calls.
  double next_gaussian() {
    double s = 0.0;
    for (int i = 0; i < 12; ++i) s += next_double();
    return s - 6.0;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace st2

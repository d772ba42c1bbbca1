// Carry Register File (paper Section IV-C).
//
// The hardware realization of the Ltid+Prev+ModPC4 history table: one per SM
// computational cluster, 16 rows x 224 bits (448 bytes). A row is selected by
// PC[3:0]; it holds 7 carry-prediction bits for each of the warp's 32 lanes.
// The CRF is read alongside the register file in the register-read stage and
// updated at write-back by mispredicting threads only. Warps that reach
// write-back in the same cycle and target the same row arbitrate randomly
// (Section IV-B: "minimal contention that can be practically addressed with
// random arbitration").
#pragma once

#include <array>
#include <cstdint>

#include "src/spec/policy.hpp"

namespace st2::spec {

/// The default CarryPredictor policy (`--spec-policy crf`). A write's cell
/// is `row * kLanes + lane`, so warps that write the same (row, lane) in
/// one cycle arbitrate in CarryPredictor::commit.
class CarryRegisterFile final : public CarryPredictor {
 public:
  static constexpr int kRows = 16;
  static constexpr int kLanes = 32;
  static constexpr int kBitsPerLane = 7;
  static constexpr int kRowBits = kLanes * kBitsPerLane;  // 224
  static constexpr int kTotalBytes = kRows * kRowBits / 8;  // 448

  explicit CarryRegisterFile(std::uint64_t seed = 0) : CarryPredictor(seed) {}

  /// Register-read-stage access: the 7-bit patterns of all 32 lanes for the
  /// row PC[3:0]. Inline: called once per adder instruction issued in the
  /// replay hot path.
  std::array<std::uint8_t, kLanes> read_row(std::uint64_t pc) override {
    return rows_[static_cast<std::size_t>(row_of(pc))];
  }

  /// SEU-style fault injection (src/fault): XORs one bit of the stored 7-bit
  /// pattern of (row PC[3:0], lane). Flipping within the 7 pattern bits keeps
  /// every entry valid (< 0x80), so `entries_valid` holds under any number of
  /// injected flips — corrupted history can only mispredict, never corrupt.
  void flip_bit(std::uint64_t pc, int lane, int bit) override;

  /// Consistency invariant: every stored entry is a legal 7-bit pattern.
  /// Checked (always-on) when an SM core seals its counters.
  bool entries_valid() const override;

  PredictorKind kind() const override { return PredictorKind::kCrf; }

 private:
  static int row_of(std::uint64_t pc) { return static_cast<int>(pc & 0xf); }

  std::uint64_t cell(std::uint64_t pc, int lane) const override {
    return static_cast<std::uint64_t>(row_of(pc) * kLanes + lane);
  }
  void write(std::uint64_t cell, std::uint64_t, std::uint8_t carries) override {
    rows_[cell / kLanes][cell % kLanes] = carries;
  }

  std::array<std::array<std::uint8_t, kLanes>, kRows> rows_{};
};

}  // namespace st2::spec

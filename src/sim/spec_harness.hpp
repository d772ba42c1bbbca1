// Warp-level carry-speculation measurement harness for the design-space
// figures (3, 5, 6). Feeds a CarrySpeculator from trace-mode ExecRecords
// in the same shape as the replay core's issue path (SmCore::speculate):
// all active lanes of a warp instruction read their history patterns
// *before* any lane's outcome trains the tables (the CRF row is read once in
// the register-read stage; updates land at write-back), then each lane in
// order composes its prediction, resolves it and trains.
#pragma once

#include <cstdint>

#include "src/common/stats.hpp"
#include "src/sim/functional.hpp"
#include "src/spec/predictor.hpp"

namespace st2::sim {

class SpeculationHarness {
 public:
  explicit SpeculationHarness(const spec::SpeculationConfig& cfg)
      : speculator_(cfg) {}

  /// Processes one executed warp instruction (no-op unless it carries adder
  /// micro-ops).
  void feed(const ExecRecord& rec);

  /// Thread-level misprediction rate: mispredicted adds / total adds.
  double op_misprediction_rate() const { return op_mispredicts_.rate(); }
  /// Per-slice carry-in match rate (Figure 3's metric).
  double bit_match_rate() const { return 1.0 - bit_mispredicts_.rate(); }

  std::uint64_t ops() const { return op_mispredicts_.total(); }
  std::uint64_t mispredicted_ops() const { return op_mispredicts_.hits(); }
  std::uint64_t wrong_carry_bits() const { return bit_mispredicts_.hits(); }
  std::uint64_t carry_bits() const { return bit_mispredicts_.total(); }
  std::uint64_t slice_recomputes() const { return slice_recomputes_; }
  double recomputes_per_misprediction() const {
    return mispredicted_ops()
               ? double(slice_recomputes_) / double(mispredicted_ops())
               : 0.0;
  }

  const spec::CarrySpeculator& speculator() const { return speculator_; }

 private:
  spec::CarrySpeculator speculator_;
  RatioCounter op_mispredicts_;   // hit = mispredicted
  RatioCounter bit_mispredicts_;  // hit = wrong carry bit
  std::uint64_t slice_recomputes_ = 0;
};

/// Builds the spec::AddOp for one lane of a record.
spec::AddOp make_add_op(const ExecRecord& rec, int lane, int block_size);

}  // namespace st2::sim

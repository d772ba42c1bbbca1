// Warp-level carry-speculation measurement harness for the design-space
// figures (3, 5, 6). Feeds a CarrySpeculator from trace-mode ExecRecords
// in the same shape as the replay core's issue path (SmCore::speculate):
// all active lanes of a warp instruction read their history patterns
// *before* any lane's outcome trains the tables (the CRF row is read once in
// the register-read stage; updates land at write-back), then every lane
// composes its prediction, resolves it and trains, as a lane-order loop
// would. A warp makes one probe into the row table (none for the static
// bases) and runs its lattice point's packed step (spec::lattice_step) on
// the record's lane words (ExecRecord::words): the record derives them on
// the first harness's feed and every later harness reuses them, so the
// history-free work is done once per record, not once per lattice point.
// feed's adder test is inline, so a non-adder record costs each harness a
// test, not a call.
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
  /// micro-ops). The gate is inline: most records are not adders, and each
  /// of them costs a test instead of a call per harness.
  void feed(const ExecRecord& rec) {
    if (rec.has_adder_op) feed_adder(rec);
  }

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
  /// The adder path of feed, out of line.
  void feed_adder(const ExecRecord& rec);

  spec::CarrySpeculator speculator_;
  RatioCounter op_mispredicts_;   // hit = mispredicted
  RatioCounter bit_mispredicts_;  // hit = wrong carry bit
  std::uint64_t slice_recomputes_ = 0;
};

/// Global thread id the lattice gives `lane` of a record: blocks are
/// numbered as if each held 1024 threads (the CUDA maximum block size),
/// whatever the launch's block size, so lane 0's id is a multiple of 32.
std::uint32_t lane_gtid(const ExecRecord& rec, int lane);

/// Builds the spec::AddOp for one lane of a record, with the global thread
/// id SpeculationHarness::feed gives that lane. The record must have been
/// made under ExecRecord::record_lane_values.
spec::AddOp make_add_op(const ExecRecord& rec, int lane);

}  // namespace st2::sim

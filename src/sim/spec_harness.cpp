#include "src/sim/spec_harness.hpp"

#include <array>
#include <bit>

namespace st2::sim {

namespace {

/// Global thread id of `lane` in a record, for blocks of `block_size`.
std::uint32_t lane_gtid(const ExecRecord& rec, int lane, int block_size) {
  return static_cast<std::uint32_t>(rec.block_flat) *
             static_cast<std::uint32_t>(block_size) +
         static_cast<std::uint32_t>(rec.warp_in_block * kWarpSize + lane);
}

}  // namespace

spec::AddOp make_add_op(const ExecRecord& rec, int lane, int block_size) {
  const AdderMicroOp& m = rec.adder[static_cast<std::size_t>(lane)];
  spec::AddOp op;
  op.pc = rec.pc;
  op.gtid = lane_gtid(rec, lane, block_size);
  op.ltid = static_cast<std::uint32_t>(lane);
  op.a = m.a;
  op.b = m.b;
  op.cin = m.cin;
  op.num_slices = m.num_slices;
  return op;
}

void SpeculationHarness::feed(const ExecRecord& rec) {
  if (!rec.has_adder_op) return;
  // Register-read stage: every active lane reads its pattern against the
  // pre-instruction table state (one CRF row read serves the whole warp).
  std::array<std::uint64_t, kWarpSize> keys;
  std::array<std::uint8_t, kWarpSize> row;
  for (std::uint32_t lanes = rec.active_mask; lanes != 0; lanes &= lanes - 1) {
    const int lane = std::countr_zero(lanes);
    const auto l = static_cast<std::size_t>(lane);
    keys[l] = speculator_.key(rec.pc, lane_gtid(rec, lane, 1024),
                              static_cast<std::uint32_t>(lane));
    row[l] = speculator_.pattern(keys[l]);
  }
  // Write-back stage, lane by lane: compose, resolve, count, train.
  for (std::uint32_t lanes = rec.active_mask; lanes != 0; lanes &= lanes - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(lanes));
    const AdderMicroOp& m = rec.adder[l];
    const spec::LaneRecord t = speculator_.lane(m.a, m.b, m.cin, m.num_slices);
    const spec::SpeculationOutcome out = spec::resolve_prediction(
        spec::compose_prediction(row[l], t), t.actual, t.num_slices);
    op_mispredicts_.record(out.any_misprediction());
    bit_mispredicts_.record(
        static_cast<std::uint64_t>(
            std::popcount(static_cast<unsigned>(out.mispredicted))),
        static_cast<std::uint64_t>(t.num_slices - 1));
    slice_recomputes_ += static_cast<std::uint64_t>(out.recompute_count());
    speculator_.train(keys[l], t, out.any_misprediction());
  }
}

}  // namespace st2::sim

#include "src/sim/spec_harness.hpp"

namespace st2::sim {

namespace {

/// The lattice numbers global threads as if every block held 1024 threads
/// (the CUDA maximum block size), whatever the launch's block size.
constexpr std::uint32_t kGtidBlockStride = 1024;

}  // namespace

std::uint32_t lane_gtid(const ExecRecord& rec, int lane) {
  return static_cast<std::uint32_t>(rec.block_flat) * kGtidBlockStride +
         static_cast<std::uint32_t>(rec.warp_in_block * kWarpSize + lane);
}

spec::AddOp make_add_op(const ExecRecord& rec, int lane) {
  const AdderMicroOp& m = rec.adder[static_cast<std::size_t>(lane)];
  spec::AddOp op;
  op.pc = rec.pc;
  op.gtid = lane_gtid(rec, lane);
  op.ltid = static_cast<std::uint32_t>(lane);
  op.a = m.a;
  op.b = m.b;
  op.cin = m.cin;
  op.num_slices = m.num_slices;
  return op;
}

void SpeculationHarness::feed_adder(const ExecRecord& rec) {
  const spec::WarpTally t =
      speculator_.step(rec.pc, lane_gtid(rec, 0), rec.words());
  op_mispredicts_.record(t.mispredicted, t.ops);
  bit_mispredicts_.record(t.wrong_bits, t.carry_bits);
  slice_recomputes_ += t.recomputes;
}

}  // namespace st2::sim

#include "src/sim/spec_harness.hpp"

#include <array>
#include <bit>

#include "src/common/bitutils.hpp"

namespace st2::sim {

namespace {

/// The lattice numbers global threads as if every block held 1024 threads
/// (the CUDA maximum block size), whatever the launch's block size.
constexpr std::uint32_t kGtidBlockStride = 1024;

/// Global thread id of `lane` in a record.
std::uint32_t lane_gtid(const ExecRecord& rec, int lane) {
  return static_cast<std::uint32_t>(rec.block_flat) * kGtidBlockStride +
         static_cast<std::uint32_t>(rec.warp_in_block * kWarpSize + lane);
}

}  // namespace

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

void SpeculationHarness::feed(const ExecRecord& rec) {
  if (!rec.has_adder_op) return;
  const spec::LatticeRule rule = speculator_.rule();
  // Register-read stage: every active lane finds (or inserts) its entry and
  // reads its pattern against the pre-instruction table state (one CRF row
  // read serves the whole warp); write-back trains through the same entry.
  speculator_.reserve(kWarpSize);
  std::array<std::uint8_t*, kWarpSize> entry;
  std::array<std::uint8_t, kWarpSize> row;
  std::uint32_t fresh = 0;
  for (std::uint32_t lanes = rec.active_mask; lanes != 0; lanes &= lanes - 1) {
    const int lane = std::countr_zero(lanes);
    const auto l = static_cast<std::size_t>(lane);
    const auto [e, inserted] = speculator_.entry(speculator_.key(
        rec.pc, lane_gtid(rec, lane), static_cast<std::uint32_t>(lane)));
    entry[l] = e;
    row[l] = *e;
    fresh |= std::uint32_t{inserted} << lane;
  }
  // Write-back stage, lane by lane: compose, resolve, count, train.
  std::uint64_t ops = 0, mispredicted = 0, wrong_bits = 0, carry_bits = 0,
                recomputes = 0;
  for (std::uint32_t lanes = rec.active_mask; lanes != 0; lanes &= lanes - 1) {
    const int lane = std::countr_zero(lanes);
    const auto l = static_cast<std::size_t>(lane);
    const AdderMicroOp& m = rec.adder[l];
    const spec::LaneRecord t = rule.lane(m.a, m.b, m.cin, m.num_slices);
    const spec::SpeculationOutcome out = spec::resolve_prediction(
        spec::compose_prediction(row[l], t), t.actual, t.num_slices);
    const bool mis = out.any_misprediction();
    ++ops;
    mispredicted += mis;
    wrong_bits += static_cast<std::uint64_t>(popcount_byte(out.mispredicted));
    carry_bits += static_cast<std::uint64_t>(t.num_slices - 1);
    recomputes += static_cast<std::uint64_t>(out.recompute_count());
    rule.train(*entry[l], t, mis, ((fresh >> lane) & 1u) != 0);
  }
  op_mispredicts_.record(mispredicted, ops);
  bit_mispredicts_.record(wrong_bits, carry_bits);
  slice_recomputes_ += recomputes;
}

}  // namespace st2::sim

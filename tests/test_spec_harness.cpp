#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <vector>

#include "src/common/rng.hpp"
#include "src/isa/builder.hpp"
#include "src/sim/spec_harness.hpp"
#include "src/sim/trace_run.hpp"
#include "tests/lattice_configs.hpp"

namespace st2::sim {
namespace {

using isa::KernelBuilder;
using isa::Reg;

/// A kernel that performs `trips` predictable accumulations per thread.
isa::Kernel acc_kernel(int trips) {
  KernelBuilder kb("acc");
  const Reg out = kb.param(0);
  const Reg acc = kb.imm(0);
  const Reg step = kb.imm(3);
  kb.for_range(kb.imm(0), kb.imm(trips), 1,
               [&](Reg) { kb.iadd_to(acc, acc, step); });
  kb.st_global(kb.element_addr(out, kb.gtid(), 8), acc);
  kb.exit();
  return kb.build();
}

TEST(SpecHarness, CountsEveryActiveLaneAdderOp) {
  const isa::Kernel k = acc_kernel(10);
  GlobalMemory mem;
  const std::uint64_t out = mem.alloc(8 * 64);
  SpeculationHarness h(spec::st2_config());
  std::uint64_t adder_warp_insts = 0;
  trace_run(k, launch_1d(64, 32, {out}), mem, [&](const ExecRecord& rec) {
    h.feed(rec);
    if (rec.has_adder_op) ++adder_warp_insts;
  });
  EXPECT_EQ(h.ops(), adder_warp_insts * 32);
}

TEST(SpecHarness, PredictableStreamConvergesToNearZero) {
  const isa::Kernel k = acc_kernel(200);
  GlobalMemory mem;
  const std::uint64_t out = mem.alloc(8 * 32);
  SpeculationHarness h(spec::st2_config());
  trace_run(k, launch_1d(32, 32, {out}), mem,
            [&](const ExecRecord& rec) { h.feed(rec); });
  // acc grows by 3 per trip: slice-1 carries repeat with a long period and
  // the loop guard / iterator are fully predictable after warmup.
  EXPECT_LT(h.op_misprediction_rate(), 0.10);
  EXPECT_GT(h.bit_match_rate(), 0.95);
}

TEST(SpecHarness, LaneUpdatesDoNotLeakWithinOneInstruction) {
  // With a *shared* table, lane i's write-back must not serve lane i+1 of
  // the same warp instruction. We detect leakage with a kernel where all
  // lanes compute identical adds: with leakage, the very first instruction
  // would mispredict once and then hit for lanes 1..31; without it, all 32
  // lanes miss together on the cold entry.
  KernelBuilder kb("uniform");
  const Reg out_reg = kb.param(0);
  const Reg v = kb.iadd(kb.imm(0xFF), kb.imm(0x01));  // carries into slice 1
  kb.st_global(kb.element_addr(out_reg, kb.gtid(), 8), v);
  kb.exit();
  const isa::Kernel k = kb.build();

  GlobalMemory mem;
  const std::uint64_t out = mem.alloc(8 * 32);
  SpeculationHarness h(spec::SpeculationConfig::prev());  // shared scope
  trace_run(k, launch_1d(32, 32, {out}), mem, [&](const ExecRecord& rec) {
    if (rec.instr->op == isa::Opcode::kIAdd) h.feed(rec);
  });
  // The 0xFF+1 add must miss on all 32 lanes (cold), not just one.
  EXPECT_EQ(h.ops(), 32u);
  EXPECT_EQ(h.mispredicted_ops(), 32u);
}

TEST(SpecHarness, RecomputeAccountingMatchesOutcome) {
  const isa::Kernel k = acc_kernel(50);
  GlobalMemory mem;
  const std::uint64_t out = mem.alloc(8 * 32);
  SpeculationHarness h(spec::st2_config());
  trace_run(k, launch_1d(32, 32, {out}), mem,
            [&](const ExecRecord& rec) { h.feed(rec); });
  if (h.mispredicted_ops() > 0) {
    EXPECT_GE(h.recomputes_per_misprediction(), 1.0);
    EXPECT_LE(h.recomputes_per_misprediction(), 7.0);
  }
  EXPECT_GE(h.slice_recomputes(), h.mispredicted_ops());
}

/// Seeded random adder records: Gtid blocks of up to 32 warps revisited
/// often enough that rows retrain, partial and divergent active masks, a
/// small PC pool with full-width PCs, and FP32, integer and FP64 adds (3,
/// 4 and 7 slices; the record's opcode fixes its slice count, and with it
/// the relevant mask its words use). Inactive lanes hold noise.
/// Each active lane's lane bytes are the lane_record FunctionalCore::step
/// would store for its micro-op.
std::vector<ExecRecord> random_records(int n) {
  Xoshiro256 rng(0x1a77ce5ULL);
  constexpr std::uint32_t kPcs[] = {0, 1, 2, 3, 5, 8, 13, 17, 21, 34,
                                    0xfffffff0u, 0xffffffffu};
  static const std::array<isa::Instruction, 3> kAdders = [] {
    std::array<isa::Instruction, 3> in{};
    in[0].op = isa::Opcode::kFAdd;
    in[1].op = isa::Opcode::kIAdd;
    in[2].op = isa::Opcode::kDAdd;
    return in;
  }();
  const auto operand = [&rng]() -> std::uint64_t {
    const std::uint64_t raw = rng.next_u64();
    switch (rng.next_below(4)) {
      case 0: return raw;
      case 1: return raw & 0xff;          // small: rarely carries
      case 2: return raw | 0xffffffffu;   // long propagate run
      default: return 0x1234;             // repeats: Prev learns it
    }
  };
  std::vector<ExecRecord> recs(static_cast<std::size_t>(n));
  for (ExecRecord& rec : recs) {
    rec.pc = kPcs[rng.next_below(std::size(kPcs))];
    rec.block_flat = static_cast<int>(rng.next_below(6));
    rec.warp_in_block = static_cast<int>(rng.next_below(32));
    const std::uint64_t pick = rng.next_below(4);
    rec.active_mask = pick == 0   ? ~0u
                      : pick == 1 ? 0xffffu >> rng.next_below(16)  // partial
                                  : std::max(rng.next_u32(), 1u);
    rec.has_adder_op = true;
    rec.instr = &kAdders[rng.next_below(kAdders.size())];
    const int slices = adder_slices(rec.instr->op);
    for (int lane = 0; lane < kWarpSize; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      AdderMicroOp& m = rec.adder[l];
      m.a = operand();
      m.b = operand();
      m.cin = rng.next_below(2) != 0;
      m.num_slices = slices;
      if (((rec.active_mask >> lane) & 1u) != 0) {
        rec.lanes.set(lane, spec::lane_record(m.a, m.b, m.cin, m.num_slices));
      } else {
        const std::uint32_t noise = rng.next_u32();
        rec.lanes.peek_mask[l] = static_cast<std::uint8_t>(noise);
        rec.lanes.actual[l] = static_cast<std::uint8_t>(noise >> 8);
      }
    }
  }
  return recs;
}

TEST(SpecHarness, WarpFeedMatchesTheOneOpPath) {
  // The harness (one row probe and a packed step per warp) against a
  // per-op CarrySpeculator replay of the same lanes: every active lane
  // predicts first (the warp's register read), then resolves and trains in
  // lane order. Every count and the table size must agree, for every
  // lattice point a bench builds.
  const std::vector<ExecRecord> recs = random_records(4000);
  for (const spec::SpeculationConfig& cfg : test_support::lattice_configs()) {
    SCOPED_TRACE(cfg.name());
    SpeculationHarness h(cfg);
    spec::CarrySpeculator one_op(cfg);
    std::uint64_t ops = 0, mispredicted = 0, wrong_bits = 0, carry_bits = 0,
                  recomputes = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const ExecRecord& rec = recs[i];
      h.feed(rec);
      std::array<spec::Prediction, kWarpSize> pred;
      for (std::uint32_t m = rec.active_mask; m != 0; m &= m - 1) {
        const int lane = std::countr_zero(m);
        pred[static_cast<std::size_t>(lane)] =
            one_op.predict(make_add_op(rec, lane));
      }
      for (std::uint32_t m = rec.active_mask; m != 0; m &= m - 1) {
        const int lane = std::countr_zero(m);
        const spec::AddOp op = make_add_op(rec, lane);
        const spec::SpeculationOutcome out =
            one_op.resolve(op, pred[static_cast<std::size_t>(lane)]);
        ++ops;
        mispredicted += out.any_misprediction();
        wrong_bits += static_cast<std::uint64_t>(
            std::popcount(static_cast<unsigned>(out.mispredicted)));
        carry_bits += static_cast<std::uint64_t>(op.num_slices - 1);
        recomputes += static_cast<std::uint64_t>(out.recompute_count());
      }
      ASSERT_EQ(h.mispredicted_ops(), mispredicted) << "record " << i;
      ASSERT_EQ(h.speculator().table_entries(), one_op.table_entries())
          << "record " << i;
    }
    EXPECT_GT(mispredicted, 0u);
    EXPECT_EQ(h.ops(), ops);
    EXPECT_EQ(h.mispredicted_ops(), mispredicted);
    EXPECT_EQ(h.wrong_carry_bits(), wrong_bits);
    EXPECT_EQ(h.carry_bits(), carry_bits);
    EXPECT_EQ(h.slice_recomputes(), recomputes);
    EXPECT_EQ(h.speculator().table_entries(), one_op.table_entries());
  }
}

}  // namespace
}  // namespace st2::sim

#include <gtest/gtest.h>

#include "src/isa/builder.hpp"
#include "src/sim/spec_harness.hpp"
#include "src/sim/trace_run.hpp"

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

}  // namespace
}  // namespace st2::sim

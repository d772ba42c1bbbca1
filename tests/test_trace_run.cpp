#include <gtest/gtest.h>

#include "src/isa/builder.hpp"
#include "src/sim/trace_run.hpp"

namespace st2::sim {
namespace {

using isa::KernelBuilder;
using isa::Opcode;
using isa::Reg;

isa::Kernel simple_kernel(int loop_trips) {
  KernelBuilder kb("k");
  const Reg out = kb.param(0);
  const Reg acc = kb.imm(0);
  kb.for_range(kb.imm(0), kb.imm(loop_trips), 1,
               [&](Reg i) { kb.iadd_to(acc, acc, i); });
  kb.st_global(kb.element_addr(out, kb.gtid(), 8), acc);
  kb.exit();
  return kb.build();
}

// Trace mode and replay count the instruction mix through the one table:
// for every opcode and active-lane count it adds exactly what
// count_instruction adds.
TEST(TraceRun, MixTableCountsWhatCountInstructionCounts) {
  const MixTable& table = mix_table();
  for (int o = 0; o < static_cast<int>(Opcode::kOpcodeCount); ++o) {
    const auto op = static_cast<Opcode>(o);
    for (int threads = 1; threads <= kWarpSize; ++threads) {
      SCOPED_TRACE(::testing::Message()
                   << isa::mnemonic(op) << ", " << threads << " threads");
      const std::uint32_t mask =
          threads == kWarpSize ? kFullWarpMask : (1u << threads) - 1;
      EventCounters want{}, got{};
      count_instruction(op, threads, want);
      table.count(op, mask, got);
      table.count(op, mask, got);
      count_instruction(op, threads, want);
      EXPECT_TRUE(got == want);
    }
  }
}

TEST(TraceRun, CountersAreConsistent) {
  const isa::Kernel k = simple_kernel(10);
  GlobalMemory mem;
  const std::uint64_t out = mem.alloc(8 * 64);
  const TraceResult r = trace_run(k, launch_1d(64, 32, {out}), mem);
  const EventCounters& c = r.counters;
  EXPECT_GT(c.warp_instructions, 0u);
  // Full warps: thread instructions = 32 * warp instructions.
  EXPECT_EQ(c.thread_instructions, 32 * c.warp_instructions);
  // Figure-1 buckets partition all thread instructions.
  EXPECT_EQ(c.fig1_alu_add + c.fig1_alu_other + c.fig1_fpu_add +
                c.fig1_fpu_other + c.fig1_other,
            c.thread_instructions);
  // Unit-class counters partition them too.
  EXPECT_EQ(c.alu_ops + c.int_muldiv_ops + c.fpu_ops + c.fp_muldiv_ops +
                c.dpu_ops + c.sfu_ops + c.mem_ops + c.ctrl_ops,
            c.thread_instructions);
}

TEST(TraceRun, ObserverSeesEveryWarpInstruction) {
  const isa::Kernel k = simple_kernel(5);
  GlobalMemory mem;
  const std::uint64_t out = mem.alloc(8 * 32);
  std::uint64_t observed = 0;
  const TraceResult r = trace_run(k, launch_1d(32, 32, {out}), mem,
                                  [&](const ExecRecord&) { ++observed; });
  EXPECT_EQ(observed, r.counters.warp_instructions);
}

TEST(TraceRun, MultiBlockGridsAllComplete) {
  const isa::Kernel k = simple_kernel(3);
  GlobalMemory mem;
  const std::uint64_t out = mem.alloc(8 * 256);
  trace_run(k, launch_1d(256, 64, {out}), mem);
  std::vector<std::uint64_t> got(256);
  mem.read<std::uint64_t>(out, got);
  for (auto v : got) EXPECT_EQ(v, 3u);  // 0+1+2
}

TEST(TraceRun, BarrierKernelDoesNotDeadlock) {
  KernelBuilder kb("barriers");
  const Reg out = kb.param(0);
  const std::int64_t sh = kb.alloc_shared(8);
  // Warps hit three barriers in sequence; each thread then reads a value
  // thread 0 of the block wrote.
  const auto is0 = kb.setp(Opcode::kSetEq, kb.tid_x(), kb.imm(0));
  kb.bar();
  kb.if_then(is0, [&] {
    kb.st_shared(kb.shared_base(sh), kb.imm(123), 0, 8);
  });
  kb.bar();
  const Reg v = kb.reg();
  kb.ld_shared(v, kb.shared_base(sh), 0, 8);
  kb.bar();
  kb.st_global(kb.element_addr(out, kb.gtid(), 8), v);
  kb.exit();
  const isa::Kernel k = kb.build();

  GlobalMemory mem;
  const std::uint64_t out_buf = mem.alloc(8 * 128);
  trace_run(k, launch_1d(128, 128, {out_buf}), mem);
  std::vector<std::uint64_t> got(128);
  mem.read<std::uint64_t>(out_buf, got);
  for (auto x : got) EXPECT_EQ(x, 123u);
}

TEST(TraceRun, RegfileTrafficScalesWithOperands) {
  const isa::Kernel k = simple_kernel(1);
  GlobalMemory mem;
  const std::uint64_t out = mem.alloc(8 * 32);
  const TraceResult r = trace_run(k, launch_1d(32, 32, {out}), mem);
  EXPECT_GT(r.counters.regfile_reads, r.counters.regfile_writes);
  EXPECT_GT(r.counters.regfile_writes, 0u);
}

TEST(TraceRun, GmemInstructionsCounted) {
  const isa::Kernel k = simple_kernel(1);
  GlobalMemory mem;
  const std::uint64_t out = mem.alloc(8 * 32);
  const TraceResult r = trace_run(k, launch_1d(32, 32, {out}), mem);
  EXPECT_EQ(r.counters.gmem_insts, 1u);  // one store per warp
}

}  // namespace
}  // namespace st2::sim

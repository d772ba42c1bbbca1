#include <gtest/gtest.h>

#include "src/isa/builder.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/trace_run.hpp"

namespace st2::sim {
namespace {

using isa::KernelBuilder;
using isa::Opcode;
using isa::Reg;

isa::Kernel alu_kernel(int trips) {
  KernelBuilder kb("alu");
  const Reg out = kb.param(0);
  const Reg acc = kb.imm(1);
  kb.for_range(kb.imm(0), kb.imm(trips), 1, [&](Reg i) {
    kb.iadd_to(acc, acc, i);
    kb.iadd_to(acc, acc, kb.imm(3));
  });
  kb.st_global(kb.element_addr(out, kb.gtid(), 8), acc);
  kb.exit();
  return kb.build();
}

isa::Kernel mem_kernel(int stride_lines) {
  // stride 0: every thread re-reads one hot line (hits after the cold miss);
  // large stride: every access touches its own line (all misses).
  KernelBuilder kb("mem");
  const Reg data = kb.param(0);
  const Reg out = kb.param(1);
  const Reg n = kb.param(2);
  const Reg acc = kb.imm(0);
  const Reg idx = kb.imul(kb.gtid(), kb.imm(stride_lines * 32));
  kb.for_range(kb.imm(0), kb.imm(16), 1, [&](Reg i) {
    const Reg pos = kb.irem(kb.imad(i, kb.imm(stride_lines * 32 * 128), idx), n);
    const Reg v = kb.reg();
    kb.ld_global(v, kb.element_addr(data, pos, 4), 0, 4);
    kb.iadd_to(acc, acc, v);
  });
  kb.st_global(kb.element_addr(out, kb.gtid(), 8), acc);
  kb.exit();
  return kb.build();
}

GpuConfig small_config() {
  GpuConfig cfg;
  cfg.num_sms = 2;
  return cfg;
}

TEST(Timing, ProducesSameResultsAsTraceMode) {
  const isa::Kernel k = alu_kernel(20);
  GlobalMemory m1, m2;
  const std::uint64_t o1 = m1.alloc(8 * 256);
  const std::uint64_t o2 = m2.alloc(8 * 256);
  trace_run(k, launch_1d(256, 64, {o1}), m1);
  ExecutionEngine ts(small_config());
  ts.run(k, launch_1d(256, 64, {o2}), m2);
  std::vector<std::uint64_t> a(256), b(256);
  m1.read<std::uint64_t>(o1, a);
  m2.read<std::uint64_t>(o2, b);
  EXPECT_EQ(a, b);
}

TEST(Timing, St2ModeNeverChangesResults) {
  const isa::Kernel k = alu_kernel(30);
  GlobalMemory m1, m2;
  const std::uint64_t o1 = m1.alloc(8 * 512);
  const std::uint64_t o2 = m2.alloc(8 * 512);
  GpuConfig base = small_config();
  GpuConfig st2 = small_config();
  st2.st2_enabled = true;
  ExecutionEngine t1(base), t2(st2);
  t1.run(k, launch_1d(512, 128, {o1}), m1);
  const RunReport r2 = t2.run(k, launch_1d(512, 128, {o2}), m2);
  std::vector<std::uint64_t> a(512), b(512);
  m1.read<std::uint64_t>(o1, a);
  m2.read<std::uint64_t>(o2, b);
  EXPECT_EQ(a, b);  // ST2 is variable-latency, never approximate
  EXPECT_GT(r2.chip.adder_thread_ops, 0u);
  EXPECT_GT(r2.chip.crf_row_reads, 0u);
}

TEST(Timing, BaselineCollectsNoSpeculationEvents) {
  const isa::Kernel k = alu_kernel(5);
  GlobalMemory m;
  const std::uint64_t o = m.alloc(8 * 64);
  ExecutionEngine ts(small_config());
  const RunReport r = ts.run(k, launch_1d(64, 64, {o}), m);
  EXPECT_EQ(r.chip.adder_thread_ops, 0u);
  EXPECT_EQ(r.chip.crf_row_reads, 0u);
  EXPECT_GT(r.chip.cycles, 0u);
}

TEST(Timing, MemoryLatencyShowsUpInCycles) {
  // The same instruction count with cache-hostile strides must take longer.
  GlobalMemory m1, m2;
  const int n = 1 << 20;
  const std::uint64_t d1 = m1.alloc(n * 4);
  const std::uint64_t o1 = m1.alloc(8 * 128);
  const std::uint64_t d2 = m2.alloc(n * 4);
  const std::uint64_t o2 = m2.alloc(8 * 128);
  ExecutionEngine ts(small_config());
  const auto dense = ts.run(mem_kernel(0),
                            launch_1d(128, 128,
                                      {d1, o1, static_cast<std::uint64_t>(n)}),
                            m1);
  ExecutionEngine ts2(small_config());
  const auto sparse = ts2.run(
      mem_kernel(97),
      launch_1d(128, 128, {d2, o2, static_cast<std::uint64_t>(n)}), m2);
  EXPECT_GT(sparse.chip.l1_misses, dense.chip.l1_misses);
  EXPECT_GT(sparse.chip.cycles, dense.chip.cycles);
}

TEST(Timing, CyclesScaleWithWork) {
  GlobalMemory m1, m2;
  const std::uint64_t o1 = m1.alloc(8 * 128);
  const std::uint64_t o2 = m2.alloc(8 * 128);
  ExecutionEngine ts(small_config());
  const auto short_run = ts.run(alu_kernel(10), launch_1d(128, 128, {o1}), m1);
  ExecutionEngine ts2(small_config());
  const auto long_run = ts2.run(alu_kernel(100), launch_1d(128, 128, {o2}), m2);
  EXPECT_GT(long_run.chip.cycles, 2 * short_run.chip.cycles);
}

TEST(Timing, MispredictionStallsAddCycles) {
  // A branchy value stream with adversarial carries: ST2 must be correct and
  // at most modestly slower.
  KernelBuilder kb("adversarial");
  const Reg out = kb.param(0);
  const Reg acc = kb.imm(0);
  const Reg x = kb.imm(0x00FF00FF);
  kb.for_range(kb.imm(0), kb.imm(64), 1, [&](Reg i) {
    // Alternate signs so the subtract path's carries flip constantly.
    const Reg y = kb.isub(x, kb.imul(i, kb.imm(0x0101)));
    kb.iadd_to(acc, acc, kb.imin(y, kb.ineg(y)));
  });
  kb.st_global(kb.element_addr(out, kb.gtid(), 8), acc);
  kb.exit();
  const isa::Kernel k = kb.build();

  GlobalMemory m1, m2;
  const std::uint64_t o1 = m1.alloc(8 * 256);
  const std::uint64_t o2 = m2.alloc(8 * 256);
  GpuConfig st2_cfg = small_config();
  st2_cfg.st2_enabled = true;
  ExecutionEngine base(small_config()), st2(st2_cfg);
  const auto rb = base.run(k, launch_1d(256, 128, {o1}), m1);
  const auto rs = st2.run(k, launch_1d(256, 128, {o2}), m2);
  EXPECT_GT(rs.chip.warp_adder_stalls, 0u);
  EXPECT_GE(rs.chip.cycles, rb.chip.cycles);
  // Even adversarial stalls stay bounded: one extra cycle per adder op max.
  EXPECT_LT(double(rs.chip.cycles), 2.0 * double(rb.chip.cycles));
  std::vector<std::uint64_t> a(256), b(256);
  m1.read<std::uint64_t>(o1, a);
  m2.read<std::uint64_t>(o2, b);
  EXPECT_EQ(a, b);
}

TEST(Timing, LrrSchedulerAlsoRunsToCompletionCorrectly) {
  const isa::Kernel k = alu_kernel(25);
  GlobalMemory m1, m2;
  const std::uint64_t o1 = m1.alloc(8 * 256);
  const std::uint64_t o2 = m2.alloc(8 * 256);
  GpuConfig gto = small_config();
  GpuConfig lrr = small_config();
  lrr.scheduler = WarpScheduler::kLrr;
  ExecutionEngine t1(gto), t2(lrr);
  const auto r1 = t1.run(k, launch_1d(256, 64, {o1}), m1);
  const auto r2 = t2.run(k, launch_1d(256, 64, {o2}), m2);
  std::vector<std::uint64_t> a(256), b(256);
  m1.read<std::uint64_t>(o1, a);
  m2.read<std::uint64_t>(o2, b);
  EXPECT_EQ(a, b);  // scheduling never changes results
  // Both make progress; instruction totals are identical.
  EXPECT_EQ(r1.chip.warp_instructions, r2.chip.warp_instructions);
  EXPECT_GT(r2.chip.cycles, 0u);
}

TEST(Timing, SharedMemoryCapLimitsResidency) {
  // A kernel using 40KB of shared memory: at most 2 blocks fit in 96KB.
  KernelBuilder kb("shared_hog");
  const Reg out = kb.param(0);
  const std::int64_t sh = kb.alloc_shared(40 * 1024);
  kb.st_shared(kb.shared_base(sh), kb.tid_x(), 0, 8);
  kb.bar();
  const Reg v = kb.reg();
  kb.ld_shared(v, kb.shared_base(sh), 0, 8);
  kb.st_global(kb.element_addr(out, kb.gtid(), 8), v);
  kb.exit();
  const isa::Kernel k = kb.build();
  GlobalMemory m;
  const std::uint64_t o = m.alloc(8 * 1024);
  GpuConfig cfg = small_config();
  cfg.num_sms = 1;
  ExecutionEngine ts(cfg);
  const auto r = ts.run(k, launch_1d(1024, 128, {o}), m);
  EXPECT_GT(r.chip.cycles, 0u);  // completes despite serialization
}

}  // namespace
}  // namespace st2::sim

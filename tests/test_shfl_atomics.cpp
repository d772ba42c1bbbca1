// Warp shuffles and atomic adds: semantics under full and divergent masks,
// contention serialization, and cross-warp accumulation.
#include <gtest/gtest.h>

#include "src/isa/builder.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/trace_run.hpp"

namespace st2::sim {
namespace {

using isa::KernelBuilder;
using isa::Opcode;
using isa::Reg;

std::vector<std::uint64_t> run_one_warp(
    const std::function<void(KernelBuilder&, Reg out)>& body,
    int threads = 32) {
  KernelBuilder kb("t");
  const Reg out = kb.param(0);
  body(kb, out);
  kb.exit();
  const isa::Kernel k = kb.build();
  GlobalMemory mem;
  const std::uint64_t d_out = mem.alloc(static_cast<std::size_t>(threads) * 8);
  LaunchConfig lc;
  lc.block_x = threads;
  lc.args = {d_out};
  trace_run(k, lc, mem);
  std::vector<std::uint64_t> got(static_cast<std::size_t>(threads));
  mem.read<std::uint64_t>(d_out, got);
  return got;
}

TEST(Shfl, DownShiftsValuesAcrossLanes) {
  const auto got = run_one_warp([&](KernelBuilder& kb, Reg out) {
    const Reg v = kb.imul(kb.laneid(), kb.imm(10));
    const Reg s = kb.shfl_down(v, 3);
    kb.st_global(kb.element_addr(out, kb.gtid(), 8), s);
  });
  for (int lane = 0; lane < 32; ++lane) {
    const int src = lane + 3;
    EXPECT_EQ(got[static_cast<std::size_t>(lane)],
              static_cast<std::uint64_t>(10 * (src < 32 ? src : lane)));
  }
}

TEST(Shfl, IdxBroadcastsFromRegisterLane) {
  const auto got = run_one_warp([&](KernelBuilder& kb, Reg out) {
    const Reg v = kb.iadd(kb.laneid(), kb.imm(100));
    const Reg s = kb.shfl_idx(v, kb.imm(5));  // everyone reads lane 5
    kb.st_global(kb.element_addr(out, kb.gtid(), 8), s);
  });
  for (int lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(got[static_cast<std::size_t>(lane)], 105u);
  }
}

TEST(Shfl, InactiveSourceLanesYieldOwnValue) {
  // Odd lanes are masked off inside the branch; even lanes shuffling from
  // odd lanes must fall back to their own value.
  const auto got = run_one_warp([&](KernelBuilder& kb, Reg out) {
    const Reg lane = kb.laneid();
    const Reg v = kb.imul(lane, kb.imm(2));
    const Reg r = kb.mov(kb.imm(-1));
    const auto even =
        kb.setp(Opcode::kSetEq, kb.iand(lane, kb.imm(1)), kb.imm(0));
    kb.if_then(even, [&] {
      kb.mov_to(r, kb.shfl_down(v, 1));  // source = odd lane: inactive
    });
    kb.st_global(kb.element_addr(out, kb.gtid(), 8), r);
  });
  for (int lane = 0; lane < 32; ++lane) {
    if (lane % 2 == 0) {
      EXPECT_EQ(got[static_cast<std::size_t>(lane)],
                static_cast<std::uint64_t>(2 * lane));  // own value
    } else {
      EXPECT_EQ(static_cast<std::int64_t>(got[static_cast<std::size_t>(lane)]),
                -1);
    }
  }
}

TEST(Shfl, ButterflyReductionSumsTheWarp) {
  const auto got = run_one_warp([&](KernelBuilder& kb, Reg out) {
    const Reg v = kb.mov(kb.laneid());
    for (int d = 16; d >= 1; d >>= 1) {
      kb.iadd_to(v, v, kb.shfl_down(v, d));
    }
    kb.st_global(kb.element_addr(out, kb.gtid(), 8), v);
  });
  EXPECT_EQ(got[0], 496u);  // sum 0..31
}

TEST(Atomics, IntraWarpContentionSerializes) {
  // All 32 lanes atomically add their lane id to one counter; the returned
  // "old" values must be a prefix-sum sequence in lane order.
  KernelBuilder kb("t");
  const Reg out = kb.param(0);
  const Reg counter = kb.param(1);
  const Reg old = kb.atom_add_global(counter, kb.laneid());
  kb.st_global(kb.element_addr(out, kb.gtid(), 8), old);
  kb.exit();
  const isa::Kernel k = kb.build();
  GlobalMemory mem;
  const std::uint64_t d_out = mem.alloc(8 * 32);
  const std::uint64_t d_cnt = mem.alloc(8);
  LaunchConfig lc;
  lc.block_x = 32;
  lc.args = {d_out, d_cnt};
  trace_run(k, lc, mem);
  EXPECT_EQ(mem.read_one<std::uint64_t>(d_cnt), 496u);
  std::vector<std::uint64_t> old_vals(32);
  mem.read<std::uint64_t>(d_out, old_vals);
  std::uint64_t expect = 0;
  for (int lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(old_vals[static_cast<std::size_t>(lane)], expect);
    expect += static_cast<std::uint64_t>(lane);
  }
}

TEST(Atomics, CrossBlockAccumulationIsExact) {
  KernelBuilder kb("t");
  const Reg counter = kb.param(0);
  (void)kb.atom_add_global(counter, kb.imm(1), 0, 4);
  kb.exit();
  const isa::Kernel k = kb.build();
  GlobalMemory mem;
  const std::uint64_t d_cnt = mem.alloc(8);
  trace_run(k, launch_1d(4096, 128, {d_cnt}), mem);
  EXPECT_EQ(mem.read_one<std::uint32_t>(d_cnt), 4096u);
}

TEST(Atomics, SharedAtomicsWorkWithinBlocks) {
  KernelBuilder kb("t");
  const Reg out = kb.param(0);
  const std::int64_t sh = kb.alloc_shared(8);
  const Reg base = kb.shared_base(sh);
  (void)kb.atom_add_shared(base, kb.imm(2));
  kb.bar();
  const auto is0 = kb.setp(Opcode::kSetEq, kb.tid_x(), kb.imm(0));
  kb.if_then(is0, [&] {
    const Reg v = kb.reg();
    kb.ld_shared(v, base);
    kb.st_global(kb.element_addr(out, kb.ctaid_x(), 8), v);
  });
  kb.exit();
  const isa::Kernel k = kb.build();
  GlobalMemory mem;
  const std::uint64_t d_out = mem.alloc(8 * 4);
  LaunchConfig lc;
  lc.block_x = 96;
  lc.grid_x = 4;
  lc.args = {d_out};
  trace_run(k, lc, mem);
  std::vector<std::uint64_t> got(4);
  mem.read<std::uint64_t>(d_out, got);
  for (auto v : got) EXPECT_EQ(v, 192u);  // 96 threads x 2, per block
}

TEST(Atomics, TimingModeMatchesTraceMode) {
  KernelBuilder kb("t");
  const Reg counter = kb.param(0);
  (void)kb.atom_add_global(counter, kb.imm(3), 0, 8);
  kb.exit();
  const isa::Kernel k = kb.build();
  GlobalMemory mem;
  const std::uint64_t d_cnt = mem.alloc(8);
  GpuConfig cfg;
  cfg.num_sms = 2;
  ExecutionEngine ts(cfg);
  const auto r = ts.run(k, launch_1d(1024, 128, {d_cnt}), mem);
  EXPECT_EQ(mem.read_one<std::uint64_t>(d_cnt), 3 * 1024u);
  EXPECT_GT(r.chip.cycles, 0u);
}

}  // namespace
}  // namespace st2::sim

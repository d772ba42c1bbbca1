// Unit tests for the SM-core library: the op timing tables and the
// public SmCore pipeline (scoreboard readiness, barrier release, block
// admission, CRF speculation accounting, deterministic replay).
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

#include "src/isa/builder.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/op_timing.hpp"
#include "src/sim/sm_core.hpp"

namespace st2::sim {
namespace {

using isa::KernelBuilder;
using isa::Opcode;
using isa::Reg;
using isa::UnitClass;

TEST(OpTiming, TablesMatchTheConfiguredMachine) {
  const GpuConfig cfg;
  EXPECT_EQ(op_timing(cfg, Opcode::kIAdd).latency, cfg.alu_latency);
  EXPECT_EQ(op_timing(cfg, Opcode::kIAdd).interval, cfg.alu_interval);
  EXPECT_EQ(op_timing(cfg, Opcode::kFDiv).latency, cfg.fdiv_latency);
  EXPECT_GT(op_timing(cfg, Opcode::kIDiv).latency,
            op_timing(cfg, Opcode::kIAdd).latency);
  // Distinct pools: ALU work never blocks the memory pipeline.
  EXPECT_NE(fu_of(UnitClass::kAlu), fu_of(UnitClass::kMem));
  EXPECT_NE(fu_of(UnitClass::kFpu), fu_of(UnitClass::kSfu));
}

TEST(OpTiming, DepsExposeScoreboardRegisters) {
  KernelBuilder kb("deps");
  const Reg a = kb.imm(1);
  const Reg b = kb.imm(2);
  kb.iadd(a, b);
  kb.exit();
  const isa::Kernel k = kb.build();
  bool saw_add = false;
  for (const auto& in : k.code) {
    if (in.op != Opcode::kIAdd) continue;
    const Deps d = deps_of(in);
    EXPECT_GE(d.reads[0], 0);
    EXPECT_GE(d.reads[1], 0);
    EXPECT_GE(d.write_reg, 0);
    saw_add = true;
  }
  EXPECT_TRUE(saw_add);
}

GpuConfig one_sm(bool st2 = false) {
  GpuConfig cfg = st2 ? GpuConfig::st2() : GpuConfig::baseline();
  cfg.num_sms = 1;
  return cfg;
}

/// Captures the whole grid onto a single-SM machine and returns its workload.
SmWorkload capture_one(const GpuConfig& cfg, const isa::Kernel& k,
                       const LaunchConfig& lc, GlobalMemory& mem) {
  GridCapture cap = capture_grid(cfg, k, lc, mem);
  return std::move(cap.per_sm.at(0));
}

TEST(SmCore, DependencyChainsStallTheScoreboard) {
  // Same instruction count; the chained version must take longer because
  // every add waits for the previous result (RAW through the scoreboard).
  auto build = [](bool chained) {
    KernelBuilder kb(chained ? "chain" : "indep");
    const Reg out = kb.param(0);
    const Reg acc = kb.imm(1);
    const Reg addend = kb.imm(3);
    Reg last = acc;
    for (int i = 0; i < 24; ++i) {
      if (chained) {
        kb.iadd_to(acc, acc, addend);  // RAW on acc every iteration
        last = acc;
      } else {
        last = kb.iadd(acc, addend);  // fresh destination, no dependency
      }
    }
    kb.st_global(kb.element_addr(out, kb.gtid(), 8), last);
    kb.exit();
    return kb.build();
  };
  const GpuConfig cfg = one_sm();
  std::uint64_t cycles[2];
  for (const bool chained : {false, true}) {
    const isa::Kernel k = build(chained);
    GlobalMemory mem;
    const std::uint64_t out = mem.alloc(8 * 32);
    const SmWorkload w = capture_one(cfg, k, launch_1d(32, 32, {out}), mem);
    SmCore core(cfg, k, w);
    core.run();
    cycles[chained ? 1 : 0] = core.now();
  }
  EXPECT_GT(cycles[1], cycles[0]);
}

TEST(SmCore, BarrierReleasesOnlyWhenAllWarpsArrive) {
  // Warp 0 reaches the barrier after far less work than warp 1; the block
  // must still complete (no deadlock), and the run must take at least as
  // long as the slow warp's pre-barrier chain.
  KernelBuilder kb("bar");
  const Reg out = kb.param(0);
  const Reg acc = kb.imm(0);
  // Threads 32..63 loop 32 times, threads 0..31 zero times.
  const Reg trips = kb.imul(kb.ishr(kb.tid_x(), kb.imm(5)), kb.imm(32));
  kb.for_range(kb.imm(0), trips, 1, [&](Reg i) { kb.iadd_to(acc, acc, i); });
  kb.bar();
  kb.st_global(kb.element_addr(out, kb.gtid(), 8), acc);
  kb.exit();
  const isa::Kernel k = kb.build();

  const GpuConfig cfg = one_sm();
  GlobalMemory mem;
  const std::uint64_t buf = mem.alloc(8 * 64);
  const SmWorkload w = capture_one(cfg, k, launch_1d(64, 64, {buf}), mem);
  SmCore core(cfg, k, w);
  const EventCounters c = core.run();
  EXPECT_TRUE(core.finished());
  EXPECT_EQ(core.live_blocks(), 0);
  // The slow warp executes 32 chained adds before the barrier; the fast
  // warp's store cannot have retired before those.
  EXPECT_GT(c.cycles, 32u);
  EXPECT_GT(c.warp_instructions, 0u);
}

TEST(SmCore, AdmissionRespectsTheBlockLimit) {
  KernelBuilder kb("blocks");
  const Reg out = kb.param(0);
  kb.st_global(kb.element_addr(out, kb.gtid(), 8), kb.imm(7));
  kb.exit();
  const isa::Kernel k = kb.build();

  GpuConfig cfg = one_sm();
  cfg.max_blocks_per_sm = 2;
  GlobalMemory mem;
  const std::uint64_t buf = mem.alloc(8 * 512);
  const SmWorkload w = capture_one(cfg, k, launch_1d(512, 64, {buf}), mem);
  ASSERT_EQ(w.blocks.size(), 8u);

  SmCore core(cfg, k, w);
  EXPECT_EQ(core.blocks_admitted(), 2u);  // the residency cap, not all 8
  EXPECT_EQ(core.live_blocks(), 2);
  core.run();
  EXPECT_EQ(core.blocks_admitted(), 8u);  // everyone ran eventually
  EXPECT_EQ(core.live_blocks(), 0);
}

TEST(SmCore, ImpossibleWarpCountFailsFastWithAClearError) {
  // A config-sweep point with max_warps_per_sm below the block's warp count
  // used to spin until the 2^40-cycle runaway assert; it must throw at
  // construction instead.
  KernelBuilder kb("toobig");
  const Reg out = kb.param(0);
  kb.st_global(kb.element_addr(out, kb.gtid(), 8), kb.imm(1));
  kb.exit();
  const isa::Kernel k = kb.build();

  GpuConfig cfg = one_sm();
  GlobalMemory mem;
  const std::uint64_t buf = mem.alloc(8 * 128);
  const SmWorkload w = capture_one(cfg, k, launch_1d(128, 64, {buf}), mem);
  cfg.max_warps_per_sm = 1;  // a 64-thread block needs 2 slots
  try {
    SmCore core(cfg, k, w);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("never be admitted"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("toobig"), std::string::npos);
  }
}

TEST(SmCore, OversizedSharedMemoryFailsFast) {
  KernelBuilder kb("shmem");
  const Reg out = kb.param(0);
  const std::int64_t sh = kb.alloc_shared(1024);
  kb.st_shared(kb.shared_base(sh), kb.imm(3));
  kb.bar();
  kb.st_global(kb.element_addr(out, kb.gtid(), 8), kb.imm(1));
  kb.exit();
  const isa::Kernel k = kb.build();

  GpuConfig cfg = one_sm();
  GlobalMemory mem;
  const std::uint64_t buf = mem.alloc(8 * 64);
  const SmWorkload w = capture_one(cfg, k, launch_1d(64, 64, {buf}), mem);
  cfg.shared_mem_per_sm = 512;  // below the block's 1024 bytes
  EXPECT_THROW(SmCore(cfg, k, w), std::runtime_error);
  // The same machine with enough shared memory runs to completion.
  cfg.shared_mem_per_sm = 1024;
  SmCore core(cfg, k, w);
  core.run();
  EXPECT_TRUE(core.finished());
}

TEST(SmCore, SpeculationCountersAreInternallyConsistent) {
  // Two kernels: per-thread-varying adds (lanes disagree, rows alias) and a
  // predictable accumulation every learning policy should converge on.
  auto varying = [] {
    KernelBuilder kb("spec");
    const Reg out = kb.param(0);
    const Reg acc = kb.imm(1);
    kb.for_range(kb.imm(0), kb.imm(16), 1, [&](Reg i) {
      kb.iadd_to(acc, acc, kb.imul(i, kb.gtid()));
    });
    kb.st_global(kb.element_addr(out, kb.gtid(), 8), acc);
    kb.exit();
    return kb.build();
  };
  auto accumulate = [] {
    KernelBuilder kb("acc");
    const Reg out = kb.param(0);
    const Reg acc = kb.imm(0);
    const Reg step = kb.imm(3);
    kb.for_range(kb.imm(0), kb.imm(200), 1,
                 [&](Reg) { kb.iadd_to(acc, acc, step); });
    kb.st_global(kb.element_addr(out, kb.gtid(), 8), acc);
    kb.exit();
    return kb.build();
  };
  const isa::Kernel kernels[] = {varying(), accumulate()};

  // Every --spec-policy, the static one wired to a profile pattern that
  // mismatches the accumulation stream.
  std::map<std::string, double> acc_rate;
  std::uint64_t ref_ops[2] = {0, 0};
  for (const char* policy : {"crf", "mru", "tage", "static,pattern=85"}) {
    GpuConfig cfg = one_sm(/*st2=*/true);
    cfg.predictor = spec::PredictorConfig::parse(policy);
    for (int i = 0; i < 2; ++i) {
      GlobalMemory mem;
      const std::uint64_t buf = mem.alloc(8 * 256);
      const LaunchConfig lc =
          i == 0 ? launch_1d(256, 64, {buf}) : launch_1d(32, 32, {buf});
      const SmWorkload w = capture_one(cfg, kernels[i], lc, mem);
      SmCore core(cfg, kernels[i], w);
      const EventCounters c = core.run();
      SCOPED_TRACE(std::string(policy) + " on " + kernels[i].name);

      EXPECT_GT(c.warp_adder_insts, 0u);
      EXPECT_GT(c.adder_thread_ops, 0u);
      // The op stream is architectural: no policy changes what it counts.
      if (ref_ops[i] == 0) ref_ops[i] = c.adder_thread_ops;
      EXPECT_EQ(c.adder_thread_ops, ref_ops[i]);
      // Every mispredicting lane requests exactly one CRF write-back, and
      // each request lands as a lane write or loses arbitration.
      EXPECT_EQ(c.crf_writes, c.adder_mispredicts);
      EXPECT_EQ(core.crf().lane_writes() + core.crf().write_conflicts(),
                c.crf_writes);
      EXPECT_TRUE(core.crf().entries_valid());
      // A warp stalls at most once per adder instruction.
      EXPECT_LE(c.warp_adder_stalls, c.warp_adder_insts);
      // Each adder warp instruction reads its CRF row exactly once.
      EXPECT_EQ(c.crf_row_reads, c.warp_adder_insts);
      EXPECT_LE(c.adder_mispredicts, c.adder_thread_ops);
      if (i == 1) acc_rate[policy] = c.adder_misprediction_rate();
    }
  }
  // The trainable policies converge on the predictable stream; the
  // mismatched static pattern keeps only what the Peek bits rescue.
  EXPECT_LT(acc_rate["crf"], 0.20);
  EXPECT_LT(acc_rate["mru"], 0.35);
  EXPECT_LT(acc_rate["crf"], acc_rate["static,pattern=85"]);
  EXPECT_LT(acc_rate["mru"], acc_rate["static,pattern=85"]);
}

TEST(SmCore, ReplayIsDeterministic) {
  KernelBuilder kb("det");
  const Reg out = kb.param(0);
  const Reg acc = kb.imm(1);
  kb.for_range(kb.imm(0), kb.imm(10), 1, [&](Reg i) {
    kb.iadd_to(acc, acc, i);
  });
  kb.st_global(kb.element_addr(out, kb.gtid(), 8), acc);
  kb.exit();
  const isa::Kernel k = kb.build();

  const GpuConfig cfg = one_sm(/*st2=*/true);
  GlobalMemory mem;
  const std::uint64_t buf = mem.alloc(8 * 512);
  const SmWorkload w = capture_one(cfg, k, launch_1d(512, 128, {buf}), mem);
  SmCore a(cfg, k, w);
  SmCore b(cfg, k, w);
  EXPECT_EQ(a.run(), b.run());
}

}  // namespace
}  // namespace st2::sim

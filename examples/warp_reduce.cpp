// Idiomatic CUDA reduction on the simulator: shfl-down butterfly within
// warps, shared-memory combine across a block's warps, atomicAdd across
// blocks — the standard three-level pattern — with ST2 speculation active on
// every addition that runs on the SM adders (the atomics run in the memory
// partitions and are left alone, as in the paper).
//
//   $ ./warp_reduce
#include <cstdio>
#include <vector>

#include "src/common/rng.hpp"
#include "src/isa/builder.hpp"
#include "src/sim/engine.hpp"

int main() {
  using namespace st2;
  using isa::Opcode;
  using isa::Reg;

  constexpr int kN = 1 << 18;
  constexpr int kBlock = 256;

  isa::KernelBuilder kb("reduce_sum");
  const Reg data = kb.param(0);
  const Reg result = kb.param(1);
  const Reg n = kb.param(2);

  // Grid-stride accumulation.
  const Reg acc = kb.imm(0);
  const Reg stride = kb.imul(kb.ntid_x(), kb.nctaid_x());
  const Reg i = kb.mov(kb.gtid());
  kb.while_([&] { return kb.setp(Opcode::kSetLt, i, n); },
            [&] {
              const Reg v = kb.reg();
              kb.ld_global_s32(v, kb.element_addr(data, i, 4));
              kb.iadd_to(acc, acc, v);
              kb.iadd_to(i, i, stride);
            });

  // Warp-level butterfly.
  for (int d = 16; d >= 1; d >>= 1) {
    kb.iadd_to(acc, acc, kb.shfl_down(acc, d));
  }

  // One partial per warp into shared memory; warp 0 combines.
  const std::int64_t sh = kb.alloc_shared((kBlock / 32) * 8);
  const Reg warp = kb.special(isa::SpecialReg::kWarpId);
  const Reg lane = kb.laneid();
  const auto lane0 = kb.setp(Opcode::kSetEq, lane, kb.imm(0));
  kb.if_then(lane0, [&] {
    kb.st_shared(kb.element_addr(kb.shared_base(sh), warp, 8), acc);
  });
  kb.bar();
  const auto warp0 = kb.setp(Opcode::kSetEq, warp, kb.imm(0));
  kb.if_then(warp0, [&] {
    const Reg nwarps = kb.imm(kBlock / 32);
    const Reg mine = kb.reg();
    const auto in_range = kb.setp(Opcode::kSetLt, lane, nwarps);
    kb.movi_to(mine, 0);
    kb.if_then(in_range, [&] {
      kb.ld_shared(mine, kb.element_addr(kb.shared_base(sh), lane, 8));
    });
    for (int d = 4; d >= 1; d >>= 1) {  // kBlock/32 = 8 partials
      kb.iadd_to(mine, mine, kb.shfl_down(mine, d));
    }
    kb.if_then(lane0, [&] {
      (void)kb.atom_add_global(result, mine);  // cross-block combine
    });
  });
  kb.exit();
  const isa::Kernel kernel = kb.build();

  auto run = [&](const sim::GpuConfig& cfg, const char* label) {
    sim::GlobalMemory mem;
    Xoshiro256 rng(99);
    std::vector<std::int32_t> xs(kN);
    long long expect = 0;
    for (auto& x : xs) {
      x = static_cast<std::int32_t>(rng.next_in(-100, 100));
      expect += x;
    }
    const std::uint64_t d_data = mem.alloc(sizeof(std::int32_t) * kN);
    const std::uint64_t d_res = mem.alloc(8);
    mem.write<std::int32_t>(d_data, xs);
    const sim::LaunchConfig lc = sim::launch_1d(
        64 * kBlock, kBlock,
        {d_data, d_res, static_cast<std::uint64_t>(kN)});
    const sim::RunReport r = sim::ExecutionEngine(cfg).run(kernel, lc, mem);
    const auto got = mem.read_one<std::int64_t>(d_res);
    std::printf("%-8s sum=%lld (%s)  cycles=%llu  mispred=%.2f%%\n", label,
                static_cast<long long>(got),
                got == expect ? "exact" : "WRONG",
                static_cast<unsigned long long>(r.chip.cycles),
                100.0 * r.misprediction_rate);
    return got == expect;
  };

  const bool ok1 = run(sim::GpuConfig::baseline(), "baseline");
  const bool ok2 = run(sim::GpuConfig::st2(), "ST2");
  return ok1 && ok2 ? 0 : 1;
}

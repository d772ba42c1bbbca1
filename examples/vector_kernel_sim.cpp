// Bring-your-own-kernel: write a CUDA-style kernel with the KernelBuilder,
// run it on the cycle-level GPU simulator with and without ST2 adders, and
// compare runtime and misprediction behaviour.
//
// The kernel is a SAXPY with a per-thread reduction tail:
//   y[i] = a*x[i] + y[i];  acc += y[i]  (looped per thread over a stripe)
//
//   $ ./vector_kernel_sim
#include <bit>
#include <cstdio>
#include <vector>

#include "src/common/rng.hpp"
#include "src/isa/builder.hpp"
#include "src/sim/engine.hpp"

int main() {
  using namespace st2;
  using isa::Opcode;
  using isa::Reg;

  constexpr int kN = 1 << 16;
  constexpr int kStripe = 16;  // elements per thread

  // ---- build the kernel -----------------------------------------------------
  isa::KernelBuilder kb("saxpy_reduce");
  const Reg x = kb.param(0);
  const Reg y = kb.param(1);
  const Reg partial = kb.param(2);
  const Reg a = kb.param(3);  // f32 bit pattern
  const Reg gtid = kb.gtid();
  const Reg base = kb.imul(gtid, kb.imm(kStripe));
  const Reg acc = kb.fimm(0.0f);
  kb.for_range(kb.imm(0), kb.imm(kStripe), 1, [&](Reg i) {
    const Reg idx = kb.iadd(base, i);
    const Reg xv = kb.reg();
    const Reg yv = kb.reg();
    kb.ld_global(xv, kb.element_addr(x, idx, 4), 0, 4);
    kb.ld_global(yv, kb.element_addr(y, idx, 4), 0, 4);
    const Reg r = kb.ffma(a, xv, yv);
    kb.st_global(kb.element_addr(y, idx, 4), r, 0, 4);
    kb.fadd_to(acc, acc, r);
  });
  kb.st_global(kb.element_addr(partial, gtid, 4), acc, 0, 4);
  kb.exit();
  const isa::Kernel kernel = kb.build();
  std::printf("%s\n", kernel.disassemble().c_str());

  // ---- set up device memory --------------------------------------------------
  auto make_mem = [&](sim::GlobalMemory& mem, std::uint64_t& dx,
                      std::uint64_t& dy, std::uint64_t& dp) {
    Xoshiro256 rng(42);
    std::vector<float> xs(kN), ys(kN);
    for (int i = 0; i < kN; ++i) {
      xs[static_cast<std::size_t>(i)] = rng.next_float();
      ys[static_cast<std::size_t>(i)] = rng.next_float();
    }
    dx = mem.alloc(sizeof(float) * kN);
    dy = mem.alloc(sizeof(float) * kN);
    dp = mem.alloc(sizeof(float) * (kN / kStripe));
    mem.write<float>(dx, xs);
    mem.write<float>(dy, ys);
  };

  // ---- run on both machines ---------------------------------------------------
  auto run = [&](const sim::GpuConfig& cfg, const char* label) {
    sim::GlobalMemory mem;
    std::uint64_t dx = 0, dy = 0, dp = 0;
    make_mem(mem, dx, dy, dp);
    const float alpha = 1.2345f;
    const sim::LaunchConfig lc = sim::launch_1d(
        kN / kStripe, 256,
        {dx, dy, dp,
         static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(alpha))});
    const sim::RunReport r = sim::ExecutionEngine(cfg).run(kernel, lc, mem);
    std::printf("%-8s cycles=%8llu  IPC/SM=%.2f  mispred=%.2f%%  "
                "CRF rows read=%llu\n",
                label, static_cast<unsigned long long>(r.chip.cycles),
                double(r.chip.warp_instructions) /
                    double(r.chip.cycles) / cfg.num_sms,
                100.0 * r.misprediction_rate,
                static_cast<unsigned long long>(r.chip.crf_row_reads));
    return r.chip.cycles;
  };

  const std::uint64_t c0 = run(sim::GpuConfig::baseline(), "baseline");
  const std::uint64_t c1 = run(sim::GpuConfig::st2(), "ST2");
  std::printf("slowdown: %+.2f%%  (paper: 0.36%% average across its suite)\n",
              100.0 * (double(c1) / double(c0) - 1.0));
  return 0;
}

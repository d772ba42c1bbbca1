// FP64 end-to-end demo: a double-precision N-body force step written with
// the KernelBuilder, run on the simulated GPU with and without ST2 adders.
//
// None of the paper's 23 kernels is FP64, but the design explicitly covers
// DPUs (52-bit mantissas, 7 slices, 12 extra DFF bits per adder —
// Section IV-C / VI). This example exercises that whole path: DADD/DFMA
// mantissa micro-ops, 7-slice speculation, the DPU pipeline and the DPU
// share of the power model.
//
//   $ ./fp64_nbody
#include <cmath>
#include <cstdio>
#include <vector>

#include "src/common/rng.hpp"
#include "src/isa/builder.hpp"
#include "src/power/model.hpp"
#include "src/sim/engine.hpp"

int main() {
  using namespace st2;
  using isa::Opcode;
  using isa::Reg;

  constexpr int kBodies = 512;

  // ---- kernel: acceleration of body i from all j ------------------------------
  isa::KernelBuilder kb("nbody_forces_fp64");
  const Reg px = kb.param(0);
  const Reg py = kb.param(1);
  const Reg mass = kb.param(2);
  const Reg ax_out = kb.param(3);
  const Reg ay_out = kb.param(4);
  const Reg n = kb.param(5);

  const Reg i = kb.gtid();
  kb.if_then(kb.setp(Opcode::kSetLt, i, n), [&] {
    const Reg xi = kb.reg();
    const Reg yi = kb.reg();
    kb.ld_global(xi, kb.element_addr(px, i, 8));
    kb.ld_global(yi, kb.element_addr(py, i, 8));
    const Reg ax = kb.dimm(0.0);
    const Reg ay = kb.dimm(0.0);
    const Reg eps = kb.dimm(1e-3);
    kb.for_range(kb.imm(0), n, 1, [&](Reg j) {
      const Reg xj = kb.reg();
      const Reg yj = kb.reg();
      const Reg mj = kb.reg();
      kb.ld_global(xj, kb.element_addr(px, j, 8));
      kb.ld_global(yj, kb.element_addr(py, j, 8));
      kb.ld_global(mj, kb.element_addr(mass, j, 8));
      const Reg dx = kb.dsub(xj, xi);
      const Reg dy = kb.dsub(yj, yi);
      // r2 = dx*dx + dy*dy + eps  (DFMA chain on the 7-slice DPU adder)
      const Reg r2 = kb.dfma(dx, dx, eps);
      kb.dfma_to(r2, dy, dy, r2);
      // inv = m_j / (r2 * sqrt(r2)); sqrt via FP32 SFU, like fast CUDA code
      const Reg r2f = kb.d2f(r2);
      const Reg rinv = kb.f2d(kb.frsqrt(r2f));
      const Reg inv3 = kb.dmul(kb.dmul(rinv, rinv), rinv);
      const Reg s = kb.dmul(mj, inv3);
      kb.dfma_to(ax, s, dx, ax);
      kb.dfma_to(ay, s, dy, ay);
    });
    kb.st_global(kb.element_addr(ax_out, i, 8), ax);
    kb.st_global(kb.element_addr(ay_out, i, 8), ay);
  });
  kb.exit();
  const isa::Kernel kernel = kb.build();

  // ---- device memory -----------------------------------------------------------
  auto run = [&](const sim::GpuConfig& cfg, sim::EventCounters* out,
                 std::vector<double>* result) {
    sim::GlobalMemory mem;
    Xoshiro256 rng(2026);
    std::vector<double> xs(kBodies), ys(kBodies), ms(kBodies);
    for (int b = 0; b < kBodies; ++b) {
      xs[static_cast<std::size_t>(b)] = rng.next_double() * 10 - 5;
      ys[static_cast<std::size_t>(b)] = rng.next_double() * 10 - 5;
      ms[static_cast<std::size_t>(b)] = 0.5 + rng.next_double();
    }
    const std::uint64_t d_px = mem.alloc(kBodies * 8);
    const std::uint64_t d_py = mem.alloc(kBodies * 8);
    const std::uint64_t d_m = mem.alloc(kBodies * 8);
    const std::uint64_t d_ax = mem.alloc(kBodies * 8);
    const std::uint64_t d_ay = mem.alloc(kBodies * 8);
    mem.write<double>(d_px, xs);
    mem.write<double>(d_py, ys);
    mem.write<double>(d_m, ms);
    const sim::LaunchConfig lc = sim::launch_1d(
        kBodies, 128,
        {d_px, d_py, d_m, d_ax, d_ay, static_cast<std::uint64_t>(kBodies)});
    const sim::RunReport r = sim::ExecutionEngine(cfg).run(kernel, lc, mem);
    *out += r.chip;
    out->cycles = r.chip.cycles;
    result->resize(kBodies);
    mem.read<double>(d_ax, *result);
    return r.misprediction_rate;
  };

  sim::EventCounters cb, cs;
  std::vector<double> base_ax, st2_ax;
  run(sim::GpuConfig::baseline(), &cb, &base_ax);
  const double mispred = run(sim::GpuConfig::st2(), &cs, &st2_ax);

  // ST2 must be bit-exact even at FP64.
  for (int b = 0; b < kBodies; ++b) {
    if (base_ax[static_cast<std::size_t>(b)] !=
        st2_ax[static_cast<std::size_t>(b)]) {
      std::puts("BUG: FP64 results differ under ST2");
      return 1;
    }
  }

  const power::PowerModel pm;
  const auto eb = pm.energy(cb, false);
  const auto es = pm.energy(cs, true);
  std::printf("bodies                 : %d (all-pairs, FP64)\n", kBodies);
  std::printf("DPU adder ops          : %llu (7-slice mantissa datapath)\n",
              static_cast<unsigned long long>(cs.dpu_adder_ops));
  std::printf("misprediction rate     : %.2f%%\n", 100.0 * mispred);
  std::printf("slices/mispred         : %.2f (FP64 cap is 6)\n",
              cs.slices_recomputed_per_misprediction());
  std::printf("results                : bit-exact vs baseline\n");
  std::printf("system energy saved    : %.1f%%   chip: %.1f%%\n",
              100.0 * (1.0 - es.total() / eb.total()),
              100.0 * (1.0 - es.chip() / eb.chip()));
  std::printf("runtime                : %llu -> %llu cycles (%+.2f%%)\n",
              static_cast<unsigned long long>(cb.cycles),
              static_cast<unsigned long long>(cs.cycles),
              100.0 * (double(cs.cycles) / double(cb.cycles) - 1.0));
  return 0;
}

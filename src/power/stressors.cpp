#include "src/power/stressors.hpp"

#include <algorithm>
#include <span>

#include "src/common/contracts.hpp"
#include "src/common/rng.hpp"
#include "src/isa/builder.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/launch.hpp"
#include "src/sim/memory.hpp"

namespace st2::power {

namespace {

using isa::KernelBuilder;
using isa::Opcode;
using isa::Reg;

constexpr int kFamilies = 11;
const char* const kFamilyNames[kFamilies] = {
    "int_alu", "int_muldiv", "fp32_addmul", "fp32_fma", "fp64",
    "sfu",     "regfile",    "gmem_stream", "gmem_scatter", "smem",
    "mixed",
};

/// Builds the kernel for one stressor. `level` scales intensity (unrolling,
/// stride, iteration count) so the suite spans a wide dynamic range per
/// component.
isa::Kernel build_stressor(int family, int level) {
  KernelBuilder kb(std::string(kFamilyNames[family]) + "_l" +
                   std::to_string(level));
  const Reg data = kb.param(0);   // float/int array base
  const Reg out = kb.param(1);    // result array base
  const Reg n = kb.param(2);      // element count
  const Reg gtid = kb.gtid();
  const Reg idx = kb.irem(gtid, n);
  const Reg addr = kb.element_addr(data, idx, 4);
  const Reg out_addr = kb.element_addr(out, gtid, 4);

  const int iters = 16 + 8 * level;
  const int unroll = 1 + family % 3;

  switch (family) {
    case 0: {  // integer ALU: add/sub/min/logic chains
      Reg v = kb.mov(gtid);
      const Reg k1 = kb.imm(0x9e37);
      kb.for_range(kb.imm(0), kb.imm(iters), 1, [&](Reg) {
        for (int u = 0; u < unroll + 2; ++u) {
          kb.iadd_to(v, v, k1);
          kb.isub_to(v, v, gtid);
          kb.imin_to(v, v, kb.iadd(v, k1));
        }
      });
      kb.st_global(out_addr, v, 0, 4);
      break;
    }
    case 1: {  // integer multiply/divide
      Reg v = kb.iadd(gtid, kb.imm(3));
      const Reg k1 = kb.imm(1664525);
      const Reg k2 = kb.imm(13);
      kb.for_range(kb.imm(0), kb.imm(iters / 2 + 1), 1, [&](Reg) {
        kb.imul_to(v, v, k1);
        Reg q = kb.idiv(v, k2);
        kb.iadd_to(v, v, q);
      });
      kb.st_global(out_addr, v, 0, 4);
      break;
    }
    case 2: {  // FP32 add/mul chains
      kb.ld_global(kb.reg(), addr, 0, 4);  // warm a value
      Reg v = kb.fimm(1.5f);
      const Reg c1 = kb.fimm(0.9375f);
      const Reg c2 = kb.fimm(0.0625f);
      kb.for_range(kb.imm(0), kb.imm(iters), 1, [&](Reg) {
        for (int u = 0; u < unroll + 1; ++u) {
          kb.fmul_to(v, v, c1);
          kb.fadd_to(v, v, c2);
        }
      });
      kb.st_global(out_addr, v, 0, 4);
      break;
    }
    case 3: {  // FP32 FMA chains
      Reg v = kb.fimm(0.25f);
      const Reg a = kb.fimm(1.00390625f);
      const Reg b = kb.fimm(0.001953125f);
      kb.for_range(kb.imm(0), kb.imm(iters), 1, [&](Reg) {
        for (int u = 0; u < unroll + 1; ++u) kb.ffma_to(v, v, a, b);
      });
      kb.st_global(out_addr, v, 0, 4);
      break;
    }
    case 4: {  // FP64 chains
      Reg v = kb.dimm(0.5);
      const Reg a = kb.dimm(1.0001);
      const Reg b = kb.dimm(0.0003);
      kb.for_range(kb.imm(0), kb.imm(iters / 2 + 1), 1, [&](Reg) {
        kb.dfma_to(v, v, a, b);
        Reg w = kb.dadd(v, b);
        kb.dfma_to(v, w, a, b);
      });
      kb.st_global(out_addr, v, 0, 8);
      break;
    }
    case 5: {  // SFU transcendentals
      Reg v = kb.fimm(0.7f);
      kb.for_range(kb.imm(0), kb.imm(iters / 4 + 1), 1, [&](Reg) {
        Reg s = kb.fsin(v);
        Reg e = kb.fexp2(s);
        kb.fadd_to(v, v, kb.fmul(e, kb.fimm(0.125f)));
      });
      kb.st_global(out_addr, v, 0, 4);
      break;
    }
    case 6: {  // register-file pressure: wide selp/mad dataflow
      Reg a = kb.mov(gtid);
      Reg b = kb.iadd(gtid, kb.imm(7));
      Reg c = kb.ishl(gtid, kb.imm(2));
      const Reg k1 = kb.imm(33);
      kb.for_range(kb.imm(0), kb.imm(iters), 1, [&](Reg) {
        kb.imad_to(a, b, c, a);
        kb.imad_to(b, c, a, b);
        kb.imad_to(c, a, b, kb.iadd(c, k1));
      });
      kb.st_global(out_addr, kb.iadd(a, kb.iadd(b, c)), 0, 4);
      break;
    }
    case 7: {  // streaming global loads, stride set by level
      const int stride = 1 << (level % 6);
      Reg acc = kb.fimm(0.0f);
      const Reg stride_r = kb.imm(stride);
      Reg cur = kb.mov(idx);
      kb.for_range(kb.imm(0), kb.imm(iters / 2 + 1), 1, [&](Reg) {
        Reg wrapped = kb.irem(cur, n);
        Reg a2 = kb.element_addr(data, wrapped, 4);
        Reg x = kb.reg();
        kb.ld_global(x, a2, 0, 4);
        kb.fadd_to(acc, acc, x);
        kb.iadd_to(cur, cur, stride_r);
      });
      kb.st_global(out_addr, acc, 0, 4);
      break;
    }
    case 8: {  // scattered loads (DRAM-heavy)
      Reg acc = kb.imm(0);
      Reg h = kb.imad(gtid, kb.imm(2654435761LL), kb.imm(12345));
      const Reg k1 = kb.imm(1103515245);
      kb.for_range(kb.imm(0), kb.imm(iters / 2 + 1), 1, [&](Reg) {
        kb.imul_to(h, h, k1);
        Reg pos = kb.irem(kb.iabs(h), n);
        Reg a2 = kb.element_addr(data, pos, 4);
        Reg x = kb.reg();
        kb.ld_global(x, a2, 0, 4);
        kb.iadd_to(acc, acc, x);
      });
      kb.st_global(out_addr, acc, 0, 4);
      break;
    }
    case 9: {  // shared memory ping-pong
      const std::int64_t so = kb.alloc_shared(256 * 4);
      const Reg tid = kb.tid_x();
      const Reg sa = kb.element_addr(kb.shared_base(so),
                                     kb.irem(tid, kb.imm(256)), 4);
      kb.st_shared(sa, tid, 0, 4);
      kb.bar();
      Reg acc = kb.imm(0);
      kb.for_range(kb.imm(0), kb.imm(iters), 1, [&](Reg) {
        Reg x = kb.reg();
        kb.ld_shared(x, sa, 0, 4);
        kb.iadd_to(acc, acc, x);
        kb.st_shared(sa, acc, 0, 4);
      });
      kb.bar();
      kb.st_global(out_addr, acc, 0, 4);
      break;
    }
    default: {  // mixed compute + memory
      Reg v = kb.fimm(1.0f);
      Reg acc = kb.imm(0);
      const Reg c1 = kb.fimm(1.25f);
      kb.for_range(kb.imm(0), kb.imm(iters / 2 + 1), 1, [&](Reg i) {
        Reg pos = kb.irem(kb.iadd(idx, i), n);
        Reg a2 = kb.element_addr(data, pos, 4);
        Reg x = kb.reg();
        kb.ld_global(x, a2, 0, 4);
        kb.ffma_to(v, v, c1, x);
        kb.iadd_to(acc, acc, pos);
      });
      kb.st_global(out_addr, kb.iadd(kb.f2i(v), acc), 0, 4);
      break;
    }
  }
  kb.exit();
  return kb.build();
}

}  // namespace

std::vector<StressorSpec> stressor_suite() {
  // 11 families; levels chosen so the total is the paper's 123 kernels.
  std::vector<StressorSpec> suite;
  const int per_family[kFamilies] = {12, 11, 12, 11, 11, 11, 11, 12, 11, 10, 11};
  for (int f = 0; f < kFamilies; ++f) {
    for (int l = 0; l < per_family[f]; ++l) {
      suite.push_back(StressorSpec{
          std::string(kFamilyNames[f]) + "_l" + std::to_string(l), f, l});
    }
  }
  ST2_ENSURES(suite.size() == 123);
  return suite;
}

std::array<double, kNumComponents> run_stressor(const StressorSpec& spec,
                                                const PowerModel& pm,
                                                const sim::GpuConfig& cfg) {
  const isa::Kernel kernel = build_stressor(spec.family, spec.level);

  sim::GlobalMemory gmem;
  const int n = 4096 + 512 * spec.level;
  const std::uint64_t data = gmem.alloc(static_cast<std::size_t>(n) * 4);
  const int total_threads = 2048 + 256 * (spec.level % 5);
  const std::uint64_t out =
      gmem.alloc(static_cast<std::size_t>(total_threads) * 8);

  Xoshiro256 rng(1000 + static_cast<std::uint64_t>(spec.family * 131 +
                                                   spec.level));
  std::vector<float> init(static_cast<std::size_t>(n));
  for (auto& v : init) v = rng.next_float() * 4.0f - 2.0f;
  gmem.write<float>(data, init);

  const sim::LaunchConfig lc = sim::launch_1d(
      total_threads, 128, {data, out, static_cast<std::uint64_t>(n)});

  const sim::RunReport res = sim::ExecutionEngine(cfg).run(kernel, lc, gmem);

  // Unscaled component *powers* (energy per cycle): the paper calibrates
  // against NVML power samples, whose narrow dynamic range is what makes its
  // Pearson-r statistic meaningful.
  PowerModel unit(pm.coefficients());
  auto comps = unit.energy(res.chip, cfg.st2_enabled).by_component;
  const double cycles = std::max<double>(1.0, double(res.chip.cycles));
  for (double& c : comps) c /= cycles;
  return comps;
}

std::vector<Observation> collect_observations(const PowerModel& pm,
                                              SiliconOracle& oracle,
                                              const sim::GpuConfig& cfg) {
  std::vector<Observation> obs;
  for (const StressorSpec& spec : stressor_suite()) {
    Observation o;
    o.component_energy = run_stressor(spec, pm, cfg);
    o.measured = oracle.measure(o.component_energy);
    obs.push_back(o);
  }
  return obs;
}

}  // namespace st2::power

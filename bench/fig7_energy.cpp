// Figure 7: normalized system energy, baseline vs ST2, with the paper's
// component breakdown (ALU+FPU, int Mul/Div, fp Mul/Div, SFU, RegFile,
// Caches+MC, NoC, Others, DRAM, Const), and the headline aggregates:
// system/chip energy savings overall and for the high-arithmetic-intensity
// subset (>20% of system energy in ALU+FPU), plus the execution-time
// overhead (paper: 0.36% average, 3.5% worst).
#include <iostream>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/common/table.hpp"
#include "src/power/model.hpp"
#include "src/workloads/workload.hpp"

int main() {
  using namespace st2;
  const double scale = bench::bench_scale();
  const power::PowerModel pm;

  Table t("Figure 7: normalized system energy (baseline = 1.0)");
  t.header({"kernel", "ALU+FPU(base)", "ST2 energy", "system save",
            "chip save", "slowdown"});

  Table bd("Figure 7 breakdown: baseline component shares of system energy");
  bd.header({"kernel", "ALU+FPU", "iMulDiv", "fMulDiv", "SFU", "RegFile",
             "Caches+MC", "NoC", "Others", "DRAM", "Const"});

  double sum_sys = 0, sum_chip = 0, sum_slow = 0, worst_slow = 0;
  double hi_sys = 0, hi_chip = 0;
  int n = 0, hi_n = 0;
  for (const auto& info : workloads::case_list()) {
    const run::CaseResult base =
        bench::run_kernel(info.name, scale, sim::GpuConfig::baseline());
    const run::CaseResult st2_run =
        bench::run_kernel(info.name, scale, sim::GpuConfig::st2());
    sim::EventCounters cb = base.counters, cs = st2_run.counters;
    cb.cycles = base.cycles;
    cs.cycles = st2_run.cycles;

    const power::EnergyBreakdown eb = pm.energy(cb, /*st2=*/false);
    const power::EnergyBreakdown es = pm.energy(cs, /*st2=*/true);
    const double sys_save = 1.0 - es.total() / eb.total();
    const double chip_save = 1.0 - es.chip() / eb.chip();
    const double slowdown =
        double(st2_run.cycles) / double(base.cycles) - 1.0;
    const double alu_share =
        eb[power::Component::kAluFpu] / eb.total();

    sum_sys += sys_save;
    sum_chip += chip_save;
    sum_slow += slowdown;
    worst_slow = std::max(worst_slow, slowdown);
    if (alu_share > 0.20) {
      hi_sys += sys_save;
      hi_chip += chip_save;
      ++hi_n;
    }
    ++n;
    t.row({info.name, Table::pct(alu_share), Table::num(es.total() / eb.total(), 3),
           Table::pct(sys_save), Table::pct(chip_save), Table::pct(slowdown)});

    std::vector<std::string> row{info.name};
    for (int ci = 0; ci < power::kNumComponents; ++ci) {
      row.push_back(Table::pct(
          eb.by_component[static_cast<std::size_t>(ci)] / eb.total()));
    }
    bd.row(std::move(row));
  }
  t.row({"Average", "", "", Table::pct(sum_sys / n), Table::pct(sum_chip / n),
         Table::pct(sum_slow / n)});
  bench::emit(t, "fig7_energy");
  bench::emit(bd, "fig7_breakdown");

  std::cout << "High-arithmetic-intensity subset (>20% ALU+FPU system "
               "energy): " << hi_n << " kernels, avg system save "
            << Table::pct(hi_n ? hi_sys / hi_n : 0) << ", chip save "
            << Table::pct(hi_n ? hi_chip / hi_n : 0) << "\n";
  std::cout << "Worst-case slowdown: " << Table::pct(worst_slow) << "\n";
  std::cout << "Paper: 19% avg system save (26% for intensive subset, up to "
               "40%); 21% avg chip save (28% intensive, up to 42%);\n"
            << "       baseline spends 27% of system energy in ALU+FPU on "
               "average; slowdown 0.36% avg, 3.5% worst (dwt2d).\n";
  return 0;
}

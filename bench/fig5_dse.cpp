// Figure 5: design-space exploration of the carry-speculation mechanism —
// average per-thread misprediction rate of every configuration on the
// paper's x-axis, plus the derived reduction-vs-VaLHALLA percentages quoted
// in Section IV-B.
#include <array>
#include <cstddef>
#include <iostream>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/common/table.hpp"
#include "src/power/model.hpp"
#include "src/sim/spec_harness.hpp"
#include "src/sim/trace_run.hpp"
#include "src/spec/policy.hpp"
#include "src/workloads/workload.hpp"

int main() {
  using namespace st2;
  const double scale = bench::bench_scale();

  const std::vector<spec::SpeculationConfig> cfgs =
      spec::SpeculationConfig::figure5_sweep();

  std::size_t valhalla_idx = cfgs.size();
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    if (cfgs[i].base == spec::BasePolicy::kValhalla && !cfgs[i].peek) {
      valhalla_idx = i;
    }
  }

  std::vector<double> sums(cfgs.size(), 0.0);
  int n = 0;
  for (const auto& info : workloads::case_list()) {
    workloads::PreparedCase pc = workloads::prepare_case(info.name, scale);
    // One harness per config; each sees the full record stream, so its
    // accumulated rate is independent of the other configs.
    std::vector<sim::SpeculationHarness> hs(cfgs.begin(), cfgs.end());
    auto obs = [&](const sim::ExecRecord& rec) {
      for (auto& h : hs) h.feed(rec);
    };
    for (const auto& lc : pc.launches) {
      // Storing here would hold every kernel's capture in memory at once
      // (the zoo below captures one kernel at a time), so the pass records
      // one only for a disk tier.
      bench::trace_pass(pc.kernel, lc, *pc.mem, obs,
                        /*store_capture=*/false);
    }
    for (std::size_t i = 0; i < hs.size(); ++i) {
      sums[i] += hs[i].op_misprediction_rate();
    }
    ++n;
  }

  const double valhalla_rate =
      valhalla_idx < cfgs.size() && n > 0 ? sums[valhalla_idx] / n : 0.0;

  Table t("Figure 5: carry-speculation design-space exploration");
  t.header({"configuration", "avg thread mispred", "vs VaLHALLA",
            "HW table B/SM"});
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const double rate = sums[i] / n;
    const double delta = valhalla_rate > 0 ? (rate / valhalla_rate - 1.0) : 0;
    const long long bytes = cfgs[i].table_bytes_per_sm();
    std::string cost;
    if (bytes < 0) {
      cost = "unbounded";
    } else if (cfgs[i].scope == spec::ThreadScope::kShared &&
               cfgs[i].base == spec::BasePolicy::kPrev) {
      // Shared tables need as many ports as simultaneously-writing threads:
      // the paper calls these left-of-Ltid designs unimplementable.
      cost = std::to_string(bytes) + " (multiport!)";
    } else {
      cost = std::to_string(bytes);
    }
    t.row({cfgs[i].name(), Table::pct(rate),
           (delta <= 0 ? "-" : "+") + Table::pct(std::abs(delta)), cost});
  }
  bench::emit(t, "fig5_dse");

  // ---- Figure 5b: the pluggable predictor zoo ----------------------------
  // A second table under its own stem ("fig5_zoo"). Rows 0..3 are the
  // registered carry-predictor policies run end to end through the timing
  // simulator; rows 4..5 are register-file energy levers from the
  // literature stacked on the default-CRF run (GREENER-style RF
  // underutilization gating and static RF data compression).
  struct ZooUnit {
    const char* label;
    const char* policy;  ///< PredictorConfig::parse spec; "" = CRF RF lever
  };
  const std::array<ZooUnit, 6> zoo = {{{"crf", "crf"},
                                       {"mru", "mru"},
                                       {"tage", "tage"},
                                       {"static", "static"},
                                       {"greener-rf", ""},
                                       {"rf-compress", ""}}};
  const power::PowerModel pm;
  struct ZooAgg {
    double mis = 0, slow = 0, sys = 0, chip = 0;
  };
  std::array<ZooAgg, 6> agg{};
  int zn = 0;
  for (const auto& info : workloads::case_list()) {
    // Baseline reference for this workload (fig7_energy's pattern).
    const run::CaseResult base =
        bench::run_kernel(info.name, scale, sim::GpuConfig::baseline());
    sim::EventCounters cb = base.counters;
    cb.cycles = base.cycles;
    const power::EnergyBreakdown eb = pm.energy(cb, /*st2=*/false);

    for (int p = 0; p < 4; ++p) {
      sim::GpuConfig cfg = sim::GpuConfig::st2();
      cfg.predictor = spec::PredictorConfig::parse(zoo[p].policy);
      const run::CaseResult st2_run = bench::run_kernel(info.name, scale, cfg);
      sim::EventCounters cs = st2_run.counters;
      cs.cycles = st2_run.cycles;
      power::EnergyBreakdown es = pm.energy(cs, /*st2=*/true);
      // First-order storage model: the per-read table energy tracks the
      // policy's state size relative to the CRF's 448 B/SM, on top of the
      // fitted crf_row_read coefficient.
      const double bytes =
          static_cast<double>(cfg.predictor.table_bytes_per_sm());
      es[power::Component::kOthers] +=
          (bytes / 448.0 - 1.0) * pm.coefficients().crf_row_read *
          static_cast<double>(cs.crf_row_reads);
      const double mis = cs.adder_misprediction_rate();
      const double slow = static_cast<double>(st2_run.cycles) /
                              static_cast<double>(base.cycles) -
                          1.0;
      agg[p].mis += mis;
      agg[p].slow += slow;
      agg[p].sys += 1.0 - es.total() / eb.total();
      agg[p].chip += 1.0 - es.chip() / eb.chip();
      if (p == 0) {
        // GREENER (Jatala et al.): gate RF energy of inactive SIMD lanes,
        // modeled as RegFile scaled by the run's SIMD lane occupancy.
        // Angerd et al.: static RF data compression, ~30% RF energy off.
        const power::EnergyBreakdown eg =
            power::with_regfile_scale(es, cs.simd_efficiency());
        const power::EnergyBreakdown ec =
            power::with_regfile_scale(es, 0.70);
        for (const int u : {4, 5}) {
          agg[u].mis += mis;
          agg[u].slow += slow;
        }
        agg[4].sys += 1.0 - eg.total() / eb.total();
        agg[4].chip += 1.0 - eg.chip() / eb.chip();
        agg[5].sys += 1.0 - ec.total() / eb.total();
        agg[5].chip += 1.0 - ec.chip() / eb.chip();
      }
    }
    ++zn;
  }

  Table zt("Figure 5b: predictor zoo — mispredict/energy/slowdown front");
  zt.header({"policy", "avg thread mispred", "avg slowdown", "system save",
             "chip save", "table B/SM"});
  for (std::size_t u = 0; u < zoo.size(); ++u) {
    const ZooAgg& a = agg[u];
    const spec::PredictorConfig pcfg =
        spec::PredictorConfig::parse(u <= 3 ? zoo[u].policy : "crf");
    zt.row({zoo[u].label, Table::pct(a.mis / zn), Table::pct(a.slow / zn),
            Table::pct(a.sys / zn), Table::pct(a.chip / zn),
            std::to_string(pcfg.table_bytes_per_sm())});
  }
  bench::emit(zt, "fig5_zoo");

  std::cout
      << "Paper (Section IV-B): Peek -18% vs VaLHALLA; Prev+Peek -26%;\n"
      << "ModPC4 -57% (12% absolute); Ltid+Prev+ModPC4+Peek -65% (9%);\n"
      << "staticOne worse than staticZero; Gtid markedly worse than Ltid;\n"
      << "XOR-hash indexing no better than ModPC4.\n";
  return 0;
}

// Fault-sensitivity sweep: how hard can the ST2 speculation state be hit
// before the timing/energy story degrades — while results stay correct?
//
// Sweeps the seeded fault-injection rate (src/fault) across several decades
// on a few speculation-heavy kernels and reports, per (kernel, rate): the
// faults that actually landed, the extra repair cycles they caused, the
// cycle and energy overhead relative to the fault-free run, and whether the
// architectural results still validate (they always must — that is the
// paper's safe-by-construction claim, and `valid` is checked against both
// the host validator and the fault-free run's cycle-exact determinism).
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/common/table.hpp"
#include "src/fault/fault.hpp"
#include "src/power/model.hpp"
#include "src/workloads/workload.hpp"

namespace {

using namespace st2;

struct RunResult {
  bool valid = false;
  std::uint64_t cycles = 0;
  std::uint64_t faults = 0;
  std::uint64_t extra_repairs = 0;
  double energy = 0;
};

RunResult simulate(const std::string& kernel, double scale,
                   const fault::FaultConfig& inject) {
  sim::GpuConfig cfg = sim::GpuConfig::st2();
  cfg.inject = inject;
  // The fault config only perturbs replay, never the captured streams, so
  // all 5 rates of a kernel replay one cached capture.
  const run::CaseResult res = bench::run_kernel(kernel, scale, cfg);
  const sim::EventCounters& c = res.counters;
  RunResult r;
  r.cycles = res.cycles;
  r.valid = res.valid;
  r.faults = c.faults_crf_flips + c.faults_hist_flips +
             c.faults_forced_mispredicts + c.faults_masked_repairs;
  r.extra_repairs = c.faults_extra_repairs;
  const power::PowerModel pm;
  r.energy = pm.energy(c, /*st2=*/true).total();
  return r;
}

double rel(double with, double without) {
  return without > 0 ? (with - without) / without : 0.0;
}

}  // namespace

int main() {
  const double scale = bench::bench_scale();
  const std::vector<std::string> kernels = {"pathfinder", "sad_K1",
                                            "kmeans_K1"};
  const std::vector<double> rates = {1e-4, 1e-3, 1e-2, 1e-1};

  Table t("fault sensitivity, ST2 machine (crf+hist+detect at equal rates)");
  t.header({"kernel", "rate", "faults", "extra repairs", "cycle overhead",
            "energy overhead", "valid"});
  // Per kernel: its fault-free reference run, then the four rate rows
  // derived from it.
  for (const std::string& k : kernels) {
    const RunResult clean = simulate(k, scale, fault::FaultConfig{});
    for (const double rate : rates) {
      fault::FaultConfig inject;
      inject.crf = rate;
      inject.hist = rate;
      inject.detect = rate;
      const RunResult r = simulate(k, scale, inject);
      t.row({k, Table::num(rate, 4), std::to_string(r.faults),
             std::to_string(r.extra_repairs),
             Table::pct(rel(double(r.cycles), double(clean.cycles))),
             Table::pct(rel(r.energy, clean.energy)),
             r.valid ? "ok" : "FAIL"});
    }
  }
  bench::emit(t, "fault_sensitivity");
  return 0;
}

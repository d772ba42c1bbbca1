// Per-kernel energy report: run one evaluation kernel on the cycle-level
// simulator in both machine configurations and print the Figure-7-style
// component breakdown side by side.
//
//   $ ./energy_report               # pathfinder
//   $ ./energy_report msort_K2 0.5
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/power/model.hpp"
#include "src/run/run.hpp"
#include "src/workloads/workload.hpp"

int main(int argc, char** argv) {
  using namespace st2;
  const std::string name = argc > 1 ? argv[1] : "pathfinder";
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.5;
  const power::PowerModel pm;

  auto simulate = [&](const sim::GpuConfig& cfg, sim::EventCounters* out) {
    workloads::PreparedCase pc = workloads::prepare_case(name, scale);
    const run::CaseResult res = run::run_case({cfg}, pc);
    *out = res.counters;
    out->cycles = res.cycles;
    return res.valid;
  };

  sim::EventCounters cb, cs;
  const bool ok_b = simulate(sim::GpuConfig::baseline(), &cb);
  const bool ok_s = simulate(sim::GpuConfig::st2(), &cs);
  if (!ok_b || !ok_s) {
    std::puts("validation FAILED");
    return 1;
  }

  const power::EnergyBreakdown eb = pm.energy(cb, false);
  const power::EnergyBreakdown es = pm.energy(cs, true);

  std::printf("%s at scale %.2f — energy by component "
              "(units: one nominal 64-bit add = 1.0)\n\n",
              name.c_str(), scale);
  std::printf("%-12s %14s %14s %9s\n", "component", "baseline", "ST2 GPU",
              "delta");
  for (int i = 0; i < power::kNumComponents; ++i) {
    const auto c = static_cast<power::Component>(i);
    const double b = eb[c];
    const double s = es[c];
    std::printf("%-12s %14.0f %14.0f %+8.1f%%\n", power::component_name(c), b,
                s, b > 0 ? 100.0 * (s / b - 1.0) : 0.0);
  }
  std::printf("%-12s %14.0f %14.0f %+8.1f%%\n", "TOTAL", eb.total(),
              es.total(), 100.0 * (es.total() / eb.total() - 1.0));
  std::printf("\nsystem energy saved: %.1f%%   chip energy saved: %.1f%%\n",
              100.0 * (1.0 - es.total() / eb.total()),
              100.0 * (1.0 - es.chip() / eb.chip()));
  std::printf("runtime: %llu -> %llu cycles (%+.2f%%)\n",
              static_cast<unsigned long long>(cb.cycles),
              static_cast<unsigned long long>(cs.cycles),
              100.0 * (double(cs.cycles) / double(cb.cycles) - 1.0));
  std::printf("mispredictions: %.2f%% of adder ops; %.2f slices recomputed "
              "per misprediction\n",
              100.0 * cs.adder_misprediction_rate(),
              cs.slices_recomputed_per_misprediction());
  return 0;
}

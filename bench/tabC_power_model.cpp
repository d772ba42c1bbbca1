// Table C (paper Section V-C): power-model calibration and validation.
// 123 micro-benchmark stressors train the GPUWattch-style per-component
// scale factors against the (synthetic) silicon oracle via least squares;
// the 23-kernel suite is the held-out validation set. The paper reports
// 10.5% +- 3.8% mean absolute relative error and Pearson r = 0.8.
#include <algorithm>
#include <iostream>

#include "bench/bench_util.hpp"
#include "src/common/table.hpp"
#include "src/power/calibrate.hpp"
#include "src/power/model.hpp"
#include "src/power/stressors.hpp"
#include "src/workloads/workload.hpp"

int main() {
  using namespace st2;
  const double scale = bench::bench_scale();
  const sim::GpuConfig cfg = sim::GpuConfig::baseline();
  const power::PowerModel pm;

  std::cout << "Running " << power::stressor_suite().size()
            << " micro-benchmark stressors...\n";
  power::SiliconOracle oracle(2021);
  const std::vector<power::Observation> train =
      power::collect_observations(pm, oracle, cfg);

  const power::CalibrationResult cal = power::calibrate(train);

  Table t("Calibrated component scale factors (hidden truth vs fit)");
  t.header({"component", "true scale", "fitted scale", "error"});
  for (int i = 0; i < power::kNumComponents; ++i) {
    const double truth = oracle.true_scales()[static_cast<std::size_t>(i)];
    const double fit = cal.scales[static_cast<std::size_t>(i)];
    t.row({power::component_name(static_cast<power::Component>(i)),
           Table::num(truth, 3), Table::num(fit, 3),
           Table::pct(std::abs(fit - truth) / truth)});
  }
  bench::emit(t, "tabC_scales");
  std::cout << "Training MAPE: " << Table::pct(cal.training_mape) << "\n\n";

  // Validation set: the 23 evaluation kernels (never seen in training).
  std::vector<power::Observation> held_out;
  for (const auto& info : workloads::case_list()) {
    const run::CaseResult res = bench::run_kernel(info.name, scale, cfg);
    const std::uint64_t cycles = res.cycles;
    sim::EventCounters c = res.counters;
    c.cycles = cycles;
    power::Observation o;
    o.component_energy = pm.energy(c, false).by_component;
    for (double& v : o.component_energy) {
      v /= std::max<double>(1.0, double(cycles));  // power, as NVML samples
    }
    o.measured = oracle.measure(o.component_energy);
    held_out.push_back(o);
  }
  const power::ValidationResult v = power::validate(cal.scales, held_out);

  Table r("Power-model validation on the 23-kernel suite");
  r.header({"metric", "measured", "paper"});
  r.row({"mean abs relative error", Table::pct(v.mape), "10.5%"});
  r.row({"95% CI half-width", Table::pct(v.mape_ci95), "3.8%"});
  r.row({"Pearson r", Table::num(v.pearson_r, 3), "0.8"});
  bench::emit(r, "tabC_power_model");
  return 0;
}

// End-to-end integration tests: the full pipeline (workload -> simulator ->
// speculation -> power model) and the paper's cross-cutting invariants.
#include <gtest/gtest.h>

#include "src/power/model.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/spec_harness.hpp"
#include "src/sim/trace_run.hpp"
#include "src/workloads/workload.hpp"

namespace st2 {
namespace {

TEST(Integration, St2NeverChangesAnyWorkloadResult) {
  // The correctness guarantee at system level: every kernel validates under
  // the ST2 machine exactly as under the baseline.
  for (const auto& info : workloads::case_list()) {
    workloads::PreparedCase pc = workloads::prepare_case(info.name, 0.2);
    sim::GpuConfig cfg = sim::GpuConfig::st2();
    cfg.num_sms = 4;
    sim::ExecutionEngine ts(cfg);
    for (const auto& lc : pc.launches) ts.run(pc.kernel, lc, *pc.mem);
    EXPECT_TRUE(pc.validate(*pc.mem)) << info.name;
  }
}

TEST(Integration, TimingAndTraceAgreeFunctionally) {
  workloads::PreparedCase a = workloads::prepare_case("pathfinder", 0.2);
  workloads::PreparedCase b = workloads::prepare_case("pathfinder", 0.2);
  for (const auto& lc : a.launches) sim::trace_run(a.kernel, lc, *a.mem);
  sim::GpuConfig cfg = sim::GpuConfig::baseline();
  cfg.num_sms = 3;
  sim::ExecutionEngine ts(cfg);
  for (const auto& lc : b.launches) ts.run(b.kernel, lc, *b.mem);
  EXPECT_TRUE(a.validate(*a.mem));
  EXPECT_TRUE(b.validate(*b.mem));
}

TEST(Integration, DesignSpaceOrderingHoldsOnRealKernels) {
  // Paper Figure 5's key orderings, verified end-to-end on two kernels with
  // different characters (integer DP vs FP distance computation).
  for (const char* name : {"pathfinder", "kmeans_K1"}) {
    workloads::PreparedCase pc = workloads::prepare_case(name, 0.25);
    sim::SpeculationHarness stat0(spec::SpeculationConfig::static_zero());
    sim::SpeculationHarness stat1(spec::SpeculationConfig::static_one());
    sim::SpeculationHarness st2(spec::SpeculationConfig::ltid_prev_modpc4_peek());
    auto obs = [&](const sim::ExecRecord& rec) {
      stat0.feed(rec);
      stat1.feed(rec);
      st2.feed(rec);
    };
    for (const auto& lc : pc.launches) {
      sim::trace_run(pc.kernel, lc, *pc.mem, obs);
    }
    EXPECT_LT(st2.op_misprediction_rate(), stat0.op_misprediction_rate())
        << name;
    EXPECT_LT(stat0.op_misprediction_rate(), stat1.op_misprediction_rate())
        << name;
  }
}

TEST(Integration, CrfPathTracksIdealizedSpeculator) {
  // The CRF realization (timing mode) should mispredict at a rate close to
  // the idealized Ltid+Prev+ModPC4+Peek harness (trace mode) — contention
  // and SM partitioning cost only a little accuracy.
  workloads::PreparedCase t = workloads::prepare_case("histo_K1", 0.25);
  sim::SpeculationHarness ideal(spec::st2_config());
  auto obs = [&](const sim::ExecRecord& rec) { ideal.feed(rec); };
  for (const auto& lc : t.launches) {
    sim::trace_run(t.kernel, lc, *t.mem, obs);
  }
  workloads::PreparedCase t2 = workloads::prepare_case("histo_K1", 0.25);
  sim::GpuConfig cfg = sim::GpuConfig::st2();
  cfg.num_sms = 4;
  sim::ExecutionEngine ts(cfg);
  sim::EventCounters c;
  for (const auto& lc : t2.launches) {
    c += ts.run(t2.kernel, lc, *t2.mem).chip;
  }
  const double ideal_rate = ideal.op_misprediction_rate();
  const double crf_rate = c.adder_misprediction_rate();
  EXPECT_NEAR(crf_rate, ideal_rate, 0.05 + ideal_rate);
}

TEST(Integration, EnergyPipelineProducesSavings) {
  workloads::PreparedCase base_pc = workloads::prepare_case("sad_K1", 0.25);
  workloads::PreparedCase st2_pc = workloads::prepare_case("sad_K1", 0.25);
  sim::GpuConfig bcfg = sim::GpuConfig::baseline();
  bcfg.num_sms = 4;
  sim::GpuConfig scfg = sim::GpuConfig::st2();
  scfg.num_sms = 4;
  sim::ExecutionEngine tb(bcfg), ts(scfg);
  sim::EventCounters cb, cs;
  std::uint64_t cyc_b = 0, cyc_s = 0;
  for (const auto& lc : base_pc.launches) {
    const auto r = tb.run(base_pc.kernel, lc, *base_pc.mem);
    cb += r.chip;
    cyc_b += r.chip.cycles;
  }
  for (const auto& lc : st2_pc.launches) {
    const auto r = ts.run(st2_pc.kernel, lc, *st2_pc.mem);
    cs += r.chip;
    cyc_s += r.chip.cycles;
  }
  cb.cycles = cyc_b;
  cs.cycles = cyc_s;
  power::PowerModel pm;
  const auto eb = pm.energy(cb, false);
  const auto es = pm.energy(cs, true);
  // sad is ALU-add heavy: ST2 must save a double-digit share of system
  // energy, and the performance cost must stay small.
  EXPECT_LT(es.total(), 0.92 * eb.total());
  EXPECT_LT(double(cyc_s), 1.15 * double(cyc_b));
}

TEST(Integration, RecomputeCostMatchesPaperScale) {
  // Across a mixed kernel, slices recomputed per misprediction must be
  // small (paper: 1.94 average, 2.73 max) — not the 6-7 a 64-bit datapath
  // would give.
  workloads::PreparedCase pc = workloads::prepare_case("pathfinder", 0.25);
  sim::GpuConfig cfg = sim::GpuConfig::st2();
  cfg.num_sms = 4;
  sim::ExecutionEngine ts(cfg);
  sim::EventCounters c;
  for (const auto& lc : pc.launches) {
    c += ts.run(pc.kernel, lc, *pc.mem).chip;
  }
  ASSERT_GT(c.adder_mispredicts, 0u);
  EXPECT_LT(c.slices_recomputed_per_misprediction(), 3.5);
  EXPECT_GT(c.slices_recomputed_per_misprediction(), 1.0);
}

}  // namespace
}  // namespace st2

// The capture↔trace seam (the trace cache's foundation): `capture_grid` IS
// the canonical functional pass, so for every workload in the suite the
// captured+replayed run must (a) count exactly the instruction mix that
// `trace_run` counts, (b) leave global memory byte-identical to the trace
// run's, and (c) pass the workload's host validation. Any divergence here
// would make cached captures silently unrepresentative.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>

#include "src/sim/counters.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/trace_run.hpp"
#include "src/workloads/workload.hpp"

namespace st2::sim {
namespace {

constexpr double kScale = 0.15;

/// The instruction-mix subset of EventCounters that `count_instruction`
/// fills — the fields both trace and timing modes must agree on. Cycle and
/// stall counters are deliberately excluded (trace mode has no cycles).
struct Mix {
  std::uint64_t v[27];

  static Mix of(const EventCounters& c) {
    return Mix{{c.warp_instructions, c.thread_instructions, c.alu_ops,
                c.alu_adder_ops, c.int_muldiv_ops, c.fpu_ops,
                c.fpu_adder_ops, c.fp_muldiv_ops, c.dpu_ops,
                c.dpu_adder_ops, c.sfu_ops, c.mem_ops, c.ctrl_ops,
                c.gmem_insts, c.smem_accesses, c.int_div_ops, c.fp_div_ops,
                c.fused_int_mul_ops, c.fused_fp_mul_ops, c.fused_dp_mul_ops,
                c.regfile_reads, c.regfile_writes, c.fig1_alu_add,
                c.fig1_alu_other, c.fig1_fpu_add, c.fig1_fpu_other,
                c.fig1_other}};
  }

  bool operator==(const Mix& o) const {
    for (int i = 0; i < 27; ++i) {
      if (v[i] != o.v[i]) return false;
    }
    return true;
  }

  std::string diff(const Mix& o) const {
    static constexpr const char* kNames[27] = {
        "warp_instructions", "thread_instructions", "alu_ops",
        "alu_adder_ops", "int_muldiv_ops", "fpu_ops", "fpu_adder_ops",
        "fp_muldiv_ops", "dpu_ops", "dpu_adder_ops", "sfu_ops", "mem_ops",
        "ctrl_ops", "gmem_insts", "smem_accesses", "int_div_ops",
        "fp_div_ops", "fused_int_mul_ops", "fused_fp_mul_ops",
        "fused_dp_mul_ops", "regfile_reads", "regfile_writes",
        "fig1_alu_add", "fig1_alu_other", "fig1_fpu_add", "fig1_fpu_other",
        "fig1_other"};
    std::string s;
    for (int i = 0; i < 27; ++i) {
      if (v[i] != o.v[i]) {
        s += std::string(kNames[i]) + "=" + std::to_string(v[i]) + " vs " +
             std::to_string(o.v[i]) + "; ";
      }
    }
    return s;
  }
};

TEST(CaptureEquivalence, AllWorkloadsMatchTraceRun) {
  for (const auto& info : workloads::case_list()) {
    SCOPED_TRACE(info.name);

    // Reference: plain trace mode.
    workloads::PreparedCase ref = workloads::prepare_case(info.name, kScale);
    EventCounters want;
    for (const auto& lc : ref.launches) {
      want += trace_run(ref.kernel, lc, *ref.mem).counters;
    }
    EXPECT_TRUE(ref.validate(*ref.mem));

    // Capture + replay on the ST2 machine (the payload-bearing capture the
    // trace cache canonicalizes), on one replay thread and on four: replay
    // threads share the one instruction-mix table.
    workloads::PreparedCase pc = workloads::prepare_case(info.name, kScale);
    const GpuConfig cfg = GpuConfig::st2();
    ExecutionEngine eng(cfg, EngineOptions{1});
    ExecutionEngine eng4(cfg, EngineOptions{4});
    EventCounters got, got4;
    for (const auto& lc : pc.launches) {
      const GridCapture cap = capture_grid(cfg, pc.kernel, lc, *pc.mem);
      got += eng.replay(pc.kernel, cap).chip;
      got4 += eng4.replay(pc.kernel, cap).chip;
    }

    const Mix mw = Mix::of(want);
    for (const EventCounters* c : {&got, &got4}) {
      const Mix mg = Mix::of(*c);
      EXPECT_TRUE(mg == mw) << "replayed instruction mix diverges from "
                               "trace mode ("
                            << (c == &got ? 1 : 4) << " jobs): " << mg.diff(mw);
    }
    EXPECT_TRUE(pc.validate(*pc.mem));

    // Architectural state: the capture pass applies side effects exactly
    // like trace mode.
    const std::span<const std::uint8_t> a = ref.mem->bytes();
    const std::span<const std::uint8_t> b = pc.mem->bytes();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
        << "captured run's device memory diverges from trace mode";
  }
}

}  // namespace
}  // namespace st2::sim

// The execution engine's contract: parallel replay is bit-identical to
// serial replay, the chip-level reduction is explicit (cycles = max across
// SMs, sm_cycles_sum = sum), and the structured report serializes.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/isa/builder.hpp"
#include "src/sim/engine.hpp"
#include "src/workloads/workload.hpp"

namespace st2::sim {
namespace {

using isa::KernelBuilder;
using isa::Reg;

/// Minimal recursive-descent JSON validator — enough to assert that the
/// reports we emit are well-formed (RFC 8259 value grammar, no trailing
/// garbage) without pulling in a JSON library.
class MiniJson {
 public:
  explicit MiniJson(const std::string& s)
      : p_(s.data()), e_(s.data() + s.size()) {}
  bool document() { return value() && (ws(), p_ == e_); }

 private:
  void ws() {
    while (p_ < e_ &&
           (*p_ == ' ' || *p_ == '\n' || *p_ == '\t' || *p_ == '\r')) {
      ++p_;
    }
  }
  bool lit(const char* s) {
    const std::size_t n = std::strlen(s);
    if (static_cast<std::size_t>(e_ - p_) >= n && !std::memcmp(p_, s, n)) {
      p_ += n;
      return true;
    }
    return false;
  }
  bool string() {
    if (p_ >= e_ || *p_ != '"') return false;
    for (++p_; p_ < e_; ++p_) {
      if (*p_ == '\\') {
        ++p_;  // accept any escape pair
      } else if (*p_ == '"') {
        ++p_;
        return true;
      } else if (static_cast<unsigned char>(*p_) < 0x20) {
        return false;  // raw control character: invalid JSON
      }
    }
    return false;
  }
  bool number() {
    const char* s = p_;
    if (p_ < e_ && *p_ == '-') ++p_;
    while (p_ < e_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                       *p_ == '.' || *p_ == 'e' || *p_ == 'E' || *p_ == '+' ||
                       *p_ == '-')) {
      ++p_;
    }
    return p_ > s && std::isdigit(static_cast<unsigned char>(p_[-1]));
  }
  bool value() {
    ws();
    if (p_ >= e_) return false;
    if (*p_ == '{') {
      ++p_;
      ws();
      if (p_ < e_ && *p_ == '}') return ++p_, true;
      for (;;) {
        ws();
        if (!string()) return false;
        ws();
        if (p_ >= e_ || *p_ != ':') return false;
        ++p_;
        if (!value()) return false;
        ws();
        if (p_ < e_ && *p_ == ',') {
          ++p_;
          continue;
        }
        if (p_ < e_ && *p_ == '}') return ++p_, true;
        return false;
      }
    }
    if (*p_ == '[') {
      ++p_;
      ws();
      if (p_ < e_ && *p_ == ']') return ++p_, true;
      for (;;) {
        if (!value()) return false;
        ws();
        if (p_ < e_ && *p_ == ',') {
          ++p_;
          continue;
        }
        if (p_ < e_ && *p_ == ']') return ++p_, true;
        return false;
      }
    }
    if (*p_ == '"') return string();
    if (lit("true") || lit("false") || lit("null")) return true;
    return number();
  }
  const char* p_;
  const char* e_;
};

/// Sum of the six attribution buckets: must equal schedulers_per_sm * cycles
/// for every SM (the reconciliation invariant).
std::uint64_t attributed_cycles(const EventCounters& c) {
  return c.sched_issue_cycles + c.stall_dependency_cycles +
         c.stall_structural_cycles + c.stall_barrier_cycles +
         c.stall_empty_cycles + c.stall_st2_recovery_cycles;
}

// Adder-heavy kernel: exercises the ST2 speculation path on every SM.
isa::Kernel adder_kernel(int trips) {
  KernelBuilder kb("adder");
  const Reg out = kb.param(0);
  const Reg acc = kb.imm(1);
  kb.for_range(kb.imm(0), kb.imm(trips), 1, [&](Reg i) {
    kb.iadd_to(acc, acc, i);
    kb.iadd_to(acc, acc, kb.gtid());
  });
  kb.st_global(kb.element_addr(out, kb.gtid(), 8), acc);
  kb.exit();
  return kb.build();
}

// All threads hammer one global counter: cross-block atomics are the
// hardest case for parallel simulation correctness.
isa::Kernel atomic_kernel() {
  KernelBuilder kb("atomic");
  const Reg counter = kb.param(0);
  kb.atom_add_global(counter, kb.imm(1));
  kb.exit();
  return kb.build();
}

GpuConfig chip(int sms, bool st2 = true) {
  GpuConfig cfg = st2 ? GpuConfig::st2() : GpuConfig::baseline();
  cfg.num_sms = sms;
  return cfg;
}

TEST(Engine, ParallelReplayBitIdenticalToSerial) {
  const isa::Kernel k = adder_kernel(12);
  const GpuConfig cfg = chip(8);
  GlobalMemory mem;
  const std::uint64_t out = mem.alloc(8 * 1024);
  const GridCapture cap =
      capture_grid(cfg, k, launch_1d(1024, 64, {out}), mem);

  ExecutionEngine serial(cfg, EngineOptions{1});
  ExecutionEngine parallel(cfg, EngineOptions{4});
  const RunReport r1 = serial.replay(k, cap);
  const RunReport r4 = parallel.replay(k, cap);

  EXPECT_EQ(r1.chip, r4.chip);  // every counter, including cycle fields
  EXPECT_EQ(r1.misprediction_rate, r4.misprediction_rate);
  ASSERT_EQ(r1.per_sm.size(), r4.per_sm.size());
  for (std::size_t i = 0; i < r1.per_sm.size(); ++i) {
    EXPECT_EQ(r1.per_sm[i].sm, r4.per_sm[i].sm);
    EXPECT_EQ(r1.per_sm[i].counters, r4.per_sm[i].counters);
  }
}

TEST(Engine, AtomicsLandExactlyOnceAcrossJobs) {
  const isa::Kernel k = atomic_kernel();
  for (const int jobs : {1, 4}) {
    GlobalMemory mem;
    const std::uint64_t counter = mem.alloc(8);
    ExecutionEngine ts(chip(4, /*st2=*/false), EngineOptions{jobs});
    ts.run(k, launch_1d(512, 64, {counter}), mem);
    std::vector<std::uint64_t> v(1);
    mem.read<std::uint64_t>(counter, v);
    EXPECT_EQ(v[0], 512u) << "jobs=" << jobs;
  }
}

TEST(Engine, ReduceTakesMaxForWallClockAndSumForSmCycles) {
  const isa::Kernel k = adder_kernel(8);
  GlobalMemory mem;
  const std::uint64_t out = mem.alloc(8 * 512);
  ExecutionEngine eng(chip(4), EngineOptions{2});
  const RunReport r = eng.run(k, launch_1d(512, 64, {out}), mem);

  ASSERT_FALSE(r.per_sm.empty());
  std::uint64_t max_c = 0, sum_c = 0;
  for (const SmReport& s : r.per_sm) {
    max_c = std::max(max_c, s.counters.cycles);
    sum_c += s.counters.cycles;
  }
  EXPECT_EQ(r.chip.sm_cycles_max, max_c);
  EXPECT_EQ(r.chip.sm_cycles_sum, sum_c);
  EXPECT_EQ(r.chip.cycles, max_c);  // chip runtime = slowest SM
  EXPECT_EQ(r.wall_cycles(), max_c);
  EXPECT_EQ(r.chip.wall_cycles(), max_c);
}

TEST(Engine, IdleSmsChargeIdleCyclesForTheWholeKernel) {
  const isa::Kernel k = adder_kernel(4);
  GlobalMemory mem;
  const std::uint64_t out = mem.alloc(8 * 64);
  ExecutionEngine eng(chip(6));
  // One block -> one busy SM, five idle SMs.
  const RunReport r = eng.run(k, launch_1d(64, 64, {out}), mem);
  ASSERT_EQ(r.per_sm.size(), 1u);
  EXPECT_EQ(r.num_sms, 6);
  EXPECT_GE(r.chip.sm_idle_cycles, 5 * r.wall_cycles());
}

TEST(Engine, JsonReportContainsTheRunStructure) {
  const isa::Kernel k = adder_kernel(4);
  GlobalMemory mem;
  const std::uint64_t out = mem.alloc(8 * 256);
  ExecutionEngine eng(chip(4), EngineOptions{2});
  const RunReport r = eng.run(k, launch_1d(256, 64, {out}), mem);
  const std::string js = r.to_json("adder", 0);
  EXPECT_NE(js.find("\"kernel\": \"adder\""), std::string::npos);
  EXPECT_NE(js.find("\"wall_cycles\""), std::string::npos);
  EXPECT_NE(js.find("\"per_sm\""), std::string::npos);
  EXPECT_NE(js.find("\"sm_cycles_sum\""), std::string::npos);
  EXPECT_NE(js.find("\"jobs\": 2"), std::string::npos);
}

TEST(Engine, StallBreakdownReconcilesAndIsIdenticalAcrossJobs) {
  // Two real workloads on the ST2 machine: pathfinder (barriers + shared
  // memory) and histo_K1 (atomics, partial occupancy). For every SM the
  // attribution must reconcile exactly, and the whole breakdown must be
  // bit-identical between serial and 4-thread replay.
  for (const char* name : {"pathfinder", "histo_K1"}) {
    EventCounters totals[2];
    int idx = 0;
    for (const int jobs : {1, 4}) {
      workloads::PreparedCase pc = workloads::prepare_case(name, 0.15);
      ExecutionEngine ts(chip(8), EngineOptions{jobs});
      EventCounters c;
      for (const auto& lc : pc.launches) {
        const RunReport r = ts.run(pc.kernel, lc, *pc.mem);
        for (const SmReport& s : r.per_sm) {
          EXPECT_EQ(attributed_cycles(s.counters),
                    static_cast<std::uint64_t>(
                        ts.config().schedulers_per_sm) *
                        s.counters.cycles)
              << name << " sm=" << s.sm << " jobs=" << jobs;
        }
        c += r.chip;
      }
      totals[idx++] = c;
    }
    EXPECT_EQ(totals[0], totals[1]) << name;  // includes every new counter
    EXPECT_GT(totals[0].sched_issue_cycles, 0u) << name;
    EXPECT_GT(totals[0].stall_dependency_cycles, 0u) << name;
  }
}

TEST(Engine, BarrierAndSt2StallsShowUpWhereExpected) {
  // pathfinder has block barriers and (on the ST2 machine) real carry
  // mispredictions; its breakdown must attribute cycles to both causes, and
  // the memory-latency buckets must cover shared-memory traffic.
  workloads::PreparedCase pc = workloads::prepare_case("pathfinder", 0.15);
  ExecutionEngine ts(chip(8), EngineOptions{2});
  EventCounters c;
  for (const auto& lc : pc.launches) {
    c += ts.run(pc.kernel, lc, *pc.mem).chip;
  }
  EXPECT_GT(c.stall_barrier_cycles, 0u);
  EXPECT_GT(c.warp_adder_stalls, 0u);
  EXPECT_GT(c.stall_st2_recovery_cycles, 0u);
  EXPECT_GT(c.mem_lat_smem_cycles, 0u);
  EXPECT_GT(c.mem_lat_l1_cycles + c.mem_lat_l2_cycles + c.mem_lat_dram_cycles,
            0u);
}

TEST(Engine, TimelineRecordsIssueDensityAndExportsChromeTrace) {
  const isa::Kernel k = adder_kernel(8);
  GpuConfig cfg = chip(4);
  cfg.timeline_bucket = 64;
  GlobalMemory mem;
  const std::uint64_t out = mem.alloc(8 * 512);
  const GridCapture cap = capture_grid(cfg, k, launch_1d(512, 64, {out}), mem);

  ExecutionEngine serial(cfg, EngineOptions{1});
  ExecutionEngine parallel(cfg, EngineOptions{4});
  const RunReport r1 = serial.replay(k, cap);
  const RunReport r4 = parallel.replay(k, cap);

  ASSERT_FALSE(r1.per_sm.empty());
  std::uint64_t issued = 0;
  for (const SmReport& s : r1.per_sm) {
    ASSERT_FALSE(s.timeline.empty());
    // The buckets cover exactly the SM's run (last bucket holds the final
    // issue; issues cannot land past the SM's cycle count).
    EXPECT_LE((s.timeline.size() - 1) * 64u, s.counters.cycles);
    for (const std::uint32_t v : s.timeline) issued += v;
  }
  EXPECT_EQ(issued, r1.chip.warp_instructions);  // every issue lands once
  ASSERT_EQ(r1.per_sm.size(), r4.per_sm.size());
  for (std::size_t i = 0; i < r1.per_sm.size(); ++i) {
    EXPECT_EQ(r1.per_sm[i].timeline, r4.per_sm[i].timeline);
  }

  const std::string ev = r1.chrome_trace_events("adder", 0, 0);
  EXPECT_NE(ev.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(ev.find("process_name"), std::string::npos);
  EXPECT_TRUE(MiniJson("[" + ev + "]").document()) << ev;
  // Recording off -> no timeline, no events.
  GpuConfig off = chip(4);
  ExecutionEngine plain(off, EngineOptions{1});
  const RunReport r0 = plain.replay(k, cap);
  EXPECT_TRUE(r0.per_sm.at(0).timeline.empty());
  EXPECT_TRUE(r0.chrome_trace_events("adder", 0, 0).empty());
}

TEST(Engine, JsonReportEscapesKernelNamesAndStaysParseable) {
  const isa::Kernel k = adder_kernel(4);
  GlobalMemory mem;
  const std::uint64_t out = mem.alloc(8 * 256);
  ExecutionEngine eng(chip(4), EngineOptions{2});
  const RunReport r = eng.run(k, launch_1d(256, 64, {out}), mem);

  const std::string js = r.to_json("we\"ird\\name\n", 0);
  EXPECT_TRUE(MiniJson(js).document()) << js;
  EXPECT_NE(js.find("we\\\"ird\\\\name\\n"), std::string::npos);

  // Every control byte is escaped, so the report still parses.
  std::string controls;
  for (int c = 0; c < 0x20; ++c) controls += static_cast<char>(c);
  const std::string cj = r.to_json(controls, 0);
  EXPECT_TRUE(MiniJson(cj).document()) << cj;
  EXPECT_NE(cj.find("\\u0000\\u0001"), std::string::npos);
  EXPECT_NE(cj.find("\\u0008\\t\\n\\u000b\\u000c\\r\\u000e"),
            std::string::npos);
  EXPECT_NE(cj.find("\\u001f"), std::string::npos);

  // Non-finite rates must still serialize as valid JSON (null, not nan/inf).
  RunReport degenerate;
  degenerate.misprediction_rate = std::nan("");
  const std::string dj = degenerate.to_json("empty", 0);
  EXPECT_TRUE(MiniJson(dj).document()) << dj;
  EXPECT_NE(dj.find("\"misprediction_rate\": null"), std::string::npos);
}

TEST(Engine, InadmissibleLaunchFailsFastInsteadOfSpinning) {
  const isa::Kernel k = adder_kernel(2);
  GpuConfig cfg = chip(2, /*st2=*/false);
  cfg.max_warps_per_sm = 1;  // 64-thread blocks need 2 warp slots
  GlobalMemory mem;
  const std::uint64_t out = mem.alloc(8 * 256);
  ExecutionEngine eng(cfg, EngineOptions{4});
  EXPECT_THROW(eng.run(k, launch_1d(256, 64, {out}), mem),
               std::runtime_error);
}

TEST(Engine, RealWorkloadIdenticalAcrossJobsAndValidates) {
  // End-to-end: a histogram workload (atomics, multiple launches) must
  // validate and produce identical counters under serial and parallel replay.
  EventCounters totals[2];
  int idx = 0;
  for (const int jobs : {1, 4}) {
    workloads::PreparedCase pc = workloads::prepare_case("histo_K1", 0.15);
    ExecutionEngine ts(chip(8), EngineOptions{jobs});
    EventCounters c;
    for (const auto& lc : pc.launches) {
      c += ts.run(pc.kernel, lc, *pc.mem).chip;
    }
    EXPECT_TRUE(pc.validate(*pc.mem)) << "jobs=" << jobs;
    totals[idx++] = c;
  }
  EXPECT_EQ(totals[0], totals[1]);
}

}  // namespace
}  // namespace st2::sim

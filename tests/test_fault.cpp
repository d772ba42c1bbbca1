// Fault-injection subsystem tests: the paper's "always correct" claim under
// seeded faults. The invariant throughout: injected faults may move timing
// and energy counters, but architectural results stay bit-identical to the
// fault-free run — and fault placement itself is a pure function of
// (config, kernel, workload), bit-identical across worker-thread counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/fault/fault.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/error.hpp"
#include "src/spec/crf.hpp"
#include "src/workloads/workload.hpp"

namespace st2 {
namespace {

// ---------------------------------------------------------------- parsing

TEST(FaultSpec, ParsesRatesAndKinds) {
  const fault::FaultConfig c = fault::FaultConfig::parse("crf:1e-4,detect:1e-5");
  EXPECT_DOUBLE_EQ(c.crf, 1e-4);
  EXPECT_DOUBLE_EQ(c.detect, 1e-5);
  EXPECT_DOUBLE_EQ(c.hist, 0.0);
  EXPECT_DOUBLE_EQ(c.mask, 0.0);
  EXPECT_TRUE(c.enabled());

  const fault::FaultConfig all =
      fault::FaultConfig::parse("crf:0.5,hist:0.25,detect:0.125,mask:1");
  EXPECT_DOUBLE_EQ(all.hist, 0.25);
  EXPECT_DOUBLE_EQ(all.mask, 1.0);

  EXPECT_FALSE(fault::FaultConfig{}.enabled());
  EXPECT_EQ(fault::FaultConfig{}.describe(), "off");
  EXPECT_NE(c.describe().find("crf:"), std::string::npos);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(fault::FaultConfig::parse("crf"), std::invalid_argument);
  EXPECT_THROW(fault::FaultConfig::parse("crf:"), std::invalid_argument);
  EXPECT_THROW(fault::FaultConfig::parse("crf:0.5x"), std::invalid_argument);
  EXPECT_THROW(fault::FaultConfig::parse("bogus:0.1"), std::invalid_argument);
  EXPECT_THROW(fault::FaultConfig::parse("crf:-0.1"), std::invalid_argument);
  EXPECT_THROW(fault::FaultConfig::parse("crf:1.5"), std::invalid_argument);
  EXPECT_THROW(fault::FaultConfig::parse("crf:1e-4,,"), std::invalid_argument);
  // NaN/inf satisfy neither `< 0` nor `> 1`; they must be rejected anyway.
  EXPECT_THROW(fault::FaultConfig::parse("crf:nan"), std::invalid_argument);
  EXPECT_THROW(fault::FaultConfig::parse("crf:inf"), std::invalid_argument);
  EXPECT_THROW(fault::FaultConfig::parse("crf:-inf"), std::invalid_argument);
}

TEST(FaultSpec, FuzzedSpecsNeverEscapeTheDocumentedContract) {
  // Hostile-input sweep: every spec either parses to in-range rates or
  // throws std::invalid_argument — never another exception type, never a
  // crash, never an out-of-range rate slipping through. Seeded, so a
  // failure reproduces.
  Xoshiro256 rng(0xfa117u);
  const std::string alphabet = "crfhistdetectmask:,.0123456789eE+-x \tnaninf";
  for (int trial = 0; trial < 20000; ++trial) {
    std::string spec;
    const std::uint64_t len = rng.next_below(24);
    for (std::uint64_t i = 0; i < len; ++i) {
      spec.push_back(alphabet[static_cast<std::size_t>(
          rng.next_below(alphabet.size()))]);
    }
    try {
      const fault::FaultConfig c = fault::FaultConfig::parse(spec);
      for (const double rate : {c.crf, c.hist, c.detect, c.mask}) {
        EXPECT_TRUE(rate >= 0.0 && rate <= 1.0) << "spec: '" << spec << "'";
      }
    } catch (const std::invalid_argument&) {
      // the documented rejection path
    } catch (const std::exception& e) {
      FAIL() << "spec '" << spec << "' threw non-contract exception: "
             << e.what();
    }
  }
}

// --------------------------------------------------------------- injector

TEST(FaultInjector, SameConfigSameSequence) {
  fault::FaultConfig cfg;
  cfg.crf = 0.3;
  cfg.detect = 0.1;
  cfg.seed = 1234;
  fault::FaultInjector a(cfg), b(cfg);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.fire_crf(), b.fire_crf());
    ASSERT_EQ(a.fire_detect(), b.fire_detect());
    ASSERT_EQ(a.pick(32), b.pick(32));
  }
}

TEST(FaultInjector, ZeroRateNeverFiresOrAdvancesTheRng) {
  fault::FaultConfig cfg;
  cfg.crf = 0.5;
  cfg.seed = 99;
  fault::FaultInjector with_hist_calls(cfg), plain(cfg);
  for (int i = 0; i < 1000; ++i) {
    // hist is 0.0: must not fire, and must not perturb the crf stream.
    ASSERT_FALSE(with_hist_calls.fire_hist());
    ASSERT_EQ(with_hist_calls.fire_crf(), plain.fire_crf());
  }
}

// ---------------------------------------------------- golden cross-run

struct CaseResult {
  bool valid = false;
  std::string status = "ok";
  std::vector<std::uint8_t> mem;
  sim::EventCounters chip;
  std::uint64_t wall_cycles = 0;
};

std::uint64_t total_faults(const sim::EventCounters& c) {
  return c.faults_crf_flips + c.faults_hist_flips +
         c.faults_forced_mispredicts + c.faults_masked_repairs +
         c.faults_extra_repairs;
}

std::vector<std::uint64_t> counter_values(const sim::EventCounters& c) {
  std::vector<std::uint64_t> v;
  sim::for_each_counter(c, [&](const char*, std::uint64_t x) { v.push_back(x); });
  return v;
}

CaseResult run_case(const std::string& kernel, const fault::FaultConfig& inject,
                    int jobs, std::uint64_t watchdog_cycles = 0) {
  workloads::PreparedCase pc = workloads::prepare_case(kernel, 0.15);
  sim::GpuConfig cfg = sim::GpuConfig::st2();
  cfg.num_sms = 4;
  cfg.inject = inject;
  sim::EngineOptions opts;
  opts.jobs = jobs;
  opts.watchdog_cycles = watchdog_cycles;
  sim::ExecutionEngine ts(cfg, opts);
  CaseResult r;
  for (const auto& lc : pc.launches) {
    const sim::RunReport rep = ts.run(pc.kernel, lc, *pc.mem);
    r.chip += rep.chip;
    r.wall_cycles += rep.wall_cycles();
    if (rep.aborted()) {
      r.status = rep.status + ":" + rep.abort_reason;
      break;
    }
  }
  r.valid = pc.validate(*pc.mem);
  const auto bytes = pc.mem->bytes();
  r.mem.assign(bytes.begin(), bytes.end());
  return r;
}

TEST(FaultInvariant, ResultsBitIdenticalToFaultFreeRunAcrossSeeds) {
  for (const char* kernel : {"sad_K1", "pathfinder"}) {
    const CaseResult clean = run_case(kernel, fault::FaultConfig{}, 1);
    ASSERT_TRUE(clean.valid) << kernel;
    EXPECT_EQ(total_faults(clean.chip), 0u);
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      fault::FaultConfig inject;
      inject.crf = 0.05;
      inject.hist = 0.02;
      inject.detect = 0.02;
      inject.seed = seed;
      const CaseResult faulty = run_case(kernel, inject, 1);
      // Architectural outputs: host validation passes and every byte of
      // device memory matches the fault-free run.
      EXPECT_TRUE(faulty.valid) << kernel << " seed " << seed;
      EXPECT_EQ(faulty.mem, clean.mem) << kernel << " seed " << seed;
      // The faults were not a no-op: they actually landed...
      EXPECT_GT(total_faults(faulty.chip), 0u) << kernel << " seed " << seed;
      // ...and only timing/energy may move, never functional work counts.
      EXPECT_EQ(faulty.chip.thread_instructions, clean.chip.thread_instructions);
      EXPECT_EQ(faulty.chip.adder_thread_ops, clean.chip.adder_thread_ops);
    }
  }
}

TEST(FaultInvariant, FaultPlacementBitIdenticalAcrossJobs) {
  fault::FaultConfig inject;
  inject.crf = 0.05;
  inject.hist = 0.02;
  inject.detect = 0.02;
  inject.seed = 3;
  const CaseResult one = run_case("pathfinder", inject, 1);
  const CaseResult four = run_case("pathfinder", inject, 4);
  EXPECT_GT(total_faults(one.chip), 0u);
  EXPECT_EQ(counter_values(one.chip), counter_values(four.chip));
  EXPECT_EQ(one.wall_cycles, four.wall_cycles);
  EXPECT_EQ(one.mem, four.mem);
}

TEST(FaultInvariant, MaskedRepairsAreCountedButResultsStayCorrect) {
  // `mask` silences the detector on genuine mispredictions — the one fault
  // outside the safety envelope. The simulator's functional results still
  // come from capture (by construction), so memory stays correct; the
  // counter is what lets --selfcheck fail the run.
  fault::FaultConfig inject;
  inject.mask = 0.5;
  const CaseResult clean = run_case("sad_K1", fault::FaultConfig{}, 1);
  const CaseResult faulty = run_case("sad_K1", inject, 1);
  EXPECT_GT(faulty.chip.faults_masked_repairs, 0u);
  EXPECT_TRUE(faulty.valid);
  EXPECT_EQ(faulty.mem, clean.mem);
  // The functional work is untouched; only the speculation bookkeeping moves.
  EXPECT_EQ(faulty.chip.warp_adder_insts, clean.chip.warp_adder_insts);
  EXPECT_EQ(faulty.chip.thread_instructions, clean.chip.thread_instructions);
}

// ---------------------------------------------------------------- watchdog

TEST(Watchdog, AbortsWithConsistentPartialCounters) {
  const CaseResult r = run_case("pathfinder", fault::FaultConfig{}, 1, 10);
  EXPECT_EQ(r.status, "aborted:watchdog-cycles");
  // Each SM stops at min(own finish, budget); seal_counters() ran its
  // always-on invariants on the partial state without throwing.
  EXPECT_LE(r.wall_cycles, 10u);
  EXPECT_GT(r.chip.cycles, 0u);
}

/// A replay's status, abort cause, chip and per-SM counters and per-SM
/// timelines as one comparable value; the `jobs` metadata is left out.
std::string fingerprint(const sim::RunReport& r) {
  std::string s = r.status + '|' + r.abort_reason + '\n';
  const auto dump = [&s](const sim::EventCounters& c) {
    for (const std::uint64_t v : counter_values(c)) s += std::to_string(v) + ' ';
    s += '\n';
  };
  dump(r.chip);
  for (const sim::SmReport& sm : r.per_sm) {
    s += "sm" + std::to_string(sm.sm) + (sm.aborted ? " aborted\n" : " ok\n");
    dump(sm.counters);
    for (const std::uint32_t t : sm.timeline) s += std::to_string(t) + ' ';
    s += '\n';
  }
  return s;
}

TEST(Watchdog, PartialReportBitIdenticalAcrossJobs) {
  const CaseResult one = run_case("pathfinder", fault::FaultConfig{}, 1, 64);
  const CaseResult four = run_case("pathfinder", fault::FaultConfig{}, 4, 64);
  EXPECT_EQ(one.status, "aborted:watchdog-cycles");
  EXPECT_EQ(four.status, one.status);
  EXPECT_EQ(counter_values(one.chip), counter_values(four.chip));

  // The budget stops every SM at the first state with now() >= budget, so a
  // partial report — per-SM counters and timelines included — cannot depend
  // on the thread schedule, for budgets below, inside and past any kernel's
  // run. Three suites' kernels, each one launch replayed at jobs 1, 2 and 4.
  sim::GpuConfig cfg = sim::GpuConfig::st2();
  cfg.num_sms = 4;
  cfg.timeline_bucket = 64;
  for (const char* name : {"pathfinder", "sad_K1", "binomial"}) {
    workloads::PreparedCase wc = workloads::prepare_case(name, 0.1);
    const sim::GridCapture cap =
        sim::capture_grid(cfg, wc.kernel, wc.launches[0], *wc.mem);
    for (const std::uint64_t budget :
         {1ull, 7ull, 64ull, 300ull, 5000ull, 1ull << 30}) {
      std::string serial;
      for (const int jobs : {1, 2, 4}) {
        sim::EngineOptions opts{jobs};
        opts.watchdog_cycles = budget;
        const sim::RunReport r =
            sim::ExecutionEngine(cfg, opts).replay(wc.kernel, cap);
        // Guard against a vacuous pass: the smallest budget cuts the run
        // short, the largest lets it finish.
        if (budget == 1 || budget == 1ull << 30) {
          EXPECT_EQ(r.aborted(), budget == 1) << name << " jobs=" << jobs;
        }
        if (jobs == 1) {
          serial = fingerprint(r);
        } else {
          EXPECT_EQ(fingerprint(r), serial)
              << name << " budget=" << budget << " jobs=" << jobs;
        }
      }
    }
  }
}

// ------------------------------------------------------------- error model

TEST(SimErrorTaxonomy, KindsMapToDistinctExitCodes) {
  using sim::SimErrorKind;
  EXPECT_EQ(sim::exit_code(SimErrorKind::kBadArguments), 2);
  EXPECT_EQ(sim::exit_code(SimErrorKind::kInadmissibleLaunch), 3);
  EXPECT_EQ(sim::exit_code(SimErrorKind::kInvariantViolation), 5);
  EXPECT_EQ(sim::exit_code(SimErrorKind::kSelfCheckFailed), 6);
  EXPECT_EQ(sim::exit_code(SimErrorKind::kIo), 7);
  EXPECT_EQ(sim::kExitWatchdogAborted, 4);
  EXPECT_EQ(sim::kExitInterrupted, 130);
}

TEST(SimErrorTaxonomy, StructuredMessageNamesTheKind) {
  const sim::SimError e(sim::SimErrorKind::kSelfCheckFailed, "kmeans_K1",
                        "state diverges at byte 42");
  EXPECT_EQ(std::string(sim::to_string(e.kind())), "selfcheck-failed");
  const std::string s = e.structured();
  EXPECT_EQ(s.rfind("error[selfcheck-failed]: ", 0), 0u) << s;
  EXPECT_NE(s.find("kmeans_K1"), std::string::npos);
}

TEST(SimErrorTaxonomy, InadmissibleLaunchThrowsTypedError) {
  workloads::PreparedCase pc = workloads::prepare_case("sad_K1", 0.15);
  sim::GpuConfig cfg = sim::GpuConfig::st2();
  cfg.num_sms = 2;
  cfg.max_warps_per_sm = 1;  // the launch's blocks can never fit
  sim::ExecutionEngine ts(cfg);
  try {
    ts.run(pc.kernel, pc.launches.front(), *pc.mem);
    FAIL() << "expected SimError";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.kind(), sim::SimErrorKind::kInadmissibleLaunch);
  }
}

// ------------------------------------------------------------------- CRF

TEST(CrfFaults, FlippedEntriesStayLegalPatterns) {
  spec::CarryRegisterFile crf(7);
  ASSERT_TRUE(crf.entries_valid());
  fault::FaultConfig cfg;
  cfg.crf = 1.0;
  fault::FaultInjector inj(cfg);
  for (int i = 0; i < 4096; ++i) {
    crf.flip_bit(static_cast<std::uint64_t>(inj.pick(64)), inj.pick(32),
                 inj.pick(spec::CarryRegisterFile::kBitsPerLane));
  }
  EXPECT_TRUE(crf.entries_valid());
  for (std::uint64_t pc = 0; pc < 16; ++pc) {
    for (std::uint8_t v : crf.read_row(pc)) EXPECT_LT(v, 0x80);
  }
}

}  // namespace
}  // namespace st2

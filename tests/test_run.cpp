// RunSpec::validate is the single home of the run-option rules that the
// CLI (`st2sim run`) and serve requests share. One table row per rule, each
// next to a boundary value that must still pass; the front ends' own
// suites (cli_fuzz.sh, test_serve.cpp) check that each surface reaches it.
#include <atomic>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/run/run.hpp"
#include "src/sim/error.hpp"
#include "src/sim/jobs.hpp"
#include "src/workloads/workload.hpp"

namespace st2::run {
namespace {

TEST(RunSpec, ValidateEnforcesEveryRule) {
  struct Case {
    const char* what;
    std::function<void(RunSpec&)> mutate;
    const char* rejected_option;  ///< null = the spec is valid
  };
  const Case cases[] = {
      {"defaults", [](RunSpec&) {}, nullptr},
      {"scale 0", [](RunSpec& s) { s.scale = 0; }, "scale"},
      {"scale -1", [](RunSpec& s) { s.scale = -1; }, "scale"},
      {"scale above 4", [](RunSpec& s) { s.scale = 4.5; }, "scale"},
      {"scale NaN", [](RunSpec& s) { s.scale = std::nan(""); }, "scale"},
      {"scale 4", [](RunSpec& s) { s.scale = 4; }, nullptr},
      {"sms 0", [](RunSpec& s) { s.sms = 0; }, "sms"},
      {"sms 1", [](RunSpec& s) { s.sms = 1; }, nullptr},
      {"max_warps -1", [](RunSpec& s) { s.max_warps = -1; }, "max_warps"},
      {"max_warps 0", [](RunSpec& s) { s.max_warps = 0; }, nullptr},
      {"jobs 0", [](RunSpec& s) { s.jobs = 0; }, "jobs"},
      {"jobs -2", [](RunSpec& s) { s.jobs = -2; }, "jobs"},
      {"inject without st2",
       [](RunSpec& s) { s.inject = fault::FaultConfig::parse("crf:1e-3"); },
       "inject"},
      {"inject with st2",
       [](RunSpec& s) {
         s.inject = fault::FaultConfig::parse("crf:1e-3");
         s.st2 = true;
       },
       nullptr},
      {"spec_policy without st2",
       [](RunSpec& s) { s.spec_policy = spec::PredictorConfig::parse("mru"); },
       "spec_policy"},
      {"spec_policy with st2",
       [](RunSpec& s) {
         s.spec_policy = spec::PredictorConfig::parse("mru");
         s.st2 = true;
       },
       nullptr},
  };
  for (const Case& c : cases) {
    RunSpec rs;
    rs.kernel = "pathfinder";
    c.mutate(rs);
    if (c.rejected_option == nullptr) {
      EXPECT_NO_THROW(rs.validate()) << c.what;
      continue;
    }
    try {
      rs.validate();
      ADD_FAILURE() << "accepted: " << c.what;
    } catch (const sim::SimError& e) {
      EXPECT_EQ(e.kind(), sim::SimErrorKind::kBadArguments) << c.what;
      EXPECT_EQ(std::string(e.what()).rfind(c.rejected_option, 0), 0u)
          << c.what << ": " << e.what();
    }
  }
}

TEST(RunSpec, ValidateClampsJobsToTheHardware) {
  RunSpec rs;
  rs.jobs = sim::hardware_threads() + 7;
  rs.validate();
  EXPECT_EQ(rs.jobs, sim::hardware_threads());
}

TEST(RunSpec, MachineMapsEveryOption) {
  RunSpec rs;
  rs.st2 = true;
  rs.lrr = true;
  rs.sms = 3;
  rs.jobs = 2;
  rs.max_warps = 16;
  rs.spec_policy = spec::PredictorConfig::parse("mru");
  rs.inject = fault::FaultConfig::parse("crf:1e-3");
  rs.watchdog_cycles = 123;
  rs.watchdog_ms = 45;
  const Machine m = rs.machine();
  EXPECT_TRUE(m.cfg.st2_enabled);
  EXPECT_EQ(m.cfg.scheduler, sim::WarpScheduler::kLrr);
  EXPECT_EQ(m.cfg.num_sms, 3);
  EXPECT_EQ(m.cfg.max_warps_per_sm, 16);
  EXPECT_EQ(m.cfg.predictor, rs.spec_policy);
  EXPECT_TRUE(m.cfg.inject.enabled());
  EXPECT_EQ(m.opts.jobs, 2);
  EXPECT_EQ(m.opts.watchdog_cycles, 123u);
  EXPECT_EQ(m.opts.watchdog_ms, 45u);
  EXPECT_EQ(m.opts.cancel, nullptr);  // process wiring is the caller's
  EXPECT_EQ(m.opts.capture_provider, nullptr);

  // max_warps 0 keeps the machine's default warp capacity.
  EXPECT_EQ(RunSpec{}.machine().cfg.max_warps_per_sm,
            sim::GpuConfig::baseline().max_warps_per_sm);
}

// An interrupt raised before the replay starts (st2sim's SIGINT/SIGTERM
// flag, with no other hook attached): at jobs 1 the first SM steps one
// check quantum before it sees the flag and every later SM stops before its
// first step, so the partial counters are reproducible.
TEST(RunCase, CancelAbortsEveryUnfinishedSmAsInterrupted) {
  RunSpec rs;
  rs.kernel = "histo_K1";
  rs.st2 = true;
  rs.sms = 4;
  rs.jobs = 1;
  rs.validate();
  Machine m = rs.machine();
  const std::atomic<bool> cancel{true};
  m.opts.cancel = &cancel;

  struct Outcome {
    CaseResult res;
    std::vector<sim::SmReport> sms;  ///< the aborted launch, per SM
  };
  const auto once = [&] {
    workloads::PreparedCase pc = workloads::prepare_case(rs.kernel, rs.scale);
    Outcome o;
    LaunchHooks hooks;
    hooks.on_report = [&](std::size_t, const sim::RunReport& r) {
      o.sms = r.per_sm;
    };
    o.res = run_case(m, pc, hooks);
    return o;
  };
  const Outcome a = once();
  EXPECT_EQ(a.res.abort_reason, "interrupted");
  EXPECT_EQ(a.res.exit_code(), sim::kExitInterrupted);
  EXPECT_EQ(a.res.exit_code(), 130);
  EXPECT_FALSE(a.res.valid);  // validation never runs after an abort
  ASSERT_EQ(a.sms.size(), 4u);
  int aborted = 0;
  for (const sim::SmReport& s : a.sms) {
    if (!s.aborted) continue;
    ++aborted;
    ASSERT_NE(s.abort_reason, nullptr);
    EXPECT_STREQ(s.abort_reason, "interrupted") << "sm " << s.sm;
  }
  EXPECT_EQ(aborted, 4);  // none of them finishes within one quantum
  EXPECT_GT(a.res.counters.cycles, 0u);  // the first SM did step

  const Outcome b = once();
  EXPECT_EQ(b.res.counters, a.res.counters);
  EXPECT_EQ(b.res.cycles, a.res.cycles);
  ASSERT_EQ(b.sms.size(), a.sms.size());
  for (std::size_t i = 0; i < a.sms.size(); ++i) {
    EXPECT_EQ(b.sms[i].counters, a.sms[i].counters) << "sm " << i;
  }
}

// An interrupt raised while a launch runs, which that launch finishes
// without seeing (replay polls the flag only every few thousand steps),
// stops the kernel before its next launch: pathfinder has 3 launches, and
// the flag raised from launch 0's report leaves launch 0's counters only,
// exit 130 and no validation.
TEST(RunCase, CancelStopsTheRemainingLaunches) {
  RunSpec rs;
  rs.kernel = "pathfinder";
  rs.st2 = true;
  rs.validate();
  Machine m = rs.machine();
  std::atomic<bool> cancel{false};
  m.opts.cancel = &cancel;
  workloads::PreparedCase pc = workloads::prepare_case(rs.kernel, rs.scale);
  ASSERT_EQ(pc.launches.size(), 3u);
  std::vector<std::size_t> reported;
  sim::EventCounters first;
  std::uint64_t first_cycles = 0;
  LaunchHooks hooks;
  hooks.on_report = [&](std::size_t launch, const sim::RunReport& r) {
    reported.push_back(launch);
    if (launch == 0) {
      first = r.chip;
      first_cycles = r.wall_cycles();
      EXPECT_FALSE(r.aborted());
    }
    cancel = true;
  };
  const CaseResult res = run_case(m, pc, hooks);
  EXPECT_EQ(reported, std::vector<std::size_t>{0});
  EXPECT_EQ(res.abort_reason, "interrupted");
  EXPECT_EQ(res.exit_code(), 130);
  EXPECT_FALSE(res.valid);  // validation never runs after an interrupt
  EXPECT_EQ(res.counters, first);
  EXPECT_EQ(res.cycles, first_cycles);
  EXPECT_GT(first.warp_instructions, 0u);
}

}  // namespace
}  // namespace st2::run

// The checkpoint/resume contract (docs/robustness.md): a replay that is
// snapshotted at any cadence, torn down, and resumed from any snapshot must
// finish with counters, status and timelines bit-identical to a replay that
// was never paused — for real evaluation kernels and across --jobs N. The
// serialized state is also hostile-input hardened: mismatched workloads and
// corrupted bytes are rejected with the typed snapshot error, never UB.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/engine.hpp"
#include "src/sim/error.hpp"
#include "src/spec/policy.hpp"
#include "src/workloads/workload.hpp"

namespace st2::sim {
namespace {

GpuConfig test_config() {
  GpuConfig cfg = GpuConfig::st2();
  cfg.num_sms = 4;
  cfg.timeline_bucket = 64;  // timelines must survive resume bit-identically
  return cfg;
}

/// Everything the bit-identity guarantee covers, as one comparable string:
/// status, abort cause, chip + per-SM counters, per-SM timelines. The
/// `jobs` field is deliberately absent — it is run metadata, not state.
std::string fingerprint(const RunReport& r) {
  std::ostringstream os;
  os << r.status << '|' << r.abort_reason << '|' << r.num_sms << '\n';
  const auto dump = [&os](const EventCounters& c) {
    for_each_counter(c, [&os](const char* name, const std::uint64_t& v) {
      os << name << '=' << v << ' ';
    });
    os << '\n';
  };
  dump(r.chip);
  for (const SmReport& sm : r.per_sm) {
    os << "sm" << sm.sm << (sm.aborted ? " aborted " : " ok ");
    dump(sm.counters);
    os << "timeline";
    for (const std::uint32_t t : sm.timeline) os << ' ' << t;
    os << '\n';
  }
  return os.str();
}

struct GoldenRun {
  workloads::PreparedCase wc;
  std::vector<GridCapture> captures;   ///< one per launch
  std::vector<std::string> goldens;    ///< fingerprint per launch, jobs=1
};

/// Runs every launch of `name` uninterrupted (replay without checkpoints,
/// jobs=1) and keeps the captures so checkpointed variants replay the same
/// streams.
GoldenRun golden_run(const std::string& name, double scale) {
  GoldenRun g{workloads::prepare_case(name, scale), {}, {}};
  const GpuConfig cfg = test_config();
  ExecutionEngine eng(cfg, EngineOptions{1});
  for (const LaunchConfig& launch : g.wc.launches) {
    g.captures.push_back(capture_grid(cfg, g.wc.kernel, launch, *g.wc.mem));
    g.goldens.push_back(fingerprint(eng.replay(g.wc.kernel, g.captures.back())));
  }
  return g;
}

struct Snapshots {
  std::vector<std::string> states;
  std::vector<std::uint64_t> cycles;
  bool abort_snapshot = false;
};

ReplayCheckpoint collecting(Snapshots& out, std::uint64_t every,
                            const std::string* resume = nullptr) {
  ReplayCheckpoint ck;
  ck.every = every;
  ck.sink = [&out](const std::string& state, std::uint64_t cycle,
                   bool on_abort) {
    out.states.push_back(state);
    out.cycles.push_back(cycle);
    out.abort_snapshot = out.abort_snapshot || on_abort;
  };
  ck.resume = resume;
  return ck;
}

// The three golden kernels: one multi-launch Rodinia case, one Parboil
// case, one CUDA-Samples case — distinct suites, distinct replay shapes.
const char* const kKernels[] = {"pathfinder", "sad_K1", "binomial"};

TEST(Checkpoint, CheckpointedRunMatchesPlainRunForAnyCadence) {
  for (const char* name : kKernels) {
    GoldenRun g = golden_run(name, 0.1);
    for (const std::uint64_t every : {256ull, 1024ull}) {
      for (const int jobs : {1, 2}) {
        ExecutionEngine eng(test_config(), EngineOptions{jobs});
        for (std::size_t l = 0; l < g.captures.size(); ++l) {
          Snapshots snaps;
          const ReplayCheckpoint ck = collecting(snaps, every);
          const RunReport r = eng.replay(g.wc.kernel, g.captures[l], &ck);
          EXPECT_EQ(fingerprint(r), g.goldens[l])
              << name << " launch " << l << " every=" << every
              << " jobs=" << jobs;
          EXPECT_FALSE(snaps.abort_snapshot);
          if (l == 0) {
            EXPECT_FALSE(snaps.states.empty()) << name;
          }
        }
      }
    }
  }
}

TEST(Checkpoint, ResumeFromEverySnapshotIsBitIdentical) {
  for (const char* name : kKernels) {
    GoldenRun g = golden_run(name, 0.1);
    // Snapshot the first launch densely, then resume from each snapshot.
    Snapshots snaps;
    const ReplayCheckpoint ck = collecting(snaps, 256);
    ExecutionEngine writer(test_config(), EngineOptions{1});
    writer.replay(g.wc.kernel, g.captures[0], &ck);
    ASSERT_FALSE(snaps.states.empty()) << name;
    for (std::size_t s = 0; s < snaps.states.size(); ++s) {
      for (const int jobs : {1, 2}) {
        ExecutionEngine eng(test_config(), EngineOptions{jobs});
        ReplayCheckpoint rck;
        rck.resume = &snaps.states[s];
        const RunReport r = eng.replay(g.wc.kernel, g.captures[0], &rck);
        EXPECT_EQ(fingerprint(r), g.goldens[0])
            << name << " snapshot " << s << " (cycle " << snaps.cycles[s]
            << ") jobs=" << jobs;
      }
    }
  }
}

TEST(Checkpoint, AbortSnapshotResumesToBitIdenticalCompletion) {
  for (const char* name : kKernels) {
    GoldenRun g = golden_run(name, 0.1);
    // Cut the replay short mid-kernel; the abort-time snapshot must resume
    // to exactly the uninterrupted result, including the dense timeline.
    EngineOptions cut{1};
    cut.watchdog_cycles = 300;
    ExecutionEngine aborted(test_config(), cut);
    Snapshots snaps;
    const ReplayCheckpoint ck = collecting(snaps, 0);  // abort-only snapshot
    const RunReport partial = aborted.replay(g.wc.kernel, g.captures[0], &ck);
    ASSERT_TRUE(partial.aborted()) << name;
    ASSERT_TRUE(snaps.abort_snapshot) << name;
    ASSERT_EQ(snaps.states.size(), 1u) << name;
    for (const int jobs : {1, 2}) {
      ExecutionEngine eng(test_config(), EngineOptions{jobs});
      ReplayCheckpoint rck;
      rck.resume = &snaps.states[0];
      const RunReport r = eng.replay(g.wc.kernel, g.captures[0], &rck);
      EXPECT_EQ(fingerprint(r), g.goldens[0]) << name << " jobs=" << jobs;
    }
  }
}

TEST(Checkpoint, WatchdogPartialReportIsTheSameWithAndWithoutCheckpoints) {
  // The cycle budget stops every SM at the first state with now() >= budget
  // whether or not checkpoint hooks are attached, so a partial report must
  // not depend on them: not on a sink, not on a cadence whose boundaries
  // fall before, at or after the budget, and not on --jobs.
  const GpuConfig cfg = test_config();
  for (const char* name : kKernels) {
    workloads::PreparedCase wc = workloads::prepare_case(name, 0.1);
    const GridCapture cap =
        capture_grid(cfg, wc.kernel, wc.launches[0], *wc.mem);
    for (const std::uint64_t budget :
         {1ull, 7ull, 64ull, 300ull, 5000ull, 1ull << 30}) {
      for (const int jobs : {1, 2}) {
        EngineOptions opts{jobs};
        opts.watchdog_cycles = budget;
        ExecutionEngine eng(cfg, opts);
        const RunReport without = eng.replay(wc.kernel, cap);
        // Guard against a vacuous pass: the smallest budget cuts the run
        // short, the largest lets it finish.
        if (budget == 1 || budget == 1ull << 30) {
          EXPECT_EQ(without.aborted(), budget == 1) << name;
        }
        for (const std::uint64_t every : {0ull, 128ull}) {
          Snapshots snaps;
          const ReplayCheckpoint ck = collecting(snaps, every);
          EXPECT_EQ(fingerprint(eng.replay(wc.kernel, cap, &ck)),
                    fingerprint(without))
              << name << " budget=" << budget << " jobs=" << jobs
              << " every=" << every;
        }
      }
    }
  }
}

TEST(Checkpoint, ResumeRejectsMismatchedWorkload) {
  GoldenRun a = golden_run("pathfinder", 0.1);
  GoldenRun b = golden_run("sad_K1", 0.1);
  Snapshots snaps;
  const ReplayCheckpoint ck = collecting(snaps, 256);
  ExecutionEngine writer(test_config(), EngineOptions{1});
  writer.replay(a.wc.kernel, a.captures[0], &ck);
  ASSERT_FALSE(snaps.states.empty());
  ExecutionEngine eng(test_config(), EngineOptions{1});
  ReplayCheckpoint rck;
  rck.resume = &snaps.states[0];
  try {
    eng.replay(b.wc.kernel, b.captures[0], &rck);
    FAIL() << "resume against a different workload was accepted";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kSnapshotInvalid);
  }
}

TEST(Checkpoint, EveryPredictorPolicyResumesBitIdentically) {
  // The per-policy variant of the resume guarantee: each registered policy
  // serializes its own state (MRU table, TAGE rings/tables, static pattern),
  // and a resumed run must be bit-identical to an uninterrupted one — the
  // same contract the CRF has always had. CRF itself is covered by every
  // other test in this file.
  for (const char* spec : {"mru", "tage", "static,pattern=21"}) {
    GpuConfig cfg = test_config();
    cfg.predictor = spec::PredictorConfig::parse(spec);
    workloads::PreparedCase wc = workloads::prepare_case("pathfinder", 0.1);
    const GridCapture cap =
        capture_grid(cfg, wc.kernel, wc.launches[0], *wc.mem);
    ExecutionEngine plain(cfg, EngineOptions{1});
    const std::string golden = fingerprint(plain.replay(wc.kernel, cap));

    Snapshots snaps;
    const ReplayCheckpoint ck = collecting(snaps, 256);
    ExecutionEngine writer(cfg, EngineOptions{1});
    EXPECT_EQ(fingerprint(writer.replay(wc.kernel, cap, &ck)), golden)
        << spec;
    ASSERT_FALSE(snaps.states.empty()) << spec;
    for (std::size_t s = 0; s < snaps.states.size(); s += 2) {
      for (const int jobs : {1, 2}) {
        ExecutionEngine eng(cfg, EngineOptions{jobs});
        ReplayCheckpoint rck;
        rck.resume = &snaps.states[s];
        EXPECT_EQ(fingerprint(eng.replay(wc.kernel, cap, &rck)), golden)
            << spec << " snapshot " << s << " jobs=" << jobs;
      }
    }

    // A snapshot taken under this policy must refuse to restore into an
    // engine configured for a different one — predictor state layouts are
    // policy-specific, so a silent cross-load would be garbage.
    ExecutionEngine other(test_config(), EngineOptions{1});  // default crf
    ReplayCheckpoint rck;
    rck.resume = &snaps.states[0];
    try {
      other.replay(wc.kernel, cap, &rck);
      FAIL() << "a " << spec << " snapshot restored into a crf engine";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kSnapshotInvalid) << spec;
    }
  }
}

TEST(Checkpoint, CorruptedEngineStateIsRejectedNotUndefined) {
  GoldenRun g = golden_run("pathfinder", 0.1);
  Snapshots snaps;
  const ReplayCheckpoint ck = collecting(snaps, 256);
  ExecutionEngine writer(test_config(), EngineOptions{1});
  writer.replay(g.wc.kernel, g.captures[0], &ck);
  ASSERT_FALSE(snaps.states.empty());
  const std::string& good = snaps.states[0];

  const auto expect_rejected = [&](std::string state, const char* what) {
    // A flip that survives the structural checks can still yield a legal-
    // looking but *deadlocked* state (e.g. a warp cursor moved past its
    // barrier) — detecting that is the liveness watchdog's job, so give the
    // replay the same budget a hardened caller would.
    EngineOptions guarded{1};
    guarded.watchdog_cycles = 1u << 20;
    ExecutionEngine eng(test_config(), guarded);
    ReplayCheckpoint rck;
    rck.resume = &state;
    try {
      const RunReport r = eng.replay(g.wc.kernel, g.captures[0], &rck);
      // A flipped bit in a counter value cannot always be *detected* here
      // (the file-level CRC catches it; this is the post-CRC layer), but it
      // must never crash: it completes, aborts on the watchdog, or throws
      // the typed error.
      (void)r;
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kSnapshotInvalid) << what;
    } catch (const std::exception& e) {
      FAIL() << what << ": non-typed exception " << e.what();
    }
  };

  // Truncations at every length must be caught by bounds-checked reads.
  for (std::size_t len = 0; len < good.size();
       len += (good.size() / 97) + 1) {
    expect_rejected(good.substr(0, len), "truncation");
  }
  // Bit-flips across the state: sampled stride keeps the test fast while
  // still hitting every serialized section (header, per-SM blocks, tails).
  for (std::size_t i = 0; i < good.size(); i += (good.size() / 211) + 1) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    expect_rejected(bad, "bit-flip");
  }
}

}  // namespace
}  // namespace st2::sim

// The trace cache's contract (src/tracecache/tracecache.hpp):
//
//  - warm hits are bit-identical to cold captures — same RunReport::to_json
//    bytes, same device memory — across workloads × {baseline, st2} ×
//    --jobs {1, 2};
//  - a serialized capture round-trips exactly, and a rebound capture (any
//    SM count) replays identically to a direct capture;
//  - EVERY possible corruption of a cache file — exhaustive single-bit
//    flips and truncations, plus handcrafted valid-CRC-but-semantically-bad
//    payloads and cross-workload file swaps — is a clean miss: typed
//    rejection, recapture, correct results, never UB;
//  - the memo's byte bound evicts without affecting results.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/isa/builder.hpp"
#include "src/sim/adder_ops.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/error.hpp"
#include "src/snapshot/crc32.hpp"
#include "src/snapshot/snapshot.hpp"
#include "src/tracecache/tracecache.hpp"
#include "src/workloads/workload.hpp"

namespace st2::tracecache {
namespace {

namespace fs = std::filesystem;

using isa::KernelBuilder;
using isa::Reg;

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool same_bytes(std::span<const std::uint8_t> a,
                std::span<const std::uint8_t> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

class TraceCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("st2_tracecache_test_" +
             std::to_string(static_cast<unsigned>(::getpid()))))
               .string();
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir_;
};

/// Tiny two-launch-free workload for the corruption tests: one block, a few
/// adds, one store per lane — so its serialized capture is small enough to
/// corrupt exhaustively.
isa::Kernel tiny_kernel() {
  KernelBuilder kb("tiny");
  const Reg out = kb.param(0);
  const Reg acc = kb.imm(3);
  kb.for_range(kb.imm(0), kb.imm(2), 1, [&](Reg i) {
    kb.iadd_to(acc, acc, i);
    kb.iadd_to(acc, acc, kb.gtid());
  });
  kb.st_global(kb.element_addr(out, kb.gtid(), 8), acc);
  kb.exit();
  return kb.build();
}

struct TinyCase {
  isa::Kernel kernel = tiny_kernel();
  sim::LaunchConfig launch;
  sim::GlobalMemory mem;
  std::vector<std::uint8_t> input;  ///< pre-launch image, for resets

  TinyCase() {
    mem = sim::GlobalMemory{};
    const std::uint64_t out = mem.alloc(32 * 8);
    launch = sim::launch_1d(32, 32, {out});
    const std::span<const std::uint8_t> b = mem.bytes();
    input.assign(b.begin(), b.end());
  }
  void reset() { mem.restore_bytes(input); }
};

// ---------------------------------------------------------------------------
// Round trip + rebind
// ---------------------------------------------------------------------------

TEST(TraceCacheSerial, RoundTripReplaysIdentically) {
  workloads::PreparedCase pc = workloads::prepare_case("sad_K1", 0.15);
  const sim::GpuConfig cfg = sim::GpuConfig::st2();
  const std::string key =
      capture_key(cfg, pc.kernel, pc.launches.at(0), *pc.mem);

  // Canonical capture: single-SM, flat block order.
  sim::GpuConfig one = cfg;
  one.num_sms = 1;
  sim::GridCapture direct =
      sim::capture_grid(one, pc.kernel, pc.launches.at(0), *pc.mem);
  CanonicalCapture cap;
  cap.blocks = std::move(direct.per_sm.at(0).blocks);
  const std::span<const std::uint8_t> fin = pc.mem->bytes();
  cap.final_mem.assign(fin.begin(), fin.end());

  const std::string payload = serialize_capture(cap, key);
  const CanonicalCapture back =
      deserialize_capture(payload, key, pc.kernel, "round trip");

  ASSERT_EQ(back.blocks.size(), cap.blocks.size());
  EXPECT_TRUE(same_bytes(back.final_mem, cap.final_mem));

  // Replay both under the full chip; counters must be bit-identical.
  sim::GridCapture a, b;
  a.per_sm.resize(static_cast<std::size_t>(cfg.num_sms));
  b.per_sm.resize(static_cast<std::size_t>(cfg.num_sms));
  for (std::size_t i = 0; i < cap.blocks.size(); ++i) {
    a.per_sm[i % a.per_sm.size()].blocks.push_back(cap.blocks[i]);
    b.per_sm[i % b.per_sm.size()].blocks.push_back(back.blocks[i]);
  }
  sim::ExecutionEngine eng(cfg, sim::EngineOptions{1});
  const sim::RunReport ra = eng.replay(pc.kernel, a);
  const sim::RunReport rb = eng.replay(pc.kernel, b);
  EXPECT_EQ(ra.chip, rb.chip);
  EXPECT_EQ(ra.to_json("sad_K1", 0), rb.to_json("sad_K1", 0));
}

TEST(TraceCacheRebind, MatchesDirectCaptureForAnySmCount) {
  for (const int sms : {4, 7, 20}) {
    SCOPED_TRACE(sms);
    sim::GpuConfig cfg = sim::GpuConfig::st2();
    cfg.num_sms = sms;

    workloads::PreparedCase direct_pc =
        workloads::prepare_case("kmeans_K1", 0.15);
    workloads::PreparedCase cached_pc =
        workloads::prepare_case("kmeans_K1", 0.15);
    TraceCache cache;  // memo-only
    sim::ExecutionEngine eng(cfg, sim::EngineOptions{1});
    for (std::size_t li = 0; li < direct_pc.launches.size(); ++li) {
      const sim::GridCapture want = sim::capture_grid(
          cfg, direct_pc.kernel, direct_pc.launches[li], *direct_pc.mem);
      const sim::GridCapture got = cache.provide(
          cfg, cached_pc.kernel, cached_pc.launches[li], *cached_pc.mem);
      const sim::RunReport rw = eng.replay(direct_pc.kernel, want);
      const sim::RunReport rg = eng.replay(cached_pc.kernel, got);
      EXPECT_EQ(rw.chip, rg.chip);
      EXPECT_EQ(rw.to_json("kmeans_K1", static_cast<int>(li)),
                rg.to_json("kmeans_K1", static_cast<int>(li)));
    }
    EXPECT_TRUE(same_bytes(direct_pc.mem->bytes(), cached_pc.mem->bytes()));
    EXPECT_TRUE(cached_pc.validate(*cached_pc.mem));
  }
}

// ---------------------------------------------------------------------------
// Golden warm vs cold bit-identity
// ---------------------------------------------------------------------------

TEST(TraceCacheGolden, WarmVsColdBitIdenticalAcrossModesAndJobs) {
  for (const char* name : {"sad_K1", "pathfinder", "kmeans_K1"}) {
    for (const bool st2 : {false, true}) {
      for (const int jobs : {1, 2}) {
        SCOPED_TRACE(std::string(name) + (st2 ? " st2" : " base") +
                     " jobs=" + std::to_string(jobs));
        sim::GpuConfig cfg =
            st2 ? sim::GpuConfig::st2() : sim::GpuConfig::baseline();
        cfg.num_sms = 8;
        sim::EngineOptions opts;
        opts.jobs = jobs;

        // Reference: no cache at all.
        workloads::PreparedCase ref = workloads::prepare_case(name, 0.15);
        sim::ExecutionEngine plain(cfg, opts);
        std::vector<std::string> want;
        for (std::size_t li = 0; li < ref.launches.size(); ++li) {
          want.push_back(plain.run(ref.kernel, ref.launches[li], *ref.mem)
                             .to_json(name, static_cast<int>(li)));
        }
        EXPECT_TRUE(ref.validate(*ref.mem));

        TraceCache cache;  // memo-only
        sim::EngineOptions copts = opts;
        copts.capture_provider = &cache;
        sim::ExecutionEngine eng(cfg, copts);

        // Cold pass: every launch is a miss.
        workloads::PreparedCase cold = workloads::prepare_case(name, 0.15);
        std::vector<std::string> got_cold;
        for (std::size_t li = 0; li < cold.launches.size(); ++li) {
          got_cold.push_back(
              eng.run(cold.kernel, cold.launches[li], *cold.mem)
                  .to_json(name, static_cast<int>(li)));
        }
        EXPECT_EQ(cache.stats().misses, cold.launches.size());
        EXPECT_EQ(cache.stats().hits(), 0u);

        // Warm pass: every launch hits the memo.
        workloads::PreparedCase warm = workloads::prepare_case(name, 0.15);
        std::vector<std::string> got_warm;
        for (std::size_t li = 0; li < warm.launches.size(); ++li) {
          got_warm.push_back(
              eng.run(warm.kernel, warm.launches[li], *warm.mem)
                  .to_json(name, static_cast<int>(li)));
        }
        EXPECT_EQ(cache.stats().misses, cold.launches.size());
        EXPECT_EQ(cache.stats().memo_hits, warm.launches.size());

        EXPECT_EQ(want, got_cold);
        EXPECT_EQ(want, got_warm);
        EXPECT_TRUE(same_bytes(ref.mem->bytes(), cold.mem->bytes()));
        EXPECT_TRUE(same_bytes(ref.mem->bytes(), warm.mem->bytes()));
        EXPECT_TRUE(cold.validate(*cold.mem));
        EXPECT_TRUE(warm.validate(*warm.mem));
      }
    }
  }
}

TEST(TraceCacheGolden, PopulateFeedsObserverAndWarmsTheCache) {
  const sim::GpuConfig cfg = sim::GpuConfig::st2();
  workloads::PreparedCase ref = workloads::prepare_case("sad_K1", 0.15);
  sim::ExecutionEngine plain(cfg, sim::EngineOptions{1});
  std::vector<std::string> want;
  for (std::size_t li = 0; li < ref.launches.size(); ++li) {
    want.push_back(plain.run(ref.kernel, ref.launches[li], *ref.mem)
                       .to_json("sad_K1", static_cast<int>(li)));
  }

  // Count the records the observer sees against plain trace mode.
  workloads::PreparedCase tr = workloads::prepare_case("sad_K1", 0.15);
  std::uint64_t trace_records = 0;
  for (const auto& lc : tr.launches) {
    sim::trace_run(tr.kernel, lc, *tr.mem,
                   [&](const sim::ExecRecord&) { ++trace_records; });
  }

  TraceCache cache;
  workloads::PreparedCase pop = workloads::prepare_case("sad_K1", 0.15);
  std::uint64_t populate_records = 0;
  for (const auto& lc : pop.launches) {
    cache.populate(cfg, pop.kernel, lc, *pop.mem,
                   [&](const sim::ExecRecord&) { ++populate_records; });
  }
  EXPECT_EQ(populate_records, trace_records);
  EXPECT_TRUE(same_bytes(ref.mem->bytes(), pop.mem->bytes()));

  // A later timing run consumes the populated entries without recapturing.
  sim::EngineOptions copts;
  copts.jobs = 1;
  copts.capture_provider = &cache;
  sim::ExecutionEngine eng(cfg, copts);
  workloads::PreparedCase run = workloads::prepare_case("sad_K1", 0.15);
  std::vector<std::string> got;
  for (std::size_t li = 0; li < run.launches.size(); ++li) {
    got.push_back(eng.run(run.kernel, run.launches[li], *run.mem)
                      .to_json("sad_K1", static_cast<int>(li)));
  }
  EXPECT_EQ(want, got);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().memo_hits, run.launches.size());
  EXPECT_TRUE(run.validate(*run.mem));
}

// ---------------------------------------------------------------------------
// Memo bound
// ---------------------------------------------------------------------------

TEST(TraceCacheMemo, EvictionBoundedMemoStaysCorrect) {
  const sim::GpuConfig cfg = sim::GpuConfig::st2();

  // Measure one entry's footprint, then bound the memo just above it so a
  // second distinct entry must evict the first.
  std::size_t one_entry;
  {
    TraceCache probe;
    workloads::PreparedCase pc = workloads::prepare_case("sad_K1", 0.15);
    (void)probe.provide(cfg, pc.kernel, pc.launches.at(0), *pc.mem);
    one_entry = static_cast<std::size_t>(probe.stats().memo_bytes);
    ASSERT_GT(one_entry, 0u);
  }

  CacheOptions opts;
  opts.memo_max_bytes = one_entry + one_entry / 2;
  TraceCache cache(opts);
  workloads::PreparedCase a1 = workloads::prepare_case("sad_K1", 0.15);
  workloads::PreparedCase b = workloads::prepare_case("kmeans_K1", 0.15);
  workloads::PreparedCase a2 = workloads::prepare_case("sad_K1", 0.15);

  (void)cache.provide(cfg, a1.kernel, a1.launches.at(0), *a1.mem);
  (void)cache.provide(cfg, b.kernel, b.launches.at(0), *b.mem);
  const std::uint64_t evicted = cache.stats().evictions;

  // Either kmeans' entry displaced sad's (bound hit) or both fit; in the
  // displaced case the re-request is a clean miss with correct results.
  const sim::GridCapture again =
      cache.provide(cfg, a2.kernel, a2.launches.at(0), *a2.mem);
  workloads::PreparedCase want = workloads::prepare_case("sad_K1", 0.15);
  const sim::GridCapture direct =
      sim::capture_grid(cfg, want.kernel, want.launches.at(0), *want.mem);
  sim::ExecutionEngine eng(cfg, sim::EngineOptions{1});
  EXPECT_EQ(eng.replay(want.kernel, direct).chip,
            eng.replay(a2.kernel, again).chip);
  EXPECT_TRUE(same_bytes(want.mem->bytes(), a2.mem->bytes()));
  EXPECT_LE(cache.stats().memo_bytes, opts.memo_max_bytes);
  if (evicted > 0) {
    EXPECT_EQ(cache.stats().misses, 3u);  // third request recaptured
  }
}

// ---------------------------------------------------------------------------
// Hostile cache files
// ---------------------------------------------------------------------------

class TraceCacheHostileTest : public TraceCacheTest {
 protected:
  /// Runs `provide` against the (possibly corrupted) disk entry and
  /// requires a correct capture + correct memory, no matter what was on
  /// disk. Memoization is off so every call exercises the disk path.
  void expect_correct_provide(TraceCache& cache, TinyCase& tc,
                              const sim::GpuConfig& cfg,
                              const sim::EventCounters& want_chip,
                              const std::vector<std::uint8_t>& want_mem) {
    tc.reset();
    const sim::GridCapture cap =
        cache.provide(cfg, tc.kernel, tc.launch, tc.mem);
    ASSERT_TRUE(same_bytes(tc.mem.bytes(), want_mem));
    sim::ExecutionEngine eng(cfg, sim::EngineOptions{1});
    ASSERT_EQ(eng.replay(tc.kernel, cap).chip, want_chip);
  }
};

TEST_F(TraceCacheHostileTest, EveryBitFlipAndTruncationIsACleanMiss) {
  const sim::GpuConfig cfg = sim::GpuConfig::st2();
  TinyCase tc;

  CacheOptions opts;
  opts.dir = dir_;
  opts.memo = false;  // force every provide through the disk tier
  TraceCache cache(opts);

  const std::string path = cache.entry_path(cfg, tc.kernel, tc.launch, tc.mem);
  ASSERT_FALSE(path.empty());

  // Cold capture: writes the good entry and yields the reference results.
  const sim::GridCapture cap0 =
      cache.provide(cfg, tc.kernel, tc.launch, tc.mem);
  const std::vector<std::uint8_t> want_mem(tc.mem.bytes().begin(),
                                           tc.mem.bytes().end());
  sim::ExecutionEngine eng(cfg, sim::EngineOptions{1});
  const sim::EventCounters want_chip = eng.replay(tc.kernel, cap0).chip;
  const std::string good = read_file(path);
  ASSERT_FALSE(good.empty());

  // Sanity: the intact file is a disk hit.
  expect_correct_provide(cache, tc, cfg, want_chip, want_mem);
  ASSERT_EQ(cache.stats().disk_hits, 1u);
  ASSERT_EQ(cache.stats().disk_rejects, 0u);

  // Every single-bit corruption anywhere in the file — header, key,
  // streams, memory image — must be rejected and recaptured.
  std::uint64_t rejects = 0;
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      write_file(path, bad);
      expect_correct_provide(cache, tc, cfg, want_chip, want_mem);
      ++rejects;
      ASSERT_EQ(cache.stats().disk_rejects, rejects)
          << "flip at byte " << byte << " bit " << bit
          << " was not rejected";
    }
  }

  // Every truncation length, including the empty file.
  for (std::size_t len = 0; len < good.size(); len += 7) {
    write_file(path, good.substr(0, len));
    expect_correct_provide(cache, tc, cfg, want_chip, want_mem);
    ++rejects;
    ASSERT_EQ(cache.stats().disk_rejects, rejects)
        << "truncation to " << len << " bytes was not rejected";
  }
}

TEST_F(TraceCacheHostileTest, ValidCrcButSemanticallyBadPayloadsAreRejected) {
  const sim::GpuConfig cfg = sim::GpuConfig::st2();
  TinyCase tc;
  const std::string key = capture_key(cfg, tc.kernel, tc.launch, tc.mem);

  // Build the good canonical capture by hand.
  sim::GpuConfig one = cfg;
  one.num_sms = 1;
  one.st2_enabled = true;
  sim::GridCapture direct =
      sim::capture_grid(one, tc.kernel, tc.launch, tc.mem);
  CanonicalCapture good;
  good.blocks = std::move(direct.per_sm.at(0).blocks);
  good.final_mem.assign(tc.mem.bytes().begin(), tc.mem.bytes().end());
  const std::vector<std::uint8_t> want_mem = good.final_mem;
  sim::ExecutionEngine eng(cfg, sim::EngineOptions{1});
  sim::GridCapture rebound;
  rebound.per_sm.resize(static_cast<std::size_t>(cfg.num_sms));
  for (std::size_t bi = 0; bi < good.blocks.size(); ++bi) {
    rebound.per_sm[bi % rebound.per_sm.size()].blocks.push_back(
        good.blocks[bi]);
  }
  const sim::EventCounters want_chip = eng.replay(tc.kernel, rebound).chip;

  // deserialize-level rejections: each tampered capture must throw the
  // typed snapshot error (the CRC layer is bypassed on purpose — these
  // payloads are internally consistent bytes with hostile *semantics*).
  const auto expect_reject = [&](CanonicalCapture mutant, const char* what) {
    const std::string payload = serialize_capture(mutant, key);
    EXPECT_THROW(deserialize_capture(payload, key, tc.kernel, "hostile"),
                 sim::SimError)
        << what;
  };

  // An op's kind is that of the opcode at its pc.
  const auto adder = [](isa::Opcode o) { return sim::adder_slices(o) != 0; };
  const auto global_mem = [](isa::Opcode o) {
    return isa::unit_class(o) == isa::UnitClass::kMem && !isa::is_shared(o);
  };
  // ALU ops outside the adder datapath (moves, shifts) carry no payload.
  const auto plain_alu = [](isa::Opcode o) {
    return isa::unit_class(o) == isa::UnitClass::kAlu &&
           sim::adder_slices(o) == 0;
  };
  const auto is_adder = [&](const sim::TraceOp& op) {
    return adder(tc.kernel.code.at(op.pc).op);
  };
  const auto is_global_mem = [&](const sim::TraceOp& op) {
    return global_mem(tc.kernel.code.at(op.pc).op);
  };
  const auto is_plain_alu = [&](const sim::TraceOp& op) {
    return plain_alu(tc.kernel.code.at(op.pc).op);
  };
  {
    CanonicalCapture m = good;
    for (sim::TraceOp& op : m.blocks.at(0).warps.at(0).ops) {
      if (is_global_mem(op)) {
        op.payload = 1u << 30;  // far outside the line pool
        break;
      }
    }
    expect_reject(std::move(m), "line-pool overrun");
  }
  {
    CanonicalCapture m = good;
    for (sim::TraceOp& op : m.blocks.at(0).warps.at(0).ops) {
      if (is_adder(op)) {
        op.payload = 1u << 30;  // far outside the adder-lane pool
        break;
      }
    }
    expect_reject(std::move(m), "adder-pool overrun");
  }
  // Lane-plane rejections, on the first adder op of warp 0 (the tiny
  // kernel's warps are full, so its lanes are all active) and on lane 0.
  // Its adds are 32-bit integer ops: 4 slices, relevant mask 0x07.
  const auto first_adder = [&](CanonicalCapture& m) -> spec::WarpLanes& {
    sim::WarpStream& ws = m.blocks.at(0).warps.at(0);
    for (const sim::TraceOp& op : ws.ops) {
      if (is_adder(op)) return ws.adder_lanes.at(op.payload);
    }
    ADD_FAILURE() << "the tiny kernel has no adder op";
    return ws.adder_lanes.at(0);
  };
  {
    CanonicalCapture m = good;
    first_adder(m).actual[0] = 0x08;  // a carry above the add's slices
    expect_reject(std::move(m), "actual outside relevant");
  }
  {
    CanonicalCapture m = good;
    first_adder(m).peek_mask[0] = 0x10;  // a certain carry above them
    expect_reject(std::move(m), "peek mask outside relevant");
  }
  {
    CanonicalCapture m = good;
    sim::WarpStream& ws = m.blocks.at(0).warps.at(0);
    for (sim::TraceOp& op : ws.ops) {
      if (is_adder(op)) {
        op.active_mask &= ~1u;  // lane 0's bytes now belong to no lane
        ASSERT_NE(op.active_mask, 0u);
        ws.adder_lanes.at(op.payload).actual[0] = 0x01;  // a valid carry
        break;
      }
    }
    expect_reject(std::move(m), "non-zero byte of an inactive lane");
  }
  {
    CanonicalCapture m = good;
    sim::WarpStream& ws = m.blocks.at(0).warps.at(0);
    for (sim::TraceOp& op : ws.ops) {
      if (is_adder(op)) {
        op.payload = static_cast<std::uint32_t>(ws.adder_lanes.size());
        break;
      }
    }
    expect_reject(std::move(m), "adder payload one past the pool");
  }
  // Ops checked against the kernel: replay indexes its per-PC tables by
  // pc, and takes the op's kind, and an adder op's relevant mask, from the
  // opcode there. A pc rewritten to another valid pc changes the op's kind,
  // and its payload is checked as the new kind's.
  {
    CanonicalCapture m = good;
    m.blocks.at(0).warps.at(0).ops.at(0).pc =
        static_cast<std::uint32_t>(tc.kernel.code.size());
    expect_reject(std::move(m), "pc one past the kernel");
  }
  const auto first_pc = [&](auto&& kind) {
    for (std::uint32_t pc = 0; pc < tc.kernel.code.size(); ++pc) {
      if (kind(tc.kernel.code[pc].op)) return pc;
    }
    ADD_FAILURE() << "the tiny kernel has no such opcode";
    return std::uint32_t{0};
  };
  const std::uint32_t adder_pc = first_pc(adder);
  const std::uint32_t global_pc = first_pc(global_mem);
  {
    CanonicalCapture m = good;
    sim::WarpStream& ws = m.blocks.at(0).warps.at(0);
    for (sim::TraceOp& op : ws.ops) {
      if (is_plain_alu(op)) {
        op.pc = adder_pc;
        op.payload = static_cast<std::uint32_t>(ws.adder_lanes.size());
        break;
      }
    }
    expect_reject(std::move(m),
                  "non-adder op moved to an adder pc, payload past the pool");
  }
  {
    CanonicalCapture m = good;
    sim::WarpStream& ws = m.blocks.at(0).warps.at(0);
    ASSERT_FALSE(ws.lines.empty());
    for (sim::TraceOp& op : ws.ops) {
      if (is_plain_alu(op)) {
        op.pc = global_pc;
        op.payload = static_cast<std::uint32_t>(ws.lines.size() - 1);
        op.mem_lines = 2;  // the second line is one past the pool
        break;
      }
    }
    expect_reject(std::move(m),
                  "ALU op moved to a global memory pc, lines past the pool");
  }
  {
    CanonicalCapture m = good;
    m.blocks.at(0).warps.at(0).ops.at(0).active_mask = 0;
    expect_reject(std::move(m), "no active lanes");
  }
  // Wrong embedded key: valid payload for a different identity.
  {
    const std::string payload = serialize_capture(good, key + "-other");
    EXPECT_THROW(deserialize_capture(payload, key, tc.kernel, "hostile"),
                 sim::SimError);
  }

  // provide-level rejections through a CRC-valid file: wrong block count
  // and wrong memory size slip past deserialize (they are structurally
  // fine) and must be caught by the launch-shape check.
  CacheOptions opts;
  opts.dir = dir_;
  opts.memo = false;
  TraceCache cache(opts);
  tc.reset();  // entry_path keys on the *pre-launch* memory image
  const std::string path = cache.entry_path(cfg, tc.kernel, tc.launch, tc.mem);
  const std::uint64_t key_hash =
      snapshot::fnv1a64(std::string_view(key));

  {
    CanonicalCapture m = good;
    m.blocks.push_back(m.blocks.back());  // one block too many
    snapshot::write_snapshot(path, key_hash, serialize_capture(m, key));
    expect_correct_provide(cache, tc, cfg, want_chip, want_mem);
    EXPECT_EQ(cache.stats().disk_rejects, 1u);
  }
  {
    CanonicalCapture m = good;
    m.final_mem.push_back(0);  // memory image larger than the device's
    snapshot::write_snapshot(path, key_hash, serialize_capture(m, key));
    expect_correct_provide(cache, tc, cfg, want_chip, want_mem);
    EXPECT_EQ(cache.stats().disk_rejects, 2u);
  }
}

TEST_F(TraceCacheHostileTest, CrossWorkloadFileSwapIsRejected) {
  const sim::GpuConfig cfg = sim::GpuConfig::st2();
  CacheOptions opts;
  opts.dir = dir_;
  opts.memo = false;
  TraceCache writer(opts);

  // Cache entries for two different workloads' first launches.
  workloads::PreparedCase a = workloads::prepare_case("sad_K1", 0.15);
  workloads::PreparedCase b0 = workloads::prepare_case("kmeans_K1", 0.15);
  const std::string path_a =
      writer.entry_path(cfg, a.kernel, a.launches.at(0), *a.mem);
  const std::string path_b =
      writer.entry_path(cfg, b0.kernel, b0.launches.at(0), *b0.mem);
  ASSERT_NE(path_a, path_b);
  (void)writer.provide(cfg, a.kernel, a.launches.at(0), *a.mem);
  (void)writer.provide(cfg, b0.kernel, b0.launches.at(0), *b0.mem);

  // Reference results for B's first launch.
  workloads::PreparedCase ref = workloads::prepare_case("kmeans_K1", 0.15);
  const sim::GridCapture want = sim::capture_grid(
      cfg, ref.kernel, ref.launches.at(0), *ref.mem);
  sim::ExecutionEngine eng(cfg, sim::EngineOptions{1});
  const sim::EventCounters want_chip = eng.replay(ref.kernel, want).chip;

  // Swap A's (CRC-intact, wrong-identity) file onto B's path. The key hash
  // in the header differs, so the snapshot layer itself rejects the load —
  // and even a colliding hash would die on the embedded key string.
  fs::copy_file(path_a, path_b, fs::copy_options::overwrite_existing);
  TraceCache reader(opts);
  workloads::PreparedCase b = workloads::prepare_case("kmeans_K1", 0.15);
  const sim::GridCapture got =
      reader.provide(cfg, b.kernel, b.launches.at(0), *b.mem);
  EXPECT_EQ(reader.stats().disk_rejects, 1u);
  EXPECT_EQ(reader.stats().misses, 1u);
  EXPECT_EQ(eng.replay(b.kernel, got).chip, want_chip);
  EXPECT_TRUE(same_bytes(ref.mem->bytes(), b.mem->bytes()));
}

// ---------------------------------------------------------------------------
// Concurrency (run under TSan in CI): the serve daemon shares one cache
// across its worker pool, so provide() must be safe — and still correct —
// when hammered from many threads with a memo bound tight enough to force
// constant evictions and a disk tier behind it. Every thread checks the full
// contract on every call: restored memory and replayed counters must equal
// the serial cold-capture reference regardless of which tier answered.
// ---------------------------------------------------------------------------

TEST(TraceCacheConcurrent, HammerSharedCacheWithEvictionsAndDiskTier) {
  const fs::path dir = fs::temp_directory_path() /
                       ("st2_tc_hammer_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const sim::GpuConfig cfg = sim::GpuConfig::st2();
  const char* kernels[] = {"sad_K1", "kmeans_K1"};

  struct Ref {
    sim::EventCounters chip;
    std::vector<std::uint8_t> mem;
  };
  Ref refs[2];
  std::size_t combined_bytes = 0;
  {
    TraceCache probe;
    for (int k = 0; k < 2; ++k) {
      workloads::PreparedCase pc = workloads::prepare_case(kernels[k], 0.15);
      const sim::GridCapture cap =
          probe.provide(cfg, pc.kernel, pc.launches.at(0), *pc.mem);
      sim::ExecutionEngine eng(cfg, sim::EngineOptions{1});
      refs[k].chip = eng.replay(pc.kernel, cap).chip;
      const auto bytes = pc.mem->bytes();
      refs[k].mem.assign(bytes.begin(), bytes.end());
    }
    combined_bytes = static_cast<std::size_t>(probe.stats().memo_bytes);
    ASSERT_GT(combined_bytes, 1u);
  }

  CacheOptions opts;
  opts.dir = dir.string();
  // One byte below the two entries' combined footprint: each fits alone,
  // both never coexist — every alternation evicts, so the hammer exercises
  // insert/evict/lookup interleavings, not just read sharing.
  opts.memo_max_bytes = combined_bytes - 1;
  TraceCache cache(opts);

  constexpr int kThreads = 4;
  constexpr int kIters = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int k = (t + i) % 2;
        workloads::PreparedCase pc =
            workloads::prepare_case(kernels[k], 0.15);
        const sim::GridCapture cap =
            cache.provide(cfg, pc.kernel, pc.launches.at(0), *pc.mem);
        EXPECT_TRUE(same_bytes(pc.mem->bytes(), refs[k].mem));
        sim::ExecutionEngine eng(cfg, sim::EngineOptions{1});
        EXPECT_EQ(eng.replay(pc.kernel, cap).chip, refs[k].chip);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const CacheStats st = cache.stats();
  EXPECT_EQ(st.hits() + st.misses,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_GT(st.evictions, 0u);
  EXPECT_LE(st.memo_bytes, opts.memo_max_bytes);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Multi-process disk tier: concurrent `st2sim run|serve --trace-cache DIR`
// processes and bench binaries under `BENCH_TRACE_CACHE=DIR` share one cache
// directory, so writers racing the same keys must never leave a torn or
// half-renamed file behind. Two forked
// children (memo off, so every provide hits the disk path) hammer the same
// key set; afterwards the directory must contain no staging litter and a
// fresh cache must read every entry back as a clean disk hit.
// ---------------------------------------------------------------------------

TEST(TraceCacheMultiProcess, ForkedWritersRaceTheSameKeysSafely) {
  const fs::path dir = fs::temp_directory_path() /
                       ("st2_tc_fork_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const sim::GpuConfig cfg = sim::GpuConfig::st2();

  // Three tiny cases with distinct keys (block counts 1..3) — small enough
  // that both children cycle all of them many times per second.
  constexpr int kVariants = 3;
  const auto make_case = [](int blocks) {
    TinyCase tc;
    tc.mem = sim::GlobalMemory{};
    const std::uint64_t out =
        tc.mem.alloc(static_cast<std::uint64_t>(blocks) * 32 * 8);
    tc.launch = sim::launch_1d(blocks * 32, 32, {out});
    const std::span<const std::uint8_t> b = tc.mem.bytes();
    tc.input.assign(b.begin(), b.end());
    return tc;
  };

  // Serial reference per variant, computed before any forking.
  struct Ref {
    sim::EventCounters chip;
    std::vector<std::uint8_t> mem;
  };
  Ref refs[kVariants];
  for (int v = 0; v < kVariants; ++v) {
    TinyCase tc = make_case(v + 1);
    TraceCache probe;  // memo-only
    const sim::GridCapture cap =
        probe.provide(cfg, tc.kernel, tc.launch, tc.mem);
    sim::ExecutionEngine eng(cfg, sim::EngineOptions{1});
    refs[v].chip = eng.replay(tc.kernel, cap).chip;
    const auto bytes = tc.mem.bytes();
    refs[v].mem.assign(bytes.begin(), bytes.end());
  }

  // Pipe barrier: children block on the read end until the parent closes
  // the write end, so both enter the provide loop together.
  int barrier[2];
  ASSERT_EQ(::pipe(barrier), 0);
  pid_t kids[2];
  for (int c = 0; c < 2; ++c) {
    kids[c] = ::fork();
    ASSERT_GE(kids[c], 0);
    if (kids[c] == 0) {
      ::close(barrier[1]);
      char go;
      while (::read(barrier[0], &go, 1) < 0 && errno == EINTR) {
      }
      ::close(barrier[0]);
      CacheOptions opts;
      opts.dir = dir.string();
      opts.memo = false;  // every round re-reads (or re-writes) the disk
      TraceCache cache(opts);
      for (int round = 0; round < 8; ++round) {
        for (int i = 0; i < kVariants; ++i) {
          // Opposite orders per child maximise same-key write/write and
          // read-while-rename races.
          const int v = c == 0 ? (round + i) % kVariants
                               : (kVariants - 1 - (round + i) % kVariants);
          TinyCase tc = make_case(v + 1);
          const sim::GridCapture cap =
              cache.provide(cfg, tc.kernel, tc.launch, tc.mem);
          if (!same_bytes(tc.mem.bytes(), refs[v].mem)) ::_exit(2);
          sim::ExecutionEngine eng(cfg, sim::EngineOptions{1});
          if (!(eng.replay(tc.kernel, cap).chip == refs[v].chip)) ::_exit(3);
        }
      }
      // A child must never have seen a corrupt entry: a torn file from the
      // sibling would surface as a disk reject here.
      ::_exit(cache.stats().disk_rejects == 0 ? 0 : 4);
    }
  }
  ::close(barrier[0]);
  ::close(barrier[1]);  // releases both children at once
  for (const pid_t kid : kids) {
    int status = 0;
    ASSERT_EQ(::waitpid(kid, &status, 0), kid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  // No staging litter: atomic_write_file's unique temp names must all have
  // been renamed or unlinked, whoever lost each race.
  for (const fs::directory_entry& e : fs::recursive_directory_iterator(dir)) {
    EXPECT_EQ(e.path().filename().string().find(".tmp"), std::string::npos)
        << "staging litter left behind: " << e.path();
  }

  // Every key reads back as a clean disk hit with correct contents.
  CacheOptions opts;
  opts.dir = dir.string();
  opts.memo = false;
  TraceCache reader(opts);
  for (int v = 0; v < kVariants; ++v) {
    TinyCase tc = make_case(v + 1);
    const sim::GridCapture cap =
        reader.provide(cfg, tc.kernel, tc.launch, tc.mem);
    EXPECT_TRUE(same_bytes(tc.mem.bytes(), refs[v].mem));
    sim::ExecutionEngine eng(cfg, sim::EngineOptions{1});
    EXPECT_EQ(eng.replay(tc.kernel, cap).chip, refs[v].chip);
  }
  EXPECT_EQ(reader.stats().disk_hits,
            static_cast<std::uint64_t>(kVariants));
  EXPECT_EQ(reader.stats().misses, 0u);
  EXPECT_EQ(reader.stats().disk_rejects, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace st2::tracecache

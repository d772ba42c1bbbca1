// Unit net for the pluggable carry-predictor framework (src/spec/policy.hpp):
// the strict `--spec-policy` grammar, the canonical describe() round-trip,
// per-policy prediction/training behaviour, the CRF-style write-arbitration
// accounting contract every policy must honour, and a digest pin of each
// policy's arbitration winners. The trace-level safety proof lives in
// tests/test_spec_property.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/spec/policy.hpp"

namespace st2::spec {
namespace {

std::unique_ptr<CarryPredictor> make(const std::string& spec,
                                     std::uint64_t seed = 0x1234abcdull) {
  return make_predictor(PredictorConfig::parse(spec), seed);
}

/// Commits one cycle of write-backs, in the order given.
void commit(CarryPredictor& p, std::initializer_list<CarryWrite> writes) {
  p.commit({writes.begin(), writes.size()});
}

// ---- Grammar ---------------------------------------------------------------

TEST(PredictorConfig, RegistryNamesParseAndRoundTrip) {
  for (const char* name : predictor_names()) {
    const PredictorConfig cfg = PredictorConfig::parse(name);
    EXPECT_STREQ(cfg.policy_name(), name);
    EXPECT_EQ(PredictorConfig::parse(cfg.describe()), cfg) << name;
    EXPECT_EQ(make_predictor(cfg, 1)->kind(), cfg.kind) << name;
  }
  EXPECT_EQ(PredictorConfig{}.kind, PredictorKind::kCrf) << "default policy";
}

TEST(PredictorConfig, DescribeIsCanonicalForEveryVariant) {
  const char* const variants[] = {
      "crf", "mru", "static", "static,pattern=21", "tage",
      "tage,tables=2,entries=64,minhist=4", "tage,minhist=8",
  };
  for (const char* v : variants) {
    const PredictorConfig cfg = PredictorConfig::parse(v);
    EXPECT_EQ(PredictorConfig::parse(cfg.describe()), cfg) << v;
    EXPECT_EQ(PredictorConfig::parse(cfg.describe()).describe(),
              cfg.describe())
        << v;
  }
}

TEST(PredictorConfig, MalformedSpecsThrowTypedInvalidArgument) {
  const char* const bad[] = {
      "",                            // empty
      "bogus",                       // unknown policy
      "CRF",                         // names are case-sensitive
      "crf,pattern=1",               // key for the wrong policy
      "mru,entries=64",              // key for the wrong policy
      "static,pattern=128",          // pattern out of 7-bit range
      "static,pattern=-1",           // not an unsigned decimal
      "static,pattern=",             // missing value
      "static,pattern",              // missing '='
      "static,pattern=1,pattern=2",  // duplicate key
      "tage,tables=0",               // below range
      "tage,tables=7",               // above range
      "tage,entries=100",            // not a power of two
      "tage,entries=8",              // below range
      "tage,entries=2048",           // above range
      "tage,minhist=0",              // below range
      "tage,minhist=33",             // above range
      "tage,tables=6,minhist=4",     // longest length overflows the ring
      "tage,nope=1",                 // unknown key
      "static,pattern=999999999999", // oversized literal
      "crf,",                        // trailing separator
  };
  for (const char* spec : bad) {
    EXPECT_THROW((void)PredictorConfig::parse(spec), std::invalid_argument)
        << "'" << spec << "' was accepted";
  }
}

TEST(PredictorConfig, TableBytesMatchTheModeledGeometries) {
  EXPECT_EQ(PredictorConfig::parse("crf").table_bytes_per_sm(), 448)
      << "the paper's 16 rows x 32 lanes x 7 bits";
  EXPECT_EQ(PredictorConfig::parse("mru").table_bytes_per_sm(), 28)
      << "32 lanes x 7 bits";
  EXPECT_EQ(PredictorConfig::parse("static").table_bytes_per_sm(), 1)
      << "one hard-wired pattern";
  // TAGE: tables * entries * (row + tag/valid/useful bits) + base + ring.
  EXPECT_GT(PredictorConfig::parse("tage").table_bytes_per_sm(), 448);
  EXPECT_LT(
      PredictorConfig::parse("tage,tables=1,entries=16,minhist=1")
          .table_bytes_per_sm(),
      PredictorConfig::parse("tage,tables=6,entries=1024,minhist=1")
          .table_bytes_per_sm());
}

// ---- Shared behavioural contract ------------------------------------------

TEST(CarryPredictor, ArbitrationAccountingHoldsForEveryPolicy) {
  for (const char* name : predictor_names()) {
    const auto p = make(name);
    (void)p->read_row(0x40);
    // Two same-cell writers and one distinct-cell writer in one cycle:
    // exactly one of the pair may win, the third always lands.
    commit(*p, {{0x40, 3, 0x11}, {0x40, 3, 0x22}, {0x40, 5, 0x33}});
    EXPECT_EQ(p->lane_writes(), 2u) << name;
    EXPECT_EQ(p->write_conflicts(), 1u) << name;
    EXPECT_TRUE(p->entries_valid()) << name;
  }
}

TEST(CarryPredictor, FlipBitKeepsEntriesValidForEveryPolicy) {
  for (const char* name : predictor_names()) {
    const auto p = make(name);
    Xoshiro256 rng(0xfa017ull);
    for (int i = 0; i < 500; ++i) {
      p->flip_bit(0x1000 + 8 * rng.next_below(64),
                  static_cast<int>(rng.next_below(32)),
                  static_cast<int>(rng.next_below(7)));
      ASSERT_TRUE(p->entries_valid()) << name << " after flip " << i;
    }
  }
}

// ---- Per-policy behaviour --------------------------------------------------

TEST(CarryPredictor, MruRemembersTheLastCommittedPatternPerLane) {
  const auto p = make("mru");
  commit(*p, {{0x40, 7, 0x2a}});
  // MRU has no PC index: any PC reads back lane 7's last committed value.
  EXPECT_EQ(p->read_row(0x40)[7], 0x2a);
  EXPECT_EQ(p->read_row(0x9999)[7], 0x2a);
  EXPECT_EQ(p->read_row(0x9999)[6], 0x00) << "untrained lanes stay zero";
  commit(*p, {{0xffff, 7, 0x15}});
  EXPECT_EQ(p->read_row(0x40)[7], 0x15) << "newest write wins";
}

TEST(CarryPredictor, StaticPolicyPredictsThePatternAndNeverTrains) {
  const auto p = make("static,pattern=21");
  for (const std::uint64_t pc : {0x0ull, 0x40ull, 0xfff8ull}) {
    const auto row = p->read_row(pc);
    for (int lane = 0; lane < 32; ++lane) {
      ASSERT_EQ(row[lane], 21) << "pc=" << pc << " lane=" << lane;
    }
  }
  commit(*p, {{0x40, 0, 0x7f}});
  EXPECT_EQ(p->read_row(0x40)[0], 21) << "training must be a no-op";
  EXPECT_EQ(p->lane_writes(), 1u) << "but the write is still accounted";
  // Fault injection still works: the hard-wired pattern is storage too.
  p->flip_bit(0x40, 0, 2);
  EXPECT_EQ(p->read_row(0x40)[0], 21 ^ 4);
  EXPECT_TRUE(p->entries_valid());
}

TEST(CarryPredictor, TageLearnsAStablePatternForAHotPc) {
  const auto p = make("tage,tables=2,entries=64,minhist=2");
  // Steady-state training: one hot PC always resolving to the same carry
  // pattern must be predicted correctly once trained, however the tagged
  // tables allocate.
  for (int i = 0; i < 64; ++i) {
    (void)p->read_row(0x7c0);
    commit(*p, {{0x7c0, 11, 0x4c}});
  }
  EXPECT_EQ(p->read_row(0x7c0)[11], 0x4c);
  EXPECT_TRUE(p->entries_valid());
}

// ---- Arbitration pin -------------------------------------------------------

/// FNV-1a over the little-endian bytes of `v`.
void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
  }
}

TEST(CarryPredictor, ArbitrationDigestIsPinnedPerPolicy) {
  // Pins every policy's same-cell write arbitration: which writer wins
  // each group, and so which RNG draw lands where. A seeded stream of
  // cycles, each of 1-40 writes with forced same-cell collisions, is
  // committed; after every commit the rows of a fixed PC set and both
  // write counters are folded into one digest. The constants were recorded
  // before the arbitration moved into CarryPredictor::commit and must not
  // be edited to follow a code change.
  struct Pin {
    const char* spec;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"crf", 0x7ef6651a0406da32ull},
      {"mru", 0x76a7f8c48caec547ull},
      {"static,pattern=21", 0x243f1d4b8bb04447ull},
      {"tage", 0xc432a76f656e0c1dull},
      {"tage,tables=2,entries=64,minhist=4", 0xa2297b173a102e0aull},
  };
  struct Write {
    std::uint64_t pc;
    int lane;
    std::uint8_t carries;
  };
  for (const Pin& pin : pins) {
    const auto p = make(pin.spec, 0x0a2b17e5ull);
    Xoshiro256 rng(0xd16e57ull);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::vector<Write> writes;
    for (int cycle = 0; cycle < 300; ++cycle) {
      writes.clear();
      const int n = 1 + static_cast<int>(rng.next_below(40));
      for (int k = 0; k < n; ++k) {
        Write w;
        if (k > 0 && rng.next_below(3) == 0) {
          // Forced collision: an earlier writer's PC and lane this cycle.
          w = writes[rng.next_below(writes.size())];
        } else {
          w.pc = 0x1000 + rng.next_below(24);
          w.lane = static_cast<int>(rng.next_below(32));
        }
        w.carries = static_cast<std::uint8_t>(rng.next_below(128));
        writes.push_back(w);
      }
      std::vector<CarryWrite> cycle_writes;
      for (const Write& w : writes) {
        cycle_writes.push_back(CarryWrite{w.pc, w.lane, w.carries});
      }
      p->commit(cycle_writes);
      for (std::uint64_t pc = 0x1000; pc < 0x1000 + 24; ++pc) {
        for (const std::uint8_t e : p->read_row(pc)) fold(h, e);
      }
      fold(h, p->lane_writes());
      fold(h, p->write_conflicts());
    }
    EXPECT_EQ(h, pin.digest)
        << pin.spec << ": digest 0x" << std::hex << h;
  }
}

}  // namespace
}  // namespace st2::spec

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <vector>

#include "src/common/rng.hpp"
#include "src/spec/predictor.hpp"
#include "tests/lattice_configs.hpp"

namespace st2::spec {
namespace {

AddOp make_op(std::uint64_t a, std::uint64_t b, std::uint64_t pc = 0,
              std::uint32_t gtid = 0, std::uint32_t ltid = 0,
              int slices = 8, bool cin = false) {
  AddOp op;
  op.pc = pc;
  op.gtid = gtid;
  op.ltid = ltid;
  op.a = a;
  op.b = b;
  op.cin = cin;
  op.num_slices = slices;
  return op;
}

TEST(Predictor, StaticZeroPredictsNoCarries) {
  CarrySpeculator sp(SpeculationConfig::static_zero());
  const AddOp op = make_op(0x1234, 0x5678);
  const Prediction p = sp.predict(op);
  EXPECT_EQ(p.carries, 0);
  EXPECT_EQ(p.peek_mask, 0);  // no peek in this config
  EXPECT_EQ(p.dynamic_mask, 0x7f);
}

TEST(Predictor, StaticOnePredictsAllCarries) {
  CarrySpeculator sp(SpeculationConfig::static_one());
  const Prediction p = sp.predict(make_op(1, 2, 0, 0, 0, 4));
  EXPECT_EQ(p.carries, 0x7);  // 3 relevant bits for 4 slices
  EXPECT_EQ(p.dynamic_mask, 0x7);
}

TEST(Predictor, PrevLearnsARepeatingPattern) {
  CarrySpeculator sp(SpeculationConfig::prev());
  // 0xFF + 0x01 produces a carry into slice 1 only.
  const AddOp op = make_op(0xFF, 0x01);
  const Prediction p1 = sp.predict(op);
  const SpeculationOutcome o1 = sp.resolve(op, p1);
  EXPECT_TRUE(o1.any_misprediction());  // cold table predicted 0
  // The second occurrence of the same pattern must hit.
  const Prediction p2 = sp.predict(op);
  const SpeculationOutcome o2 = sp.resolve(op, p2);
  EXPECT_FALSE(o2.any_misprediction());
  EXPECT_EQ(p2.carries, o2.actual);
}

TEST(Predictor, ModPcSeparatesInterleavedStreams) {
  // Two instructions with different carry behaviour alternate. Without PC
  // bits they destroy each other's history; with ModPC4 both converge.
  const AddOp carry_op = make_op(0xFF, 0x01, /*pc=*/1);
  const AddOp nocarry_op = make_op(0x01, 0x01, /*pc=*/2);

  CarrySpeculator aliased(SpeculationConfig::prev());
  CarrySpeculator split(SpeculationConfig::prev_modpc_peek(4));
  int aliased_misses = 0, split_misses = 0;
  for (int i = 0; i < 50; ++i) {
    for (const AddOp& op : {carry_op, nocarry_op}) {
      {
        const Prediction p = aliased.predict(op);
        aliased_misses += aliased.resolve(op, p).any_misprediction();
      }
      {
        const Prediction p = split.predict(op);
        split_misses += split.resolve(op, p).any_misprediction();
      }
    }
  }
  EXPECT_LE(split_misses, 2);        // cold start only
  EXPECT_GT(aliased_misses, 50);     // thrashing between patterns
}

TEST(Predictor, GtidScopeIsolatesThreads) {
  CarrySpeculator sp(SpeculationConfig::gtid_prev_modpc4_peek());
  const AddOp t0 = make_op(0xFF, 0x01, 0, /*gtid=*/0);
  const AddOp t1 = make_op(0xFF, 0x01, 0, /*gtid=*/1);
  sp.resolve(t0, sp.predict(t0));  // trains thread 0 only
  // Peek can't certify slice 1 here (0xFF has MSB 1, 0x01 has MSB 0), so
  // thread 1 still mispredicts: no sharing under Gtid scope.
  const Prediction p = sp.predict(t1);
  EXPECT_TRUE(sp.resolve(t1, p).any_misprediction());
}

TEST(Predictor, LtidScopeSharesAcrossWarps) {
  CarrySpeculator sp(SpeculationConfig::ltid_prev_modpc4_peek());
  // Same lane, different global threads (i.e. different warps).
  const AddOp w0 = make_op(0xFF, 0x01, 0, /*gtid=*/7, /*ltid=*/3);
  const AddOp w1 = make_op(0xFF, 0x01, 0, /*gtid=*/39, /*ltid=*/3);
  sp.resolve(w0, sp.predict(w0));
  const Prediction p = sp.predict(w1);
  EXPECT_FALSE(sp.resolve(w1, p).any_misprediction());
}

TEST(Predictor, PeekBitsNeverCountAsMispredictions) {
  CarrySpeculator sp(SpeculationConfig::ltid_prev_modpc4_peek());
  Xoshiro256 rng(31);
  for (int i = 0; i < 20000; ++i) {
    const AddOp op = make_op(rng.next_u64(), rng.next_u64(),
                             rng.next_below(64), 0,
                             static_cast<std::uint32_t>(rng.next_below(32)));
    const Prediction p = sp.predict(op);
    const SpeculationOutcome out = sp.resolve(op, p);
    ASSERT_EQ(out.mispredicted & p.peek_mask, 0);
    ASSERT_EQ(out.mispredicted & ~p.dynamic_mask, 0);
  }
}

TEST(Predictor, RecomputeMaskCoversErrorPropagation) {
  Prediction pred;
  pred.carries = 0;
  pred.peek_mask = 0;
  pred.dynamic_mask = 0x7f;
  // Actual carries 0b0000100: slice 3 mispredicts; slices 3..7 recompute.
  const SpeculationOutcome out = resolve_prediction(pred, 0b0000100, 8);
  EXPECT_EQ(out.mispredicted, 0b0000100);
  EXPECT_EQ(out.recompute_mask, 0b1111100);
  EXPECT_EQ(out.recompute_count(), 5);
}

TEST(Predictor, PeekedSlicesDoNotRecompute) {
  Prediction pred;
  pred.peek_mask = 0b1110000;   // slices 5,6,7 statically certain
  pred.dynamic_mask = 0b0001111;
  pred.carries = 0;
  const SpeculationOutcome out = resolve_prediction(pred, 0b0000001, 8);
  EXPECT_EQ(out.mispredicted, 0b0000001);
  // Slices 1..4 recompute; peeked 5..7 do not.
  EXPECT_EQ(out.recompute_mask, 0b0001111);
}

TEST(Predictor, CorrectPredictionNeedsNoRecompute) {
  Prediction pred;
  pred.dynamic_mask = 0x7f;
  pred.carries = 0b0101010;
  const SpeculationOutcome out = resolve_prediction(pred, 0b0101010, 8);
  EXPECT_FALSE(out.any_misprediction());
  EXPECT_EQ(out.recompute_count(), 0);
}

TEST(Predictor, NarrowOpsOnlyTouchTheirBits) {
  CarrySpeculator sp(SpeculationConfig::prev());
  // Train the full 7-bit entry with an 8-slice op.
  const AddOp wide = make_op(~0ull, 1, 0, 0, 0, 8);
  sp.resolve(wide, sp.predict(wide));
  // A 3-slice (FP32) op then trains only its low 2 bits; the wide op's high
  // bits must survive in the shared entry.
  const AddOp narrow = make_op(0, 0, 0, 0, 0, 3);
  sp.resolve(narrow, sp.predict(narrow));
  const Prediction p = sp.predict(wide);
  EXPECT_EQ(p.carries & 0b1111100, 0b1111100u);
}

TEST(Predictor, XorHashFoldsAllPcBits) {
  CarrySpeculator sp(SpeculationConfig::prev_xorpc_peek(4));
  // PCs 0x00 and 0x11 fold to different keys (0x0 vs 0x1 ^ 0x1 = 0)...
  // verify only that distinct folds learn independently: 0x1 vs 0x2.
  const AddOp a = make_op(0xFF, 0x01, 0x1);
  const AddOp b = make_op(0x01, 0x01, 0x2);
  sp.resolve(a, sp.predict(a));
  sp.resolve(b, sp.predict(b));
  const Prediction pa = sp.predict(a);
  const Prediction pb = sp.predict(b);
  EXPECT_NE(pa.carries & 1, pb.carries & 1);
}

TEST(Predictor, ValhallaBroadcastsOneBit) {
  CarrySpeculator sp(SpeculationConfig::valhalla());
  // A long-chain subtraction result trains the broadcast bit to 1.
  const AddOp sub = make_op(5, ~std::uint64_t{3}, 0, 0, 0, 8, true);  // 5-3
  sp.resolve(sub, sp.predict(sub));
  const Prediction p = sp.predict(make_op(1, 1));
  // All dynamic bits carry the same broadcast value.
  EXPECT_TRUE(p.carries == p.dynamic_mask || p.carries == 0);
  EXPECT_EQ(p.carries, p.dynamic_mask);  // previous chain was long -> 1
}

TEST(Predictor, TableGrowsWithDistinctKeys) {
  CarrySpeculator sp(SpeculationConfig::prev_fullpc_gtid());
  for (std::uint32_t t = 0; t < 10; ++t) {
    for (std::uint64_t pc = 0; pc < 5; ++pc) {
      const AddOp op = make_op(0xFF, 0x01, pc, t);
      sp.resolve(op, sp.predict(op));
    }
  }
  EXPECT_EQ(sp.table_entries(), 50u);

  // Every lattice point against a std::map model of the training rule, over
  // one seeded stream of >= 50k distinct (pc, gtid, ltid) sites: Prev writes
  // on first touch, on a misprediction or always under always_write;
  // VaLHALLA broadcasts on every add; static bases never train. The stream
  // holds Gtid keys that differ only above bit 32 (same PC, gtids apart in
  // their high bits) and full-width PCs up to 0xffffffff.
  struct Site {
    std::uint64_t pc;
    std::uint32_t gtid;
    std::uint32_t ltid;
  };
  Xoshiro256 rng(15);
  std::vector<Site> sites;
  constexpr std::uint32_t kHighGtidBits[] = {0, 0x80000000u, 0x00010000u,
                                             0x40000000u};
  for (std::uint32_t g = 0; g < 15000; ++g) {
    const std::uint64_t pc = g % 4 == 0   ? 0xffffffffull - g / 4
                             : g % 4 == 1 ? rng.next_u32()
                                          : rng.next_below(64);
    for (const std::uint32_t hi : kHighGtidBits) {
      const std::uint32_t gtid = (g & 0xffffu) | hi;
      sites.push_back({pc, gtid, gtid & 31u});
    }
  }
  constexpr std::size_t kRevisits = 60000;
  std::vector<Site> stream = sites;  // first touch of every site, in order
  for (std::size_t i = 0; i < kRevisits; ++i) {
    stream.push_back(sites[rng.next_below(sites.size())]);
  }

  for (const SpeculationConfig& cfg : test_support::lattice_configs()) {
    SCOPED_TRACE(cfg.name());
    CarrySpeculator sp(cfg);
    std::map<std::uint64_t, std::uint8_t> model;
    const auto model_key = [&](const Site& s) {
      std::uint64_t pc_part = 0;
      if (cfg.pc == PcIndexing::kFull) pc_part = s.pc;
      if (cfg.pc == PcIndexing::kModK) pc_part = s.pc % (1ull << cfg.pc_bits);
      for (std::uint64_t rest = s.pc; cfg.pc == PcIndexing::kXorHash && rest;
           rest >>= cfg.pc_bits) {
        pc_part ^= rest % (1ull << cfg.pc_bits);
      }
      const std::uint64_t tid = cfg.scope == ThreadScope::kGlobalTid ? s.gtid
                                : cfg.scope == ThreadScope::kLocalTid ? s.ltid
                                                                      : 0;
      return tid << 32 | pc_part;
    };
    Xoshiro256 ops_rng(7);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Site& s = stream[i];
      // Small operands never carry, repeated ones let Prev predict right,
      // random ones mispredict; widths cover every narrow-op merge.
      const std::uint64_t pick = ops_rng.next_below(3);
      const std::uint64_t a = pick == 0   ? ops_rng.next_below(128)
                              : pick == 1 ? s.pc * 0x9e3779b97f4a7c15ull
                                          : ops_rng.next_u64();
      const std::uint64_t b = pick == 0   ? ops_rng.next_below(128)
                              : pick == 1 ? ~std::uint64_t{s.gtid} << 7
                                          : ops_rng.next_u64();
      const int slices = static_cast<int>(ops_rng.next_below(7)) + 2;
      const bool cin = ops_rng.next_below(2) != 0;
      const AddOp op = make_op(a, b, s.pc, s.gtid, s.ltid, slices, cin);

      const std::uint64_t key = model_key(s);
      const auto it = model.find(key);
      std::uint8_t hist = it != model.end() ? it->second : 0;
      if (cfg.base == BasePolicy::kStaticZero) hist = 0;
      if (cfg.base == BasePolicy::kStaticOne) hist = 0x7f;
      const std::uint8_t rel = relevant_mask(slices);
      const PeekResult pk = cfg.peek ? peek_reference(a, b, slices)
                                     : PeekResult{};
      Prediction want;
      want.peek_mask = pk.mask;
      want.dynamic_mask = static_cast<std::uint8_t>(rel & ~pk.mask);
      want.carries = static_cast<std::uint8_t>((pk.carries & pk.mask) |
                                               (hist & want.dynamic_mask));
      const std::uint8_t actual = actual_carries_reference(op);
      const SpeculationOutcome want_out =
          resolve_prediction_reference(want, actual, slices);

      const Prediction got = sp.predict(op);
      ASSERT_EQ(got.carries, want.carries) << "op " << i;
      ASSERT_EQ(got.peek_mask, want.peek_mask) << "op " << i;
      ASSERT_EQ(got.dynamic_mask, want.dynamic_mask) << "op " << i;
      const SpeculationOutcome out = sp.resolve(op, got);
      ASSERT_EQ(out.actual, want_out.actual) << "op " << i;
      ASSERT_EQ(out.mispredicted, want_out.mispredicted) << "op " << i;
      ASSERT_EQ(out.recompute_mask, want_out.recompute_mask) << "op " << i;

      if (cfg.base == BasePolicy::kValhalla) {
        model[key] = actual != 0 ? 0x7f : 0;
      } else if (cfg.base == BasePolicy::kPrev) {
        const bool first_touch = it == model.end();
        if (first_touch || want_out.mispredicted != 0 || cfg.always_write) {
          model[key] = static_cast<std::uint8_t>((hist & ~rel) | actual);
        }
      }
      if (i % 4096 == 0) {
        ASSERT_EQ(sp.table_entries(), model.size()) << "op " << i;
      }
    }
    EXPECT_EQ(sp.table_entries(), model.size());
  }
  // Full-PC Gtid indexing gives every site its own entry: >= 50k entries
  // is at least ten doublings of any small starting table.
  CarrySpeculator full(SpeculationConfig::prev_fullpc_gtid());
  for (const Site& s : sites) {
    const AddOp op = make_op(1, 1, s.pc, s.gtid, s.ltid);
    full.resolve(op, full.predict(op));
  }
  EXPECT_EQ(full.table_entries(), sites.size());
  EXPECT_GE(sites.size(), 50000u);
}

TEST(Predictor, Figure5SweepHasThirteenConfigs) {
  const auto sweep = SpeculationConfig::figure5_sweep();
  EXPECT_EQ(sweep.size(), 13u);
  EXPECT_EQ(sweep.back().name(), "Ltid+Prev+ModPC4+Peek");
  EXPECT_EQ(st2_config().name(), "Ltid+Prev+ModPC4+Peek");
}

}  // namespace
}  // namespace st2::spec

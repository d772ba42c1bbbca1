// Property test for the ST2 speculation safety claim, at the slice level:
// for ANY operands, carry-in, slice count and predictor history, the
// predict -> detect -> repair pipeline yields the exact sum.
//
// This is the paper's "always correct by construction" argument run as a
// randomized proof sketch: the prediction may be arbitrarily wrong (the
// history bits are adversarially random), but detection compares against the
// ground-truth carries, and the repaired per-slice carry-ins reproduce the
// full-width add bit-for-bit. Runs 1M cases in Release builds (100k under
// asserts, where resolve_prediction's internal checks make each case dearer).
// The same property also runs policy-parametrized (the differential net of
// ISSUE 10): the history bits come from a LIVE CarryPredictor of every
// registered policy instead of raw noise, so each policy's actual prediction
// stream — including its training and arbitration behaviour — is proven
// safe, not just random stand-ins for it. The lattice's packed warp step
// (lattice_step, eight byte lanes per uint64_t, on lane_words) is held to a
// lane-by-lane loop of the scalar rule over 100k random warps and every
// shape, the whole CarrySpeculator step to a std::map model of the
// lane-order rule in every (Peek, scope, base) shape, and the replay core's
// packed resolve (resolve_warp, SmCore::speculate's) to a lane-order loop
// over random rows, masks and detector faults. A final cross-policy test
// replays
// real workloads under every policy and asserts the architectural counters
// are bit-identical (only timing/speculation counters may move).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/bitutils.hpp"
#include "src/common/rng.hpp"
#include "src/sim/engine.hpp"
#include "src/spec/peek.hpp"
#include "src/spec/policy.hpp"
#include "src/spec/predictor.hpp"
#include "src/workloads/workload.hpp"

namespace st2::spec {
namespace {

#ifdef NDEBUG
constexpr int kCases = 1'000'000;
#else
constexpr int kCases = 100'000;
#endif

/// Assembles the sum slice-by-slice from explicit per-slice carry-ins, the
/// way the sliced adder produces it: slice s adds its operand bits with
/// carry-in taken from `carries` bit s-1 (slice 0 takes the architectural
/// cin). No carry ripples between slices — exactly the speculative datapath.
std::uint64_t sliced_sum(std::uint64_t a, std::uint64_t b, bool cin,
                         std::uint8_t carries, int num_slices) {
  std::uint64_t out = 0;
  for (int s = 0; s < num_slices; ++s) {
    const int lo = s * kSliceBits;
    const bool c = s == 0 ? cin : bit(carries, s - 1);
    const std::uint64_t part =
        bits(a, lo, kSliceBits) + bits(b, lo, kSliceBits) + (c ? 1u : 0u);
    out |= (part & low_mask(kSliceBits)) << lo;
  }
  return out;
}

/// Operand shaping: pure 64-bit noise rarely exercises long carry chains or
/// peekable slice boundaries, so mix in small, sign-extended and
/// propagate-heavy values.
std::uint64_t shaped_operand(Xoshiro256& rng) {
  const std::uint64_t raw = rng.next_u64();
  switch (rng.next_below(4)) {
    case 0: return raw;
    case 1: return raw & 0xffff;                       // small magnitude
    case 2: return sign_extend(raw & 0xffffff, 24);    // negative small
    default: return raw | low_mask(32);                // long propagate run
  }
}

TEST(SpecProperty, PredictDetectRepairAlwaysYieldsTheExactSum) {
  Xoshiro256 rng(0x51ceadd5ULL);
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t a = shaped_operand(rng);
    const std::uint64_t b = shaped_operand(rng);
    const bool cin = (rng.next_u64() & 1u) != 0;
    const int num_slices = 2 + static_cast<int>(rng.next_below(7));  // 2..8
    const auto rel =
        static_cast<std::uint8_t>((1u << (num_slices - 1)) - 1);
    const std::uint8_t hist = static_cast<std::uint8_t>(rng.next_below(128));

    // The branchless production implementations must agree with their
    // scalar constexpr reference oracles on every case before anything
    // downstream is checked — this is the equivalence proof the replay
    // core's bit-identity rests on.
    const PeekResult pk_ref = peek_reference(a, b, num_slices);

    // Build the prediction exactly as SmCore::speculate does: the lane
    // record's Peek bits pinned, everything else from (random) history.
    const LaneRecord lane = lane_record(a, b, cin, num_slices);
    ASSERT_EQ(lane.peek_mask, pk_ref.mask)
        << "a=" << a << " b=" << b << " slices=" << num_slices;
    ASSERT_EQ(lane.peek_carries, pk_ref.carries)
        << "a=" << a << " b=" << b << " slices=" << num_slices;
    const Prediction pred = compose_prediction(hist, lane);
    ASSERT_EQ(pred.dynamic_mask,
              static_cast<std::uint8_t>(rel & ~pk_ref.mask));
    ASSERT_EQ(pred.carries,
              static_cast<std::uint8_t>((pk_ref.carries & pk_ref.mask) |
                                        (hist & rel & ~pk_ref.mask)));

    AddOp op{};
    op.a = a;
    op.b = b;
    op.cin = cin;
    op.num_slices = num_slices;
    const std::uint8_t actual = lane.actual;
    ASSERT_EQ(actual, actual_carries_reference(op))
        << "a=" << a << " b=" << b << " cin=" << cin
        << " slices=" << num_slices;
    const SpeculationOutcome out =
        resolve_prediction(pred, actual, num_slices);
    const SpeculationOutcome out_ref =
        resolve_prediction_reference(pred, actual, num_slices);
    ASSERT_EQ(out.actual, out_ref.actual);
    ASSERT_EQ(out.mispredicted, out_ref.mispredicted);
    ASSERT_EQ(out.recompute_mask, out_ref.recompute_mask)
        << "a=" << a << " b=" << b << " cin=" << cin
        << " slices=" << num_slices << " hist=" << int(hist);
    // Write-back keeps the history bits this add does not own.
    ASSERT_EQ(merge_history(hist, lane),
              static_cast<std::uint8_t>((hist & ~rel) | out.actual));

    const std::uint64_t width_mask = low_mask(num_slices * kSliceBits);
    const std::uint64_t exact = (a + b + (cin ? 1u : 0u)) & width_mask;

    // Detection is exact: `actual` is the ground truth, and peeked slices
    // are never flagged (their carry-in cannot have been wrong).
    ASSERT_EQ(out.actual, static_cast<std::uint8_t>(actual & rel));
    ASSERT_EQ(out.mispredicted & pred.peek_mask, 0);
    ASSERT_EQ(out.mispredicted,
              static_cast<std::uint8_t>((pred.carries ^ out.actual) &
                                        pred.dynamic_mask));

    // The speculative first-cycle result is exact iff nothing mispredicted.
    const std::uint64_t speculative =
        sliced_sum(a, b, cin, pred.carries, num_slices) & width_mask;
    ASSERT_EQ(speculative == exact, out.mispredicted == 0)
        << "a=" << a << " b=" << b << " cin=" << cin
        << " slices=" << num_slices;

    // Repair: re-selecting every slice with its TRUE carry-in reproduces the
    // full-width sum exactly — for any history, any operands.
    const std::uint64_t repaired =
        sliced_sum(a, b, cin, out.actual, num_slices) & width_mask;
    ASSERT_EQ(repaired, exact) << "a=" << a << " b=" << b << " cin=" << cin
                               << " slices=" << num_slices;

    // The recompute set covers the lowest erring slice and never includes a
    // peeked slice (error-signal propagation, paper Figure 4).
    if (out.mispredicted != 0) {
      ASSERT_NE(out.recompute_mask & out.mispredicted, 0);
      ASSERT_EQ(out.recompute_mask & pred.peek_mask, 0);
      ASSERT_GE(out.recompute_count(), 1);
    } else {
      ASSERT_EQ(out.recompute_mask, 0);
    }
  }
}

// Peek is never wrong: the carries it pins are the true carries under its
// mask, and both lie in the bits the add owns. So a lane's certain carries
// are `actual & peek_mask`, and the packed planes need not store them.
TEST(SpecProperty, PeekCarriesAreTheTrueCarriesUnderThePeekMask) {
  Xoshiro256 rng(0x9ee4ca55ULL);
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t a = shaped_operand(rng);
    const std::uint64_t b = shaped_operand(rng);
    const bool cin = (rng.next_u64() & 1u) != 0;
    for (int num_slices = 2; num_slices <= kNumSlices; ++num_slices) {
      const LaneRecord lane = lane_record(a, b, cin, num_slices);
      const std::uint8_t rel = relevant_mask(num_slices);
      ASSERT_EQ(lane.peek_carries,
                static_cast<std::uint8_t>(lane.actual & lane.peek_mask))
          << "a=" << a << " b=" << b << " cin=" << cin
          << " slices=" << num_slices;
      ASSERT_EQ(lane.peek_mask & ~rel, 0) << "slices=" << num_slices;
      ASSERT_EQ(lane.actual & ~rel, 0) << "slices=" << num_slices;
    }
  }
}

// ---- Packed warp step against the lane-by-lane rule -------------------------

constexpr int kPackedWarps = 100'000;

/// One lattice shape: Peek or not, a row or the one shared entry, and how
/// it trains.
struct Shape {
  const char* base;
  bool peek;
  bool per_lane;
  Training train;
};

template <bool kPeek, bool kPerLane>
WarpTally packed_step_as(Training train, const LaneWords& w,
                         std::uint32_t fresh, std::uint8_t* entries) {
  switch (train) {
    case Training::kNone:
      return lattice_step<kPeek, kPerLane, Training::kNone>(w, fresh, entries);
    case Training::kPrev:
      return lattice_step<kPeek, kPerLane, Training::kPrev>(w, fresh, entries);
    case Training::kPrevAlways:
      return lattice_step<kPeek, kPerLane, Training::kPrevAlways>(w, fresh,
                                                                  entries);
    case Training::kValhalla:
      return lattice_step<kPeek, kPerLane, Training::kValhalla>(w, fresh,
                                                                entries);
  }
  return {};
}

/// lattice_step instantiated for `shape`.
WarpTally packed_step(const Shape& shape, const LaneWords& w,
                      std::uint32_t fresh, std::uint8_t* entries) {
  if (shape.peek) {
    return shape.per_lane
               ? packed_step_as<true, true>(shape.train, w, fresh, entries)
               : packed_step_as<true, false>(shape.train, w, fresh, entries);
  }
  return shape.per_lane
             ? packed_step_as<false, true>(shape.train, w, fresh, entries)
             : packed_step_as<false, false>(shape.train, w, fresh, entries);
}

/// The lane rule lattice_step packs: VaLHALLA broadcasts whether the add
/// carried across any slice boundary on every add; Prev writes the merged
/// true pattern on a misprediction or a first touch (`fresh`), and always
/// under always_write; the static bases never write.
void train_lane(std::uint8_t& e, Training train, const LaneRecord& lane,
                bool mispredicted, bool fresh) {
  switch (train) {
    case Training::kNone: return;
    case Training::kValhalla: e = lane.actual != 0 ? 0x7f : 0; return;
    case Training::kPrev:
      if (mispredicted || fresh) e = merge_history(e, lane);
      return;
    case Training::kPrevAlways: e = merge_history(e, lane); return;
  }
}

/// The lane-by-lane oracle of lattice_step: every active lane in lane
/// order composes from the entry read before the warp, resolves and trains
/// through compose_prediction, resolve_prediction and train_lane.
WarpTally step_reference(const Shape& shape, const WarpLanes& lanes,
                         std::uint8_t relevant, std::uint32_t active,
                         std::uint32_t fresh, std::uint8_t* entries) {
  std::array<std::uint8_t, kWarpLanes> before{};
  std::copy_n(entries, shape.per_lane ? kWarpLanes : 1, before.begin());
  WarpTally t;
  for (int lane = 0; lane < kWarpLanes; ++lane) {
    if (((active >> lane) & 1u) == 0) continue;
    LaneRecord r = lanes.get(lane, relevant);
    if (!shape.peek) r.peek_mask = r.peek_carries = 0;
    const int e = shape.per_lane ? lane : 0;
    const SpeculationOutcome out = resolve_prediction(
        compose_prediction(before[static_cast<std::size_t>(e)], r), r.actual,
        r.num_slices);
    ++t.ops;
    t.mispredicted += out.any_misprediction();
    t.wrong_bits += static_cast<std::uint64_t>(popcount_byte(out.mispredicted));
    t.carry_bits += static_cast<std::uint64_t>(r.num_slices - 1);
    t.recomputes += static_cast<std::uint64_t>(out.recompute_count());
    train_lane(entries[e], shape.train, r, out.any_misprediction(),
               ((fresh >> lane) & 1u) != 0);
  }
  return t;
}

TEST(SpecProperty, PackedWarpStepMatchesTheLaneByLaneRule) {
  // Every rule shape: static (never writes), Prev, Prev under always_write
  // and VaLHALLA, each with and without Peek, each on a row (per lane) and
  // on one shared entry.
  std::vector<Shape> shapes;
  for (const bool per_lane : {false, true}) {
    for (const bool peek : {false, true}) {
      shapes.push_back({"static", peek, per_lane, Training::kNone});
      shapes.push_back({"prev", peek, per_lane, Training::kPrev});
      shapes.push_back({"prev-always", peek, per_lane, Training::kPrevAlways});
      shapes.push_back({"valhalla", peek, per_lane, Training::kValhalla});
    }
  }
  // The shared entry under a full warp of 8-slice adds in which all 32
  // lanes write: every lane's true pattern differs (37 is odd, so
  // lane * 37 + 5 is distinct mod 128) and none equals the entry, so every
  // lane mispredicts. Each writer replaces the relevant bits and keeps the
  // rest, so the lane-order fold must end at the highest writer's merge.
  // A 4-slice add owns three bits and keeps the entry's other four; there
  // the lanes whose pattern is the entry's (1 mod 8) predict right.
  for (const int slices : {kNumSlices, 4}) {
    const std::uint8_t relevant = relevant_mask(slices);
    WarpLanes lanes;
    for (int lane = 0; lane < kWarpLanes; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      lanes.actual[l] = static_cast<std::uint8_t>((lane * 37 + 5) & relevant);
      lanes.peek_mask[l] = 0;
    }
    const std::uint8_t entry = slices == kNumSlices ? 0x02 : 0x7a;
    const LaneWords words = lane_words(lanes, relevant, ~0u);
    for (const Shape& shape : shapes) {
      if (shape.per_lane) continue;
      for (const std::uint32_t fresh : {0u, 1u}) {
        std::array<std::uint8_t, kWarpLanes> packed{};
        std::array<std::uint8_t, kWarpLanes> ref{};
        packed[0] = ref[0] = entry;
        const bool tabled = shape.train != Training::kNone;
        const std::uint32_t f = tabled ? fresh : 0u;
        const WarpTally got = packed_step(shape, words, f, packed.data());
        const WarpTally want =
            step_reference(shape, lanes, relevant, ~0u, f, ref.data());
        const auto where = [&] {
          return ::testing::Message()
                 << shape.base << (shape.peek ? "+peek" : "")
                 << " shared, all lanes write, slices " << slices
                 << " fresh " << fresh;
        };
        EXPECT_EQ(got.mispredicted, slices == kNumSlices ? 32u : 28u)
            << where();
        EXPECT_EQ(got.mispredicted, want.mispredicted) << where();
        EXPECT_EQ(got.wrong_bits, want.wrong_bits) << where();
        EXPECT_EQ(got.recomputes, want.recomputes) << where();
        EXPECT_EQ(packed[0], ref[0]) << where();
        if (shape.train == Training::kPrev ||
            shape.train == Training::kPrevAlways) {
          EXPECT_EQ(packed[0], (entry & ~relevant) | lanes.actual[31])
              << where();
        }
      }
    }
  }
  // Each shape keeps its own entries across warps, packed and reference
  // side by side, so training feeds back into later predictions.
  std::vector<std::array<std::uint8_t, kWarpLanes>> packed(shapes.size());
  std::vector<std::array<std::uint8_t, kWarpLanes>> ref(shapes.size());
  Xoshiro256 rng(0x9ac4ed57ULL);
  constexpr int kSlices[] = {3, 4, 7};
  for (int warp = 0; warp < kPackedWarps; ++warp) {
    // Random active masks, full warps and single lanes; every inactive
    // lane's bytes are noise the step must ignore. The slice count, and
    // with it the relevant mask, belongs to the instruction.
    const std::uint64_t shape_pick = rng.next_below(8);
    const std::uint32_t active =
        shape_pick == 0   ? ~0u
        : shape_pick == 1 ? 1u << rng.next_below(32)
                          : std::max<std::uint32_t>(rng.next_u32(), 1u);
    const int slices = kSlices[rng.next_below(3)];
    const std::uint8_t relevant = relevant_mask(slices);
    WarpLanes lanes;
    for (int lane = 0; lane < kWarpLanes; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      if (((active >> lane) & 1u) == 0) {
        const std::uint32_t noise = rng.next_u32();
        lanes.peek_mask[l] = static_cast<std::uint8_t>(noise);
        lanes.actual[l] = static_cast<std::uint8_t>(noise >> 8);
        continue;
      }
      lanes.set(lane, lane_record(shaped_operand(rng), shaped_operand(rng),
                                  (rng.next_u64() & 1u) != 0, slices));
    }
    const std::uint32_t fresh_rows = active & rng.next_u32();
    const std::uint32_t lowest = active & (0u - active);
    const bool fresh_shared = rng.next_below(4) == 0;
    const bool reseed = warp % 512 == 0;
    const LaneWords words = lane_words(lanes, relevant, active);
    for (std::size_t si = 0; si < shapes.size(); ++si) {
      const Shape& shape = shapes[si];
      if (reseed) {
        for (std::uint8_t& e : packed[si]) {
          e = static_cast<std::uint8_t>(rng.next_below(128));
        }
        ref[si] = packed[si];
      }
      // Static bases are never fresh; the shared entry is fresh for the
      // lowest active lane only.
      const bool tabled = shape.train != Training::kNone;
      const std::uint32_t fresh =
          !tabled          ? 0u
          : shape.per_lane ? fresh_rows
          : fresh_shared   ? lowest
                           : 0u;
      const WarpTally got =
          packed_step(shape, words, fresh, packed[si].data());
      const WarpTally want = step_reference(shape, lanes, relevant, active,
                                            fresh, ref[si].data());
      // Built only when an assertion fails.
      const auto where = [&] {
        return ::testing::Message()
               << shape.base << (shape.peek ? "+peek" : "")
               << (shape.per_lane ? " row" : " shared") << " warp " << warp
               << " slices " << slices << " active 0x" << std::hex
               << active;
      };
      ASSERT_EQ(got.ops, want.ops) << where();
      ASSERT_EQ(got.mispredicted, want.mispredicted) << where();
      ASSERT_EQ(got.wrong_bits, want.wrong_bits) << where();
      ASSERT_EQ(got.carry_bits, want.carry_bits) << where();
      ASSERT_EQ(got.recomputes, want.recomputes) << where();
      for (int lane = 0; lane < kWarpLanes; ++lane) {
        const auto l = static_cast<std::size_t>(lane);
        ASSERT_EQ(packed[si][l], ref[si][l]) << where() << " entry " << lane;
      }
    }
  }
}

// ---- The speculator's warp step against a lane-order model ------------------

/// A lane-order model of CarrySpeculator::step that shares none of its
/// table: every history entry lives in a std::map keyed by (PC part, thread
/// part), and an absent entry predicts 0. A warp's active lanes all read
/// their entries first, then compose, resolve and train one at a time in
/// lane order through compose_prediction, resolve_prediction and
/// merge_history. Prev writes on a misprediction, on an entry's first write
/// (`fresh`) or always under always_write; VaLHALLA writes its broadcast
/// pattern on every add; the static bases never write.
class LaneOrderModel {
 public:
  explicit LaneOrderModel(const SpeculationConfig& cfg) : cfg_(cfg) {}

  WarpTally step(std::uint64_t pc, std::uint32_t gtid0, const WarpLanes& lanes,
                 std::uint8_t relevant, std::uint32_t active) {
    std::array<std::uint8_t, kWarpLanes> before{};
    for (int lane = 0; lane < kWarpLanes; ++lane) {
      before[static_cast<std::size_t>(lane)] = entry(pc, gtid0, lane);
    }
    WarpTally t;
    for (int lane = 0; lane < kWarpLanes; ++lane) {
      if (((active >> lane) & 1u) == 0) continue;
      LaneRecord r = lanes.get(lane, relevant);
      if (!cfg_.peek) r.peek_mask = r.peek_carries = 0;
      const SpeculationOutcome out = resolve_prediction(
          compose_prediction(before[static_cast<std::size_t>(lane)], r),
          r.actual, r.num_slices);
      ++t.ops;
      t.mispredicted += out.any_misprediction();
      t.wrong_bits +=
          static_cast<std::uint64_t>(popcount_byte(out.mispredicted));
      t.carry_bits += static_cast<std::uint64_t>(r.num_slices - 1);
      t.recomputes += static_cast<std::uint64_t>(out.recompute_count());
      const auto k = key(pc, gtid0, lane);
      const auto it = table_.find(k);
      const bool fresh = it == table_.end();
      const std::uint8_t e = fresh ? 0 : it->second;
      if (cfg_.base == BasePolicy::kValhalla) {
        table_[k] = r.actual != 0 ? 0x7f : 0;
      } else if (cfg_.base == BasePolicy::kPrev &&
                 (out.any_misprediction() || fresh || cfg_.always_write)) {
        table_[k] = merge_history(e, r);
      }
    }
    return t;
  }

  /// The pattern the entry of `lane` of the warp at (pc, gtid0) predicts.
  std::uint8_t entry(std::uint64_t pc, std::uint32_t gtid0, int lane) const {
    if (cfg_.base == BasePolicy::kStaticZero) return 0;
    if (cfg_.base == BasePolicy::kStaticOne) return 0x7f;
    const auto it = table_.find(key(pc, gtid0, lane));
    return it == table_.end() ? 0 : it->second;
  }

  std::size_t entries() const { return table_.size(); }

 private:
  std::pair<std::uint64_t, std::uint32_t> key(std::uint64_t pc,
                                              std::uint32_t gtid0,
                                              int lane) const {
    std::uint64_t pc_part = 0;
    switch (cfg_.pc) {
      case PcIndexing::kNone: break;
      case PcIndexing::kFull: pc_part = pc; break;
      case PcIndexing::kModK: pc_part = pc & low_mask(cfg_.pc_bits); break;
      case PcIndexing::kXorHash: pc_part = fold_xor(pc, cfg_.pc_bits); break;
    }
    const auto l = static_cast<std::uint32_t>(lane);
    const std::uint32_t tid = cfg_.scope == ThreadScope::kGlobalTid ? gtid0 + l
                              : cfg_.scope == ThreadScope::kLocalTid ? l
                                                                     : 0u;
    return {pc_part, tid};
  }

  SpeculationConfig cfg_;
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::uint8_t> table_;
};

TEST(SpecProperty, SpeculatorStepMatchesALaneOrderModelInEveryShape) {
  // Every (Peek, scope, base) shape, Prev also under always_write, each
  // under four PC indexings. The PCs alias under ModPC2 and XorPC3, and the
  // warps reuse a few global thread ids, so entries are shared, retrained
  // and first written (fresh) throughout.
  constexpr int kWarps = 1500;
  constexpr std::uint64_t kPcs[] = {0, 1, 2, 3, 5, 6, 9, 17, 0xfffffff0u};
  constexpr std::uint32_t kGtid0[] = {0, 32, 64, 1024, 2080};
  struct Pc {
    PcIndexing pc;
    int bits;
  };
  constexpr Pc kPcModes[] = {{PcIndexing::kNone, 0},
                             {PcIndexing::kModK, 2},
                             {PcIndexing::kXorHash, 3},
                             {PcIndexing::kFull, 0}};
  int shapes = 0;
  std::uint64_t mispredicted_lanes = 0;
  for (const BasePolicy base :
       {BasePolicy::kStaticZero, BasePolicy::kStaticOne,
        BasePolicy::kValhalla, BasePolicy::kPrev}) {
    for (const bool always : {false, true}) {
      if (always && base != BasePolicy::kPrev) continue;
      for (const bool peek : {false, true}) {
        for (const ThreadScope scope :
             {ThreadScope::kShared, ThreadScope::kGlobalTid,
              ThreadScope::kLocalTid}) {
          ++shapes;
          for (const Pc& mode : kPcModes) {
            SpeculationConfig cfg;
            cfg.base = base;
            cfg.peek = peek;
            cfg.pc = mode.pc;
            cfg.pc_bits = mode.bits;
            cfg.scope = scope;
            cfg.always_write = always;
            CarrySpeculator sp(cfg);
            LaneOrderModel model(cfg);
            Xoshiro256 rng(0x5be7a11ULL + static_cast<std::uint64_t>(shapes));
            for (int warp = 0; warp < kWarps; ++warp) {
              const std::uint64_t pc = kPcs[rng.next_below(std::size(kPcs))];
              const std::uint32_t gtid0 =
                  kGtid0[rng.next_below(std::size(kGtid0))];
              const std::uint64_t pick = rng.next_below(5);
              const std::uint32_t active =
                  pick == 0   ? ~0u
                  : pick == 1 ? 1u << rng.next_below(32)
                  : pick == 2 ? 0xffffu << rng.next_below(17)
                              : std::max<std::uint32_t>(rng.next_u32(), 1u);
              const int slices = 2 + static_cast<int>(rng.next_below(7));
              const std::uint8_t relevant = relevant_mask(slices);
              WarpLanes lanes;
              for (int lane = 0; lane < kWarpLanes; ++lane) {
                const auto l = static_cast<std::size_t>(lane);
                if (((active >> lane) & 1u) == 0) {
                  const std::uint32_t noise = rng.next_u32();
                  lanes.peek_mask[l] = static_cast<std::uint8_t>(noise);
                  lanes.actual[l] = static_cast<std::uint8_t>(noise >> 8);
                  continue;
                }
                lanes.set(lane,
                          lane_record(shaped_operand(rng), shaped_operand(rng),
                                      (rng.next_u64() & 1u) != 0, slices));
              }
              const WarpTally got =
                  sp.step(pc, gtid0, lane_words(lanes, relevant, active));
              const WarpTally want =
                  model.step(pc, gtid0, lanes, relevant, active);
              // Built only when an assertion fails.
              const auto where = [&] {
                return ::testing::Message()
                       << cfg.name() << " warp " << warp << " pc " << pc
                       << " gtid0 " << gtid0 << " slices " << slices
                       << std::hex << " active 0x" << active;
              };
              ASSERT_EQ(got.ops, want.ops) << where();
              ASSERT_EQ(got.mispredicted, want.mispredicted) << where();
              ASSERT_EQ(got.wrong_bits, want.wrong_bits) << where();
              ASSERT_EQ(got.carry_bits, want.carry_bits) << where();
              ASSERT_EQ(got.recomputes, want.recomputes) << where();
              ASSERT_EQ(sp.table_entries(), model.entries()) << where();
              // Every entry the warp reads, read back through predict: the
              // probe's slice MSBs differ everywhere, so nothing is peeked
              // and the prediction is the entry's 7 bits. A shared entry
              // holds its last writer's merge.
              for (int lane = 0; lane < kWarpLanes; ++lane) {
                AddOp probe;
                probe.pc = pc;
                probe.gtid = gtid0 + static_cast<std::uint32_t>(lane);
                probe.ltid = static_cast<std::uint32_t>(lane);
                probe.a = 0x8080808080808080ULL;
                probe.b = 0;
                probe.num_slices = kNumSlices;
                ASSERT_EQ(sp.predict(probe).carries,
                          model.entry(pc, gtid0, lane))
                    << where() << " entry of lane " << std::dec << lane;
              }
              mispredicted_lanes += want.mispredicted;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(shapes, 30);
  EXPECT_GT(mispredicted_lanes, 0u);
}

// ---- Packed resolve against the lane-order rule ----------------------------

constexpr int kResolveWarps = 200'000;

/// The lane-order oracle of resolve_warp: every active lane composes from
/// its own row byte, resolves and merges through compose_prediction,
/// resolve_prediction and merge_history, and the detector edits apply lane
/// by lane (a masked lane only if it mispredicted, a forced one only if it
/// did not).
WarpResolve resolve_reference(const std::array<std::uint8_t, kWarpLanes>& row,
                              const WarpLanes& lanes, std::uint8_t relevant,
                              std::uint32_t active, std::uint8_t peek_keep,
                              DetectorEdits edits) {
  WarpResolve r;
  WarpTally& t = r.tally;
  for (int lane = 0; lane < kWarpLanes; ++lane) {
    const std::uint32_t bit_l = 1u << lane;
    if ((active & bit_l) == 0) continue;
    LaneRecord rec = lanes.get(lane, relevant);
    rec.peek_mask &= peek_keep;
    rec.peek_carries &= peek_keep;
    const std::uint8_t hist = row[static_cast<std::size_t>(lane)];
    const SpeculationOutcome out = resolve_prediction(
        compose_prediction(hist, rec), rec.actual, rec.num_slices);
    ++t.ops;
    t.carry_bits += static_cast<std::uint64_t>(rec.num_slices - 1);
    const bool genuine = out.any_misprediction();
    const bool masked = genuine && (edits.mask & bit_l) != 0;
    const bool forced = !genuine && (edits.detect & bit_l) != 0;
    if (genuine) r.mispredicted |= bit_l;
    if (genuine && !masked) {
      ++t.mispredicted;
      t.wrong_bits +=
          static_cast<std::uint64_t>(popcount_byte(out.mispredicted));
      t.recomputes += static_cast<std::uint64_t>(out.recompute_count());
    }
    if ((genuine && !masked) || forced) r.repair |= bit_l;
    r.merged[static_cast<std::size_t>(lane)] = merge_history(hist, rec);
  }
  return r;
}

/// `lanes` as seen without Peek: no carry is certain.
WarpLanes without_peek(WarpLanes lanes) {
  lanes.peek_mask.fill(0);
  return lanes;
}

TEST(SpecProperty, PackedResolveMatchesTheLaneOrderRule) {
  {
    // The largest tally one instruction can reach: a full warp of 8-slice
    // adds (relevant 0x7f) without Peek, every history bit wrong. Each lane
    // has 7 wrong bits and recomputes 7 slices, 224 of each in all.
    WarpLanes lanes;
    std::array<std::uint8_t, kWarpLanes> row{};
    for (int lane = 0; lane < kWarpLanes; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      lanes.set(lane, lane_record(0x0101010101010101ULL * (lane & 1u),
                                  0xffffffffffffffffULL, (lane & 1u) != 0,
                                  kNumSlices));
      lanes.peek_mask[l] = static_cast<std::uint8_t>(0xa5u ^ lane);
      row[l] = static_cast<std::uint8_t>(~lanes.actual[l] & 0x7fu);
    }
    const WarpResolve got = resolve_warp(
        row.data(), lane_words(without_peek(lanes), 0x7f, ~0u), DetectorEdits{});
    const WarpResolve want =
        resolve_reference(row, lanes, 0x7f, ~0u, 0, DetectorEdits{});
    EXPECT_EQ(got.tally.ops, 32u);
    EXPECT_EQ(got.tally.mispredicted, 32u);
    EXPECT_EQ(got.tally.wrong_bits, 224u);
    EXPECT_EQ(got.tally.carry_bits, 224u);
    EXPECT_EQ(got.tally.recomputes, 224u);
    EXPECT_EQ(got.tally.mispredicted, want.tally.mispredicted);
    EXPECT_EQ(got.tally.wrong_bits, want.tally.wrong_bits);
    EXPECT_EQ(got.tally.carry_bits, want.tally.carry_bits);
    EXPECT_EQ(got.tally.recomputes, want.tally.recomputes);
    EXPECT_EQ(got.mispredicted, ~0u);
    EXPECT_EQ(got.repair, want.repair);
    EXPECT_EQ(got.merged, want.merged);
  }
  Xoshiro256 rng(0x7e501fe5ULL);
  constexpr int kSlices[] = {3, 4, 7, 8};
  // Warps on which a mask edit hid a misprediction, a detect edit forced a
  // repair, and both at once: the net must reach each case.
  int masked = 0, forced = 0, both = 0;
  for (int warp = 0; warp < kResolveWarps; ++warp) {
    const std::uint64_t mask_pick = rng.next_below(6);
    const std::uint32_t active =
        mask_pick == 0   ? ~0u
        : mask_pick == 1 ? 0x1u
        : mask_pick == 2 ? 0x80000000u
        : mask_pick == 3 ? 0x55555555u
                         : std::max<std::uint32_t>(rng.next_u32(), 1u);
    // One slice count per instruction; real records where active, noise
    // the resolve must ignore elsewhere.
    const int slices = kSlices[rng.next_below(4)];
    const std::uint8_t relevant = relevant_mask(slices);
    WarpLanes lanes;
    for (int lane = 0; lane < kWarpLanes; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      if (((active >> lane) & 1u) == 0) {
        const std::uint32_t noise = rng.next_u32();
        lanes.peek_mask[l] = static_cast<std::uint8_t>(noise);
        lanes.actual[l] = static_cast<std::uint8_t>(noise >> 8);
        continue;
      }
      lanes.set(lane, lane_record(shaped_operand(rng), shaped_operand(rng),
                                  (rng.next_u64() & 1u) != 0, slices));
    }
    // Random rows: half the time full bytes, else near-trained patterns
    // (the record's own carries with a few flipped bits) so that both
    // mispredicting and correct lanes are common.
    std::array<std::uint8_t, kWarpLanes> row{};
    const bool near = (rng.next_u64() & 1u) != 0;
    for (int lane = 0; lane < kWarpLanes; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      const auto noise = static_cast<std::uint8_t>(rng.next_u32());
      row[l] = near ? static_cast<std::uint8_t>(
                          lanes.actual[l] ^ (noise & (noise >> 3) & 0x7f))
                    : noise;
    }
    // Fault lanes: none, on an inactive lane, mask and detect on one lane,
    // both firing on different lanes, or anywhere.
    const auto lane_bit = [&](std::uint32_t pool) {
      std::uint32_t m = pool;
      for (std::uint64_t k = rng.next_below(
               static_cast<std::uint64_t>(popcount64(pool)));
           k != 0; --k) {
        m &= m - 1;
      }
      return m & (0u - m);
    };
    DetectorEdits edits;
    switch (rng.next_below(5)) {
      case 0: break;
      case 1:
        if (active != ~0u) {
          edits.mask = lane_bit(~active);
          edits.detect = lane_bit(~active);
        }
        break;
      case 2: edits.mask = edits.detect = lane_bit(active); break;
      case 3:
        edits.mask = lane_bit(active);
        edits.detect = lane_bit(active);
        break;
      default:
        edits.mask = 1u << rng.next_below(32);
        edits.detect = 1u << rng.next_below(32);
        break;
    }
    for (const std::uint8_t keep : {std::uint8_t{0xff}, std::uint8_t{0}}) {
      const WarpResolve got = resolve_warp(
          row.data(),
          lane_words(keep != 0 ? lanes : without_peek(lanes), relevant, active),
          edits);
      const WarpResolve want =
          resolve_reference(row, lanes, relevant, active, keep, edits);
      // Built only when an assertion fails.
      const auto where = [&] {
        return ::testing::Message()
               << "warp " << warp << " slices " << slices << " keep "
               << int(keep) << std::hex
               << " active 0x" << active << " mask 0x" << edits.mask
               << " detect 0x" << edits.detect;
      };
      ASSERT_EQ(got.tally.ops, want.tally.ops) << where();
      ASSERT_EQ(got.tally.mispredicted, want.tally.mispredicted) << where();
      ASSERT_EQ(got.tally.wrong_bits, want.tally.wrong_bits) << where();
      ASSERT_EQ(got.tally.carry_bits, want.tally.carry_bits) << where();
      ASSERT_EQ(got.tally.recomputes, want.tally.recomputes) << where();
      ASSERT_EQ(got.mispredicted, want.mispredicted) << where();
      ASSERT_EQ(got.repair, want.repair) << where();
      for (int lane = 0; lane < kWarpLanes; ++lane) {
        if (((active >> lane) & 1u) == 0) continue;
        const auto l = static_cast<std::size_t>(lane);
        ASSERT_EQ(got.merged[l], want.merged[l]) << where() << " lane "
                                                 << lane;
      }
      const bool m = (got.mispredicted & edits.mask) != 0;
      const bool f = (got.repair & ~got.mispredicted) != 0;
      masked += m;
      forced += f;
      both += m && f;
    }
  }
  EXPECT_GT(masked, 10000);
  EXPECT_GT(forced, 10000);
  EXPECT_GT(both, 1000);
}

TEST(SpecProperty, MaskedPlanesZeroEveryInactiveLane) {
  Xoshiro256 rng(0x3a5ced01ULL);
  for (int i = 0; i < 10'000; ++i) {
    WarpLanes lanes;
    for (auto* plane : {&lanes.peek_mask, &lanes.actual}) {
      for (std::uint8_t& b : *plane) {
        b = static_cast<std::uint8_t>(rng.next_u32());
      }
    }
    const std::uint32_t active = rng.next_u32();
    const WarpLanes m = lanes.masked(active);
    for (int lane = 0; lane < kWarpLanes; ++lane) {
      const auto l = static_cast<std::size_t>(lane);
      const bool on = ((active >> lane) & 1u) != 0;
      ASSERT_EQ(m.peek_mask[l], on ? lanes.peek_mask[l] : 0);
      ASSERT_EQ(m.actual[l], on ? lanes.actual[l] : 0);
    }
  }
}

// ---- Policy-parametrized differential net ---------------------------------

#ifdef NDEBUG
constexpr int kPolicyCases = 250'000;
#else
constexpr int kPolicyCases = 25'000;
#endif

/// Every registered policy, plus parametrized variants, so the net covers
/// non-default geometries too.
const char* const kPolicySpecs[] = {
    "crf",  "mru", "tage", "static", "static,pattern=21",
    "tage,tables=2,entries=64,minhist=4",
};

class SpecPolicyProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(SpecPolicyProperty, LivePolicyPredictionsAlwaysRepairToTheExactSum) {
  const PredictorConfig cfg = PredictorConfig::parse(GetParam());
  std::unique_ptr<CarryPredictor> policy = make_predictor(cfg, 0x5eed1234ull);
  Xoshiro256 rng(0x70110c1eULL);
  std::uint64_t requested = 0;
  std::vector<CarryWrite> cycle;  // this cycle's write-backs, in order
  for (int i = 0; i < kPolicyCases; ++i) {
    // A small hot PC pool so rows alias and retrain, the adversarial case
    // for PC-indexed policies.
    const std::uint64_t pc = 0x1000 + 8 * rng.next_below(64);
    const int lane = static_cast<int>(rng.next_below(32));
    const std::array<std::uint8_t, 32> row = policy->read_row(pc);
    const std::uint8_t hist = row[lane];
    ASSERT_LT(hist, 128) << "illegal 7-bit pattern from " << GetParam();

    const std::uint64_t a = shaped_operand(rng);
    const std::uint64_t b = shaped_operand(rng);
    const bool cin = (rng.next_u64() & 1u) != 0;
    const int num_slices = 2 + static_cast<int>(rng.next_below(7));  // 2..8
    const auto rel = static_cast<std::uint8_t>((1u << (num_slices - 1)) - 1);

    // Exactly SmCore::speculate's prediction assembly: statically certain
    // slices from Peek, the rest from the policy's row.
    const LaneRecord rec = lane_record(a, b, cin, num_slices);
    const Prediction pred = compose_prediction(hist, rec);
    const std::uint8_t actual = rec.actual;
    const SpeculationOutcome out =
        resolve_prediction(pred, actual, num_slices);

    // Safety: no matter what the policy predicted, detection is exact and
    // the repaired carries reproduce the full-width sum bit-for-bit.
    const std::uint64_t width_mask = low_mask(num_slices * kSliceBits);
    const std::uint64_t exact = (a + b + (cin ? 1u : 0u)) & width_mask;
    ASSERT_EQ(out.actual, static_cast<std::uint8_t>(actual & rel));
    ASSERT_EQ(out.mispredicted & pred.peek_mask, 0);
    ASSERT_EQ(sliced_sum(a, b, cin, out.actual, num_slices) & width_mask,
              exact)
        << GetParam() << " a=" << a << " b=" << b << " cin=" << cin
        << " slices=" << num_slices << " hist=" << int(hist);

    // Train exactly like write-back: only mispredicting lanes queue the
    // true pattern, merged into the row they read.
    if (out.mispredicted != 0) {
      cycle.push_back(CarryWrite{pc, lane, merge_history(hist, rec)});
      ++requested;
    }
    if (rng.next_below(4) == 0) {
      policy->commit(cycle);
      cycle.clear();
    }
    if (rng.next_below(4096) == 0) {
      policy->flip_bit(pc, lane, static_cast<int>(rng.next_below(7)));
      ASSERT_TRUE(policy->entries_valid()) << GetParam();
    }
  }
  policy->commit(cycle);
  EXPECT_TRUE(policy->entries_valid());
  // The CRF arbitration accounting contract every policy must honour
  // (SmCore::validate_invariants relies on it).
  EXPECT_EQ(policy->lane_writes() + policy->write_conflicts(), requested);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SpecPolicyProperty,
                         ::testing::ValuesIn(kPolicySpecs),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == ',' || c == '=') c = '_';
                           }
                           return n;
                         });

// ---- Cross-policy architectural identity on real workloads ----------------

TEST(SpecPolicyProperty, AllPoliciesAgreeOnEveryArchitecturalCounter) {
  // Counters a predictor policy is ALLOWED to move: its own speculation
  // outcomes and everything downstream of timing. Every other counter is
  // architectural — instruction mix, operand traffic, memory footprint —
  // and must be bit-identical across policies, because speculation never
  // changes what executes, only how long it takes and what it costs.
  const std::set<std::string> may_differ = {
      "crf_writes", "crf_write_conflicts", "adder_mispredicts",
      "slice_recomputes", "warp_adder_stalls",
      "l1_misses", "l2_accesses", "l2_misses", "dram_accesses", "noc_flits",
      "mem_lat_smem_cycles", "mem_lat_l1_cycles", "mem_lat_l2_cycles",
      "mem_lat_dram_cycles",
      "cycles", "sm_cycles_max", "sm_cycles_sum", "sm_active_cycles",
      "sm_idle_cycles", "sched_issue_cycles", "stall_dependency_cycles",
      "stall_structural_cycles", "stall_barrier_cycles", "stall_empty_cycles",
      "stall_st2_recovery_cycles"};
  const std::vector<std::string> policies = {"crf", "mru", "tage",
                                             "static,pattern=21"};
  for (const char* kernel : {"pathfinder", "sad_K1"}) {
    std::map<std::string, std::uint64_t> reference;
    for (const std::string& spec : policies) {
      workloads::PreparedCase pc = workloads::prepare_case(kernel, 0.1);
      sim::GpuConfig cfg = sim::GpuConfig::st2();
      cfg.num_sms = 2;
      cfg.predictor = PredictorConfig::parse(spec);
      sim::ExecutionEngine ts(cfg);
      sim::EventCounters sum;
      for (const auto& lc : pc.launches) {
        sum += ts.run(pc.kernel, lc, *pc.mem).chip;
      }
      // Architectural results stay exact under every policy.
      EXPECT_TRUE(pc.validate(*pc.mem)) << kernel << " under " << spec;
      std::map<std::string, std::uint64_t> got;
      sim::for_each_counter(
          sum, [&](const char* name, std::uint64_t v) { got[name] = v; });
      if (reference.empty()) {
        reference = std::move(got);
        continue;
      }
      for (const auto& [name, v] : got) {
        if (may_differ.count(name) != 0) continue;
        EXPECT_EQ(v, reference.at(name))
            << kernel << ": counter " << name << " drifted under policy "
            << spec;
      }
    }
  }
}

}  // namespace
}  // namespace st2::spec

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
// safe, not just random stand-ins for it. A final cross-policy test replays
// real workloads under every policy and asserts the architectural counters
// are bit-identical (only timing/speculation counters may move).
#include <gtest/gtest.h>

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
      policy->request_write(pc, lane, merge_history(hist, rec));
      ++requested;
    }
    if (rng.next_below(4) == 0) policy->commit_cycle();
    if (rng.next_below(4096) == 0) {
      policy->flip_bit(pc, lane, static_cast<int>(rng.next_below(7)));
      ASSERT_TRUE(policy->entries_valid()) << GetParam();
    }
    if (rng.next_below(8192) == 0) {
      // Flush with an empty queue (commit first) so the write accounting
      // below stays exact — the hook drops learned state, not counters.
      policy->commit_cycle();
      policy->flush();
      ASSERT_TRUE(policy->entries_valid()) << GetParam();
    }
  }
  policy->commit_cycle();
  EXPECT_TRUE(policy->entries_valid());
  // The CRF arbitration accounting contract every policy must honour
  // (SmCore::validate_invariants relies on it).
  EXPECT_EQ(policy->lane_writes() + policy->write_conflicts() +
                policy->pending_writes(),
            requested);
  EXPECT_EQ(policy->row_reads(), static_cast<std::uint64_t>(kPolicyCases));
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

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <ostream>

#include "src/adder/adders.hpp"
#include "src/common/rng.hpp"

namespace st2::spec {

// gtest's default printer dumps the raw bytes of a SpeculationConfig, its
// padding bytes included; those are indeterminate, so the listed test names
// changed from run to run. This prints the same "N-byte object <..>" dump
// with the padding zeroed, so the names are stable.
static void PrintTo(const SpeculationConfig& c, std::ostream* os) {
  unsigned char bytes[sizeof(SpeculationConfig)] = {};
  const auto put = [&](std::size_t offset, const auto& field) {
    std::memcpy(bytes + offset, &field, sizeof(field));
  };
  put(offsetof(SpeculationConfig, base), c.base);
  put(offsetof(SpeculationConfig, peek), c.peek);
  put(offsetof(SpeculationConfig, pc), c.pc);
  put(offsetof(SpeculationConfig, pc_bits), c.pc_bits);
  put(offsetof(SpeculationConfig, scope), c.scope);
  put(offsetof(SpeculationConfig, always_write), c.always_write);
  *os << sizeof(bytes) << "-byte object <";
  for (std::size_t i = 0; i < sizeof(bytes); ++i) {
    if (i != 0) *os << (i % 2 == 0 ? ' ' : '-');
    char hex[3];
    std::snprintf(hex, sizeof(hex), "%02X", bytes[i]);
    *os << hex;
  }
  *os << '>';
}

}  // namespace st2::spec

namespace st2::adder {
namespace {

using spec::AddOp;
using spec::CarrySpeculator;
using spec::SpeculationConfig;

AddOp make_op(std::uint64_t a, std::uint64_t b, std::uint64_t pc = 0,
              std::uint32_t ltid = 0, int slices = 8, bool cin = false) {
  AddOp op;
  op.pc = pc;
  op.ltid = ltid;
  op.a = a;
  op.b = b;
  op.cin = cin;
  op.num_slices = slices;
  return op;
}

TEST(ReferenceAdderTest, ExactSums) {
  ReferenceAdder ra;
  Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    const AddOutcome r = ra.add(a, b, false);
    EXPECT_EQ(r.sum, a + b);
    EXPECT_EQ(r.cycles, 1);
    EXPECT_TRUE(r.correct);
  }
}

TEST(CslaAdderTest, ExactSumsAtAllWidths) {
  CslaAdder ca;
  Xoshiro256 rng(2);
  for (int slices : {3, 4, 7, 8}) {
    const std::uint64_t mask = low_mask(slices * kSliceBits);
    for (int i = 0; i < 3000; ++i) {
      const std::uint64_t a = rng.next_u64() & mask;
      const std::uint64_t b = rng.next_u64() & mask;
      const AddOutcome r = ca.add(a, b, false, slices);
      EXPECT_EQ(r.sum, (a + b) & mask);
      EXPECT_EQ(r.cycles, 1);
    }
  }
}

TEST(CslaAdderTest, CostsMoreThanTwoSliceSetsMinusOne) {
  // CSLA executes both hypotheses for every slice above the first: its
  // energy must exceed the all-correct ST2 case by roughly 2x.
  CslaAdder ca;
  St2Adder st2;
  spec::Prediction perfect;
  perfect.dynamic_mask = 0;
  perfect.peek_mask = 0x7f;
  perfect.carries = spec::lane_record(123456, 654321, false, 8).actual;
  perfect.peek_mask = 0x7f;
  spec::SpeculationOutcome ok{};
  ok.actual = perfect.carries;
  const double e_csla = ca.add(123456, 654321, false).energy;
  const double e_st2 =
      st2.add(123456, 654321, false, 8, perfect, ok).energy;
  EXPECT_GT(e_csla, 1.5 * e_st2);
}

TEST(ApproximateAdderTest, WrongExactlyWhenCarriesCrossSlices) {
  ApproximateAdder aa;
  // No carries cross slice boundaries: correct.
  EXPECT_TRUE(aa.add(0x01, 0x01, false).correct);
  // 0xFF + 1 carries into slice 1: the approximate adder must be wrong.
  const AddOutcome r = aa.add(0xFF, 0x01, false);
  EXPECT_FALSE(r.correct);
  EXPECT_EQ(r.sum, 0u);  // slice 1 never saw the carry; slice 0 wrapped to 0
}

TEST(ApproximateAdderTest, ErrorRateOnRandomInputsIsHigh) {
  ApproximateAdder aa;
  Xoshiro256 rng(3);
  int wrong = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (!aa.add(rng.next_u64(), rng.next_u64(), false).correct) ++wrong;
  }
  // Random 64-bit operands almost always produce at least one slice carry.
  EXPECT_GT(double(wrong) / n, 0.9);
}

TEST(CasaAdderTest, OperandWindowBeatsStaticZeroButStillErrs) {
  CasaAdder casa(4);
  ApproximateAdder approx;
  Xoshiro256 rng(14);
  int casa_wrong = 0, approx_wrong = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    // Small-magnitude evolving values, like Section III streams.
    const std::uint64_t a = rng.next_below(1 << 18);
    const std::uint64_t b = rng.next_below(1 << 10);
    casa_wrong += !casa.add(a, b, false).correct;
    approx_wrong += !approx.add(a, b, false).correct;
  }
  EXPECT_LT(casa_wrong, approx_wrong);  // operand peeking helps...
  EXPECT_GT(casa_wrong, 0);             // ...but cannot be exact
}

TEST(CasaAdderTest, WiderWindowMoreAccurate) {
  CasaAdder narrow(2), wide(8);
  Xoshiro256 rng(15);
  int nw = 0, ww = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    nw += !narrow.add(a, b, false).correct;
    ww += !wide.add(a, b, false).correct;
  }
  EXPECT_LT(ww, nw);
}

TEST(CasaAdderTest, SingleCycleAlways) {
  CasaAdder casa;
  const AddOutcome r = casa.add(~0ull, 1, false);
  EXPECT_EQ(r.cycles, 1);   // no correction machinery
  EXPECT_FALSE(r.correct);  // and therefore a wrong result here
}

TEST(VlsaAdderTest, AlwaysExactAndWindowHelps) {
  Xoshiro256 rng(4);
  VlsaAdder narrow(2), wide(8);
  int narrow_miss = 0, wide_miss = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    const AddOutcome rn = narrow.add(a, b, false);
    const AddOutcome rw = wide.add(a, b, false);
    ASSERT_EQ(rn.sum, a + b);
    ASSERT_EQ(rw.sum, a + b);
    narrow_miss += rn.mispredicted;
    wide_miss += rw.mispredicted;
  }
  EXPECT_LT(wide_miss, narrow_miss);  // a longer lookahead window helps
}

// The paper's core guarantee, as a property test: for any speculation
// configuration and any operands, St2Adder returns the exact sum; it takes
// 2 cycles iff some dynamic carry was mispredicted.
class St2Guarantee
    : public ::testing::TestWithParam<SpeculationConfig> {};

TEST_P(St2Guarantee, AlwaysCorrectVariableLatency) {
  CarrySpeculator sp(GetParam());
  St2Adder st2;
  Xoshiro256 rng(5);
  for (int i = 0; i < 30000; ++i) {
    // Mix magnitudes: small positive, large, negative-like patterns.
    std::uint64_t a = rng.next_u64();
    std::uint64_t b = rng.next_u64();
    if (i % 3 == 0) {
      a &= 0xFFFF;
      b &= 0xFFFF;
    }
    if (i % 5 == 0) b = ~b;
    const int slices = (i % 4 == 0) ? 3 : ((i % 4 == 1) ? 4 : 8);
    const std::uint64_t mask = low_mask(slices * kSliceBits);
    a &= mask;
    b &= mask;
    const AddOp op = make_op(a, b, rng.next_below(32),
                             static_cast<std::uint32_t>(i % 32), slices,
                             i % 7 == 0);
    const AddOutcome r = st2.add(op, sp);
    ASSERT_EQ(r.sum, (a + b + (op.cin ? 1 : 0)) & mask);
    ASSERT_TRUE(r.correct);
    ASSERT_EQ(r.cycles, r.mispredicted ? 2 : 1);
    ASSERT_EQ(r.slices_recomputed > 0, r.mispredicted);
    ASSERT_LT(r.slices_recomputed, slices);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, St2Guarantee,
    ::testing::Values(SpeculationConfig::static_zero(),
                      SpeculationConfig::static_one(),
                      SpeculationConfig::valhalla(),
                      SpeculationConfig::prev(),
                      SpeculationConfig::prev_peek(),
                      SpeculationConfig::prev_modpc_peek(4),
                      SpeculationConfig::gtid_prev_modpc4_peek(),
                      SpeculationConfig::ltid_prev_modpc4_peek()),
    [](const ::testing::TestParamInfo<SpeculationConfig>& info) {
      std::string n = info.param.name();
      for (char& c : n) {
        if (c == '+') c = '_';
      }
      return n;
    });

TEST(St2AdderTest, SavesMostEnergyOnCorrelatedStream) {
  // The headline: on a correlated stream the ST2 adder spends < 35% of the
  // reference adder's energy (the paper: 30%, i.e. 70% saved).
  ReferenceAdder ra;
  St2Adder st2;
  CarrySpeculator sp(spec::st2_config());
  Xoshiro256 rng(6);
  double e_ref = 0, e_st2 = 0;
  std::uint64_t v = 1000;
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t delta = rng.next_below(512);
    const AddOp op = make_op(v, delta, 3, static_cast<std::uint32_t>(i % 32));
    e_st2 += st2.add(op, sp).energy;
    e_ref += ra.add(v, delta, false).energy;
    v = (v + delta) & 0xFFFFFF;
  }
  EXPECT_LT(e_st2 / e_ref, 0.35);
  EXPECT_GT(e_st2 / e_ref, 0.15);  // but not magically free
}

TEST(St2AdderTest, MispredictionCostsEnergyAndLatency) {
  St2Adder st2;
  spec::Prediction wrong;
  wrong.dynamic_mask = 0x7f;
  wrong.carries = 0;
  const std::uint8_t actual = spec::lane_record(0xFF, 0x01, false, 8).actual;
  const spec::SpeculationOutcome out =
      spec::resolve_prediction(wrong, actual, 8);
  ASSERT_TRUE(out.any_misprediction());
  const AddOutcome bad = st2.add(0xFF, 0x01, false, 8, wrong, out);

  spec::Prediction right = wrong;
  right.carries = actual;
  const spec::SpeculationOutcome ok =
      spec::resolve_prediction(right, actual, 8);
  const AddOutcome good = st2.add(0xFF, 0x01, false, 8, right, ok);

  EXPECT_EQ(bad.sum, good.sum);
  EXPECT_GT(bad.energy, good.energy);
  EXPECT_EQ(bad.cycles, 2);
  EXPECT_EQ(good.cycles, 1);
}

TEST(EnergyParamsTest, CircuitDerivationIsConsistent) {
  const EnergyParams ep = EnergyParams::from_circuit(300);
  // The derived slice cost must support the ~70% saving headline:
  // 8 slices at the scaled voltage land well below half the reference.
  EXPECT_LT(8 * ep.e_slice_scaled, 0.5);
  EXPECT_GT(8 * ep.e_slice_scaled, 0.1);
  EXPECT_GT(ep.v_scaled, 0.5);
  EXPECT_LT(ep.v_scaled, 0.7);
  // Nominal-voltage slices must cost more than scaled ones.
  EXPECT_GT(ep.e_slice_nominal, ep.e_slice_scaled);
}

}  // namespace
}  // namespace st2::adder

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <random>

#include "src/isa/builder.hpp"
#include "src/sim/functional.hpp"
#include "src/sim/op_timing.hpp"
#include "src/sim/trace_run.hpp"
#include "src/workloads/workload.hpp"

namespace st2::sim {
namespace {

using isa::KernelBuilder;
using isa::Opcode;
using isa::Reg;

/// Runs a single-warp kernel and returns the value it stored to out[lane].
std::vector<std::uint64_t> run_kernel(
    const std::function<void(KernelBuilder&, Reg out)>& body, int threads = 32,
    std::vector<std::uint64_t> extra_args = {}) {
  KernelBuilder kb("t");
  const Reg out = kb.param(0);
  body(kb, out);
  kb.exit();
  const isa::Kernel k = kb.build();

  GlobalMemory mem;
  const std::uint64_t d_out =
      mem.alloc(static_cast<std::size_t>(threads) * 8);
  LaunchConfig lc;
  lc.block_x = threads;
  lc.args = {d_out};
  for (auto a : extra_args) lc.args.push_back(a);
  trace_run(k, lc, mem);

  std::vector<std::uint64_t> got(static_cast<std::size_t>(threads));
  mem.read<std::uint64_t>(d_out, got);
  return got;
}

// --- integer semantics, one opcode per case ---------------------------------
struct IntCase {
  const char* name;
  Opcode op;
  std::int64_t a, b, want;
};

// Without this gtest prints the raw bytes of the case, `name`'s address
// included, so the listed test names would change from run to run.
void PrintTo(const IntCase& c, std::ostream* os) {
  *os << c.name << '(' << c.a << ", " << c.b << ") = " << c.want;
}

class IntOps : public ::testing::TestWithParam<IntCase> {};

TEST_P(IntOps, ComputesExpectedValue) {
  const IntCase& c = GetParam();
  const auto got = run_kernel([&](KernelBuilder& kb, Reg out) {
    const Reg r = kb.emit3(c.op, kb.imm(c.a), kb.imm(c.b));
    kb.st_global(kb.element_addr(out, kb.gtid(), 8), r);
  }, 1);
  EXPECT_EQ(static_cast<std::int64_t>(got[0]), c.want);
}

INSTANTIATE_TEST_SUITE_P(
    Table, IntOps,
    ::testing::Values(
        IntCase{"add", Opcode::kIAdd, 7, -3, 4},
        IntCase{"sub", Opcode::kISub, 7, 10, -3},
        IntCase{"mul", Opcode::kIMul, -4, 6, -24},
        IntCase{"div", Opcode::kIDiv, -17, 5, -3},
        IntCase{"div0", Opcode::kIDiv, 9, 0, 0},
        IntCase{"rem", Opcode::kIRem, -17, 5, -2},
        IntCase{"min", Opcode::kIMin, -2, 3, -2},
        IntCase{"max", Opcode::kIMax, -2, 3, 3},
        IntCase{"and", Opcode::kIAnd, 0b1100, 0b1010, 0b1000},
        IntCase{"or", Opcode::kIOr, 0b1100, 0b1010, 0b1110},
        IntCase{"xor", Opcode::kIXor, 0b1100, 0b1010, 0b0110},
        IntCase{"shl", Opcode::kIShl, 3, 4, 48},
        IntCase{"shr", Opcode::kIShrL, 48, 4, 3},
        IntCase{"shra", Opcode::kIShrA, -16, 2, -4},
        // Wraps like neg; std::abs(INT64_MIN) is signed overflow.
        IntCase{"abs_min", Opcode::kIAbs, INT64_MIN, 0, INT64_MIN}),
    [](const ::testing::TestParamInfo<IntCase>& i) { return i.param.name; });

TEST(Functional, FloatArithmetic) {
  const auto got = run_kernel([&](KernelBuilder& kb, Reg out) {
    const Reg a = kb.fimm(1.5f);
    const Reg b = kb.fimm(2.25f);
    const Reg c = kb.fimm(-0.5f);
    const Reg r = kb.ffma(a, b, c);  // 1.5*2.25 - 0.5 = 2.875
    kb.st_global(kb.element_addr(out, kb.gtid(), 8), r);
  }, 1);
  EXPECT_EQ(std::bit_cast<float>(static_cast<std::uint32_t>(got[0])), 2.875f);
}

TEST(Functional, DoubleArithmetic) {
  const auto got = run_kernel([&](KernelBuilder& kb, Reg out) {
    const Reg r = kb.dfma(kb.dimm(3.0), kb.dimm(7.0), kb.dimm(0.5));
    kb.st_global(kb.element_addr(out, kb.gtid(), 8), r);
  }, 1);
  EXPECT_EQ(std::bit_cast<double>(got[0]), 21.5);
}

// C leaves the sign of fmin(+0, -0) open; the simulator fixes it to the
// first operand's, so it cannot change with code generation.
TEST(Functional, FloatMinMaxTiesGiveTheFirstOperand) {
  const auto got = run_kernel([&](KernelBuilder& kb, Reg out) {
    const Reg pz = kb.fimm(0.0f), nz = kb.fimm(-0.0f);
    const Reg dpz = kb.dimm(0.0), dnz = kb.dimm(-0.0);
    const Reg rs[] = {kb.fmin(pz, nz), kb.fmin(nz, pz), kb.fmax(pz, nz),
                      kb.fmax(nz, pz), kb.emit3(Opcode::kDMin, dnz, dpz),
                      kb.emit3(Opcode::kDMax, dpz, dnz)};
    for (int i = 0; i < 6; ++i) kb.st_global(out, rs[i], 8 * i, 8);
  }, 6);  // six output slots; every thread stores the same six values
  const std::uint64_t f_pz = 0, f_nz = 0x80000000u;
  const std::uint64_t d_pz = 0, d_nz = 0x8000000000000000u;
  EXPECT_EQ(got, (std::vector<std::uint64_t>{f_pz, f_nz, f_pz, f_nz, d_nz,
                                             d_pz}));
}

TEST(Functional, ConversionsAndSaturation) {
  const auto got = run_kernel([&](KernelBuilder& kb, Reg out) {
    const Reg i = kb.f2i(kb.fimm(-2.9f));     // truncate toward zero
    const Reg f = kb.i2f(kb.imm(41));
    const Reg sum = kb.iadd(i, kb.f2i(f));    // -2 + 41
    kb.st_global(kb.element_addr(out, kb.gtid(), 8), sum);
  }, 1);
  EXPECT_EQ(static_cast<std::int64_t>(got[0]), 39);
}

TEST(Functional, SpecialRegistersPerLane) {
  const auto got = run_kernel([&](KernelBuilder& kb, Reg out) {
    const Reg v = kb.imad(kb.laneid(), kb.imm(100), kb.tid_x());
    kb.st_global(kb.element_addr(out, kb.gtid(), 8), v);
  });
  for (int lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(got[static_cast<std::size_t>(lane)],
              static_cast<std::uint64_t>(lane * 101));
  }
}

TEST(Functional, DivergentIfElsePerLane) {
  const auto got = run_kernel([&](KernelBuilder& kb, Reg out) {
    const Reg lane = kb.laneid();
    const auto even =
        kb.setp(Opcode::kSetEq, kb.iand(lane, kb.imm(1)), kb.imm(0));
    const Reg r = kb.reg();
    kb.if_then_else(even, [&] { kb.movi_to(r, 100); },
                    [&] { kb.movi_to(r, 200); });
    kb.st_global(kb.element_addr(out, kb.gtid(), 8), r);
  });
  for (int lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(got[static_cast<std::size_t>(lane)],
              (lane % 2 == 0) ? 100u : 200u);
  }
}

TEST(Functional, LoopTripCountsVaryPerLane) {
  // Each lane loops laneid+1 times, accumulating 10 per trip.
  const auto got = run_kernel([&](KernelBuilder& kb, Reg out) {
    const Reg lane = kb.laneid();
    const Reg acc = kb.imm(0);
    kb.for_range(kb.imm(0), kb.iadd(lane, kb.imm(1)), 1,
                 [&](Reg) { kb.iadd_to(acc, acc, kb.imm(10)); });
    kb.st_global(kb.element_addr(out, kb.gtid(), 8), acc);
  });
  for (int lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(got[static_cast<std::size_t>(lane)],
              static_cast<std::uint64_t>(10 * (lane + 1)));
  }
}

TEST(Functional, SelpAndPredicateLogic) {
  const auto got = run_kernel([&](KernelBuilder& kb, Reg out) {
    const Reg lane = kb.laneid();
    const auto p1 = kb.setp(Opcode::kSetGt, lane, kb.imm(10));
    const auto p2 = kb.setp(Opcode::kSetLt, lane, kb.imm(20));
    const auto both = kb.pand(p1, p2);
    const Reg r = kb.selp(both, kb.imm(1), kb.imm(0));
    kb.st_global(kb.element_addr(out, kb.gtid(), 8), r);
  });
  for (int lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(got[static_cast<std::size_t>(lane)],
              (lane > 10 && lane < 20) ? 1u : 0u);
  }
}

TEST(Functional, SharedMemoryBarrierExchange) {
  // Lane i writes to shared[i]; after the barrier, lane i reads
  // shared[31-i]: correct only if the barrier orders all writes first.
  const auto got = run_kernel([&](KernelBuilder& kb, Reg out) {
    const std::int64_t sh = kb.alloc_shared(32 * 8);
    const Reg lane = kb.laneid();
    kb.st_shared(kb.element_addr(kb.shared_base(sh), lane, 8),
                 kb.imul(lane, kb.imm(7)));
    kb.bar();
    const Reg rev = kb.isub(kb.imm(31), lane);
    const Reg v = kb.reg();
    kb.ld_shared(v, kb.element_addr(kb.shared_base(sh), rev, 8));
    kb.st_global(kb.element_addr(out, kb.gtid(), 8), v);
  });
  for (int lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(got[static_cast<std::size_t>(lane)],
              static_cast<std::uint64_t>(7 * (31 - lane)));
  }
}

TEST(Functional, SignExtendingLoads) {
  KernelBuilder kb("t2");
  const Reg out = kb.param(0);
  const Reg src = kb.param(1);
  const Reg raw = kb.reg();
  const Reg sext = kb.reg();
  kb.ld_global(raw, src, 0, 4);
  kb.ld_global_s32(sext, src, 0);
  kb.st_global(out, raw, 0, 8);
  kb.st_global(out, sext, 8, 8);
  kb.exit();
  const isa::Kernel k = kb.build();
  GlobalMemory mem;
  const std::uint64_t d_out = mem.alloc(16);
  const std::uint64_t d_src = mem.alloc(8);
  mem.write_one<std::int32_t>(d_src, -5);
  LaunchConfig lc;
  lc.block_x = 1;
  lc.args = {d_out, d_src};
  trace_run(k, lc, mem);
  EXPECT_EQ(mem.read_one<std::uint64_t>(d_out), 0xFFFFFFFBull);  // raw
  EXPECT_EQ(mem.read_one<std::int64_t>(d_out + 8), -5);          // sext
}

TEST(Functional, PartialLastWarpMasksInactiveLanes) {
  const auto got = run_kernel(
      [&](KernelBuilder& kb, Reg out) {
        kb.st_global(kb.element_addr(out, kb.gtid(), 8), kb.imm(9));
      },
      /*threads=*/20);
  // Lanes 20..31 never ran; their slots stay zero.
  for (int lane = 0; lane < 20; ++lane) {
    EXPECT_EQ(got[static_cast<std::size_t>(lane)], 9u);
  }
}

TEST(Functional, ExecRecordCarriesAdderMicroOps) {
  KernelBuilder kb("t3");
  const Reg out = kb.param(0);
  const Reg r = kb.iadd(kb.imm(100), kb.imm(200));
  kb.st_global(kb.element_addr(out, kb.gtid(), 8), r);
  kb.exit();
  const isa::Kernel k = kb.build();
  GlobalMemory mem;
  const std::uint64_t d_out = mem.alloc(8 * 32);
  LaunchConfig lc;
  lc.block_x = 32;
  lc.args = {d_out};
  int add_records = 0;
  trace_run(
      k, lc, mem,
      [&](const ExecRecord& rec) {
        if (!rec.has_adder_op || rec.instr->op != isa::Opcode::kIAdd) return;
        ++add_records;
        EXPECT_EQ(rec.adder[0].a, 100u);
        EXPECT_EQ(rec.adder[0].b, 200u);
        EXPECT_EQ(rec.adder[0].num_slices, 4);  // 32-bit integer datapath
        EXPECT_EQ(rec.words().owned[0] & 0xff, spec::relevant_mask(4));
      },
      /*record_lane_values=*/true);
  EXPECT_EQ(add_records, 1);
  // Without the opt-in the step writes no micro-op; the lane planes and
  // their words are there either way.
  trace_run(k, lc, mem, [&](const ExecRecord& rec) {
    if (!rec.has_adder_op || rec.instr->op != isa::Opcode::kIAdd) return;
    ++add_records;
    EXPECT_EQ(rec.adder[0].a, 0u);
    EXPECT_EQ(rec.adder[0].b, 0u);
    EXPECT_EQ(rec.words().owned[0] & 0xff, spec::relevant_mask(4));
  });
  EXPECT_EQ(add_records, 2);
}

TEST(Functional, ConsecutiveAdderRecordsCarryTheirOwnLanes) {
  // Three adder instructions in a row (4, 7 and 4 slices, different
  // operands), after the address's imad, reach the observer through one
  // reused ExecRecord, on a partial warp: each record's lane planes are its
  // own lanes' records, and its words are lane_words of those planes, never
  // the memo of the previous instruction's.
  KernelBuilder kb("t4");
  const Reg out = kb.param(0);
  const Reg t = kb.gtid();
  const Reg addr = kb.element_addr(out, t, 8);
  const Reg c = kb.imm(0x7f);
  const Reg d = kb.i2d(t);
  const Reg e = kb.dimm(-1.5);
  const Reg x = kb.iadd(t, c);
  const Reg y = kb.dadd(d, e);
  const Reg z = kb.isub(c, t);
  kb.st_global(addr, kb.ixor(kb.ixor(x, y), z));
  kb.exit();
  const isa::Kernel k = kb.build();
  GlobalMemory mem;
  const std::uint64_t d_out = mem.alloc(8 * 32);
  LaunchConfig lc;
  lc.block_x = 20;
  lc.args = {d_out};
  std::vector<Opcode> adders;
  bool previous_was_adder = false;
  int consecutive = 0;
  trace_run(
      k, lc, mem,
      [&](const ExecRecord& rec) {
        const int slices = adder_slices(rec.instr->op);
        if (slices == 0) {
          previous_was_adder = false;
          return;
        }
        consecutive += previous_was_adder;
        previous_was_adder = true;
        adders.push_back(rec.instr->op);
        EXPECT_EQ(rec.active_mask, 0xfffffu);
        for (int lane = 0; lane < 20; ++lane) {
          const AdderMicroOp& m = rec.adder[static_cast<std::size_t>(lane)];
          const spec::LaneRecord want =
              spec::lane_record(m.a, m.b, m.cin, slices);
          const spec::LaneRecord got =
              rec.lanes.get(lane, spec::relevant_mask(slices));
          EXPECT_EQ(got.peek_mask, want.peek_mask) << "lane " << lane;
          EXPECT_EQ(got.actual, want.actual) << "lane " << lane;
        }
        const spec::LaneWords want = spec::lane_words(
            rec.lanes, spec::relevant_mask(slices), rec.active_mask);
        EXPECT_EQ(rec.words(), want);
        EXPECT_EQ(rec.words(), want);  // the memo, read again
        EXPECT_EQ(rec.words().ops, 20u);
        EXPECT_EQ(rec.words().carry_bits,
                  20u * static_cast<std::uint64_t>(slices - 1));
      },
      /*record_lane_values=*/true);
  EXPECT_EQ(adders, (std::vector<Opcode>{Opcode::kIMad, Opcode::kIAdd,
                                         Opcode::kDAdd, Opcode::kISub}));
  EXPECT_EQ(consecutive, 2);
}


// --- warp-wide step against scalar oracles ----------------------------------
//
// Each case is a one-instruction kernel executed by FunctionalCore::step on
// a warp whose active mask, registers, predicates and memory are seeded
// directly. For every active lane the ExecRecord's adder micro-op and lane
// record must equal the scalar adder_micro_op / spec::lane_record of that
// lane's sources, and the destination must equal a host evaluation written
// here, independent of the interpreter. Inactive lanes must be untouched.

constexpr int kRegs = 8;
constexpr std::uint16_t kSrc1 = 1, kSrc2 = 2, kSrc3 = 3, kDst = 4;
constexpr std::uint8_t kSelPred = 0, kDstPred = 1;
constexpr int kPreds = 4;

float as_f32(std::uint64_t raw) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(raw));
}
std::uint64_t bits_f32(float v) { return std::bit_cast<std::uint32_t>(v); }
double as_f64(std::uint64_t raw) { return std::bit_cast<double>(raw); }
std::uint64_t bits_f64(double v) { return std::bit_cast<std::uint64_t>(v); }
std::int64_t as_s64(std::uint64_t raw) {
  return static_cast<std::int64_t>(raw);
}

enum class Kind { kInt, kF32, kF64 };

Kind kind_of(Opcode op) {
  switch (isa::unit_class(op)) {
    case isa::UnitClass::kFpu:
    case isa::UnitClass::kFpMulDiv: return Kind::kF32;
    case isa::UnitClass::kDpu: return Kind::kF64;
    default: return Kind::kInt;
  }
}

/// Seeded source values, heavy on the edge cases of each operand kind.
class ValueSource {
 public:
  explicit ValueSource(std::uint64_t seed) : rng_(seed) {}

  std::uint64_t next(Kind k) {
    const std::uint64_t r = rng_();
    switch (r % 4) {
      case 0: return pick(kIntEdges);
      case 1: return k == Kind::kF64 ? pick(kF64Edges) : pick(kF32Edges);
      case 2:
        if (k == Kind::kF32) return bits_f32(std::ldexp(unit(), exp(40)));
        if (k == Kind::kF64) return bits_f64(std::ldexp(unit(), exp(300)));
        return static_cast<std::uint64_t>(static_cast<std::int32_t>(rng_()));
      default: return rng_();
    }
  }

  /// A value with `x`'s sign and exponent and a fresh mantissa.
  std::uint64_t same_exponent(std::uint64_t x, Kind k) {
    const std::uint64_t mant =
        k == Kind::kF64 ? (std::uint64_t{1} << 52) - 1 : 0x7fffffu;
    return (x & ~mant) | (rng_() & mant);
  }

  std::uint64_t operator()() { return rng_(); }

 private:
  static constexpr std::uint64_t kIntEdges[] = {
      0,
      ~std::uint64_t{0},
      static_cast<std::uint64_t>(std::int64_t{INT32_MIN}),
      0x80000000u,
      INT32_MAX,
      static_cast<std::uint64_t>(INT64_MAX),
      static_cast<std::uint64_t>(INT64_MIN),
      1,
  };
  static constexpr std::uint64_t kF32Edges[] = {
      0x00000000u, 0x80000000u,  // +-0
      0x7f800000u, 0xff800000u,  // +-inf
      0x7fc00000u, 0xffc00001u,  // NaNs
      0x00000001u, 0x807fffffu,  // denormals
      0x3f800000u, 0xbfc00000u,  // 1, -1.5
  };
  static constexpr std::uint64_t kF64Edges[] = {
      0x0000000000000000u, 0x8000000000000000u,  // +-0
      0x7ff0000000000000u, 0xfff0000000000000u,  // +-inf
      0x7ff8000000000000u, 0xfff8000000000001u,  // NaNs
      0x0000000000000001u, 0x800fffffffffffffu,  // denormals
      0x3ff0000000000000u, 0xc004000000000000u,  // 1, -2.5
  };

  template <std::size_t N>
  std::uint64_t pick(const std::uint64_t (&xs)[N]) {
    return xs[rng_() % N];
  }
  double unit() {
    return std::uniform_real_distribution<double>(-1.0, 1.0)(rng_);
  }
  int exp(int range) {
    return static_cast<int>(rng_() % static_cast<unsigned>(2 * range)) -
           range;
  }

  std::mt19937_64 rng_;
};

/// The simulator's NaN rule, stated on bits: when any source is a NaN, the
/// result is the first NaN source with its quiet bit set; otherwise it is
/// `r` as computed.
std::uint64_t nan_rule(float r, std::initializer_list<float> srcs) {
  for (const float x : srcs) {
    if (std::isnan(x)) return bits_f32(x) | 0x00400000u;
  }
  return bits_f32(r);
}
std::uint64_t nan_rule(double r, std::initializer_list<double> srcs) {
  for (const double x : srcs) {
    if (std::isnan(x)) return bits_f64(x) | 0x0008000000000000u;
  }
  return bits_f64(r);
}

/// Expected effect of a register/predicate-writing op on one lane.
struct HostResult {
  bool is_pred = false;
  std::uint64_t value = 0;
  bool pred = false;
};

HostResult host_eval(Opcode op, std::uint64_t s1, std::uint64_t s2,
                     std::uint64_t s3, bool sel, std::int64_t imm) {
  const auto val = [](std::uint64_t v) { return HostResult{false, v, false}; };
  const auto prd = [](bool p) { return HostResult{true, 0, p}; };
  const float f1 = as_f32(s1), f2 = as_f32(s2), f3 = as_f32(s3);
  const double d1 = as_f64(s1), d2 = as_f64(s2), d3 = as_f64(s3);
  const std::int64_t i1 = as_s64(s1), i2 = as_s64(s2);
  switch (op) {
    case Opcode::kIAdd: return val(s1 + s2);
    case Opcode::kISub: return val(s1 - s2);
    case Opcode::kIMad: return val(s1 * s2 + s3);
    case Opcode::kIMin: return val(static_cast<std::uint64_t>(i1 < i2 ? i1 : i2));
    case Opcode::kIMax: return val(static_cast<std::uint64_t>(i1 > i2 ? i1 : i2));
    case Opcode::kIAbs: return val(i1 < 0 ? 0 - s1 : s1);
    case Opcode::kSetEq: return prd(i1 == i2);
    case Opcode::kSetNe: return prd(i1 != i2);
    case Opcode::kSetLt: return prd(i1 < i2);
    case Opcode::kSetLe: return prd(i1 <= i2);
    case Opcode::kSetGt: return prd(i1 > i2);
    case Opcode::kSetGe: return prd(i1 >= i2);
    case Opcode::kSelp: return val(sel ? s1 : s2);
    case Opcode::kMovImm: return val(static_cast<std::uint64_t>(imm));
    case Opcode::kFAdd: return val(nan_rule(f1 + f2, {f1, f2}));
    case Opcode::kFSub: return val(nan_rule(f1 - f2, {f1, f2}));
    case Opcode::kFFma:
      return val(nan_rule(std::fma(f1, f2, f3), {f1, f2, f3}));
    case Opcode::kFMin: return val(bits_f32(std::fmin(f1, f2)));
    case Opcode::kFMax: return val(bits_f32(std::fmax(f1, f2)));
    case Opcode::kFSetLt: return prd(f1 < f2);
    case Opcode::kFSetLe: return prd(f1 <= f2);
    case Opcode::kFSetGt: return prd(f1 > f2);
    case Opcode::kFSetGe: return prd(f1 >= f2);
    case Opcode::kFSetEq: return prd(f1 == f2);
    case Opcode::kFSetNe: return prd(f1 != f2);
    case Opcode::kDAdd: return val(nan_rule(d1 + d2, {d1, d2}));
    case Opcode::kDSub: return val(nan_rule(d1 - d2, {d1, d2}));
    case Opcode::kDFma:
      return val(nan_rule(std::fma(d1, d2, d3), {d1, d2, d3}));
    case Opcode::kDMin: return val(bits_f64(std::fmin(d1, d2)));
    case Opcode::kDMax: return val(bits_f64(std::fmax(d1, d2)));
    default: ADD_FAILURE() << "no host evaluation for " << isa::mnemonic(op);
  }
  return {};
}

/// Bit equality, except that any two NaNs match for FP min/max: glibc's
/// fmin/fmax, the host reference, leave the payload of a two-NaN result
/// open. Add, sub and FMA follow the NaN rule bit for bit.
bool same_value(Opcode op, std::uint64_t got, std::uint64_t want) {
  const bool min_max = op == Opcode::kFMin || op == Opcode::kFMax ||
                       op == Opcode::kDMin || op == Opcode::kDMax;
  switch (min_max ? kind_of(op) : Kind::kInt) {
    case Kind::kF32:
      if (std::isnan(as_f32(got)) && std::isnan(as_f32(want))) return true;
      break;
    case Kind::kF64:
      if (std::isnan(as_f64(got)) && std::isnan(as_f64(want))) return true;
      break;
    case Kind::kInt: break;
  }
  if (got != want) {
    ADD_FAILURE() << std::hex << "got 0x" << got << ", want 0x" << want;
    return false;
  }
  return true;
}

/// A single-warp harness around one instruction followed by exit.
struct OneInstr {
  static constexpr std::size_t kMemBytes = 1024;

  isa::Kernel kernel;
  LaunchConfig launch;
  GlobalMemory gmem{kMemBytes};
  std::vector<std::uint8_t> smem;
  WarpContext warp;

  OneInstr(const isa::Instruction& in, std::uint32_t mask)
      : warp(0, 0, mask, kRegs) {
    kernel.name = "one";
    kernel.code = {in, isa::Instruction{}};
    kernel.code[1].op = Opcode::kExit;
    kernel.regs_used = kRegs;
    kernel.shared_bytes = static_cast<int>(kMemBytes);
    launch.block_x = kWarpSize;
  }
};

std::vector<std::uint32_t> test_masks() {
  std::vector<std::uint32_t> masks = {0xffffffffu, 0x1u, 0x80000000u,
                                      0x55555555u};
  std::mt19937 rng(7);
  while (masks.size() < 8) {
    const std::uint32_t m = static_cast<std::uint32_t>(rng());
    if (m != 0) masks.push_back(m);
  }
  return masks;
}

/// Seeds every register and predicate of every lane of `w`.
void seed_warp(WarpContext& w, ValueSource& vs, Kind k, bool abs_op) {
  for (int lane = 0; lane < kWarpSize; ++lane) {
    for (int r = 0; r < kRegs; ++r) w.set_reg(lane, r, vs());
    std::uint64_t s1 = vs.next(k);
    if (abs_op && s1 == static_cast<std::uint64_t>(INT64_MIN)) s1 = 5;
    const std::uint64_t s2 =
        (vs() % 4 == 0 && k != Kind::kInt) ? vs.same_exponent(s1, k)
                                           : vs.next(k);
    w.set_reg(lane, kSrc1, s1);
    w.set_reg(lane, kSrc2, s2);
    w.set_reg(lane, kSrc3, vs.next(k));
    for (int p = 0; p < kPreds; ++p) w.set_pred(lane, p, (vs() & 1) != 0);
  }
}

struct WarpState {
  std::vector<std::uint64_t> regs;
  std::vector<bool> preds;
};

WarpState snapshot_of(const WarpContext& w) {
  WarpState s;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    for (int r = 0; r < kRegs; ++r) s.regs.push_back(w.reg(lane, r));
    for (int p = 0; p < kPreds; ++p) s.preds.push_back(w.pred(lane, p));
  }
  return s;
}

/// Every register and predicate of `w` equals `before`, except the
/// destination of active lanes (register `dst_reg` or predicate `dst_pred`,
/// -1 for none).
void expect_untouched(const WarpContext& w, const WarpState& before,
                      std::uint32_t mask, int dst_reg, int dst_pred) {
  std::size_t ri = 0, pi = 0;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    const bool active = ((mask >> lane) & 1u) != 0;
    for (int r = 0; r < kRegs; ++r, ++ri) {
      if (active && r == dst_reg) continue;
      EXPECT_EQ(w.reg(lane, r), before.regs[ri]) << "lane " << lane << " r" << r;
    }
    for (int p = 0; p < kPreds; ++p, ++pi) {
      if (active && p == dst_pred) continue;
      EXPECT_EQ(w.pred(lane, p), before.preds[pi]) << "lane " << lane << " p" << p;
    }
  }
}

/// Where a record's adder facts differ from their values derived from its
/// opcode alone, "" where none does.
std::string kind_mismatch(const ExecRecord& rec) {
  const int slices = adder_slices(rec.instr->op);
  std::string m;
  if (rec.has_adder_op != (slices != 0)) m += "has_adder_op ";
  if (slices != 0 &&
      rec.words() != spec::lane_words(rec.lanes, spec::relevant_mask(slices),
                                      rec.active_mask)) {
    m += "words ";
  }
  return m.empty() ? m : std::string(isa::mnemonic(rec.instr->op)) + ": " + m;
}

void check_alu(Opcode op, std::uint32_t mask, ValueSource& vs) {
  isa::Instruction in;
  in.op = op;
  in.src1 = kSrc1;
  in.src2 = kSrc2;
  in.src3 = kSrc3;
  in.pred = kSelPred;
  in.imm = static_cast<std::int64_t>(vs.next(Kind::kInt));
  const bool to_pred = host_eval(op, 0, 0, 0, false, 0).is_pred;
  in.dst = to_pred ? kDstPred : kDst;

  OneInstr t(in, mask);
  FunctionalCore core(t.kernel, t.launch, t.gmem, t.smem);
  seed_warp(t.warp, vs, kind_of(op), op == Opcode::kIAbs);
  const WarpState before = snapshot_of(t.warp);

  ExecRecord rec;
  rec.record_lane_values = true;
  ASSERT_EQ(core.step(t.warp, rec), StepStatus::kExecuted);
  EXPECT_EQ(rec.active_mask, mask);
  EXPECT_EQ(kind_mismatch(rec), "");
  EXPECT_NE(isa::unit_class(op), isa::UnitClass::kMem);
  EXPECT_EQ(deps_of(in).write_reg >= 0, !to_pred);

  std::size_t ri = 0, pi = 0;
  for (int lane = 0; lane < kWarpSize; ++lane, ri += kRegs, pi += kPreds) {
    if (((mask >> lane) & 1u) == 0) continue;
    SCOPED_TRACE(::testing::Message() << "lane " << lane);
    const std::uint64_t s1 = before.regs[ri + kSrc1];
    const std::uint64_t s2 = before.regs[ri + kSrc2];
    const std::uint64_t s3 = before.regs[ri + kSrc3];
    const bool sel = before.preds[pi + kSelPred];
    const HostResult want = host_eval(op, s1, s2, s3, sel, in.imm);
    if (to_pred) {
      EXPECT_EQ(t.warp.pred(lane, kDstPred), want.pred);
    } else {
      EXPECT_TRUE(same_value(op, t.warp.reg(lane, kDst), want.value));
      EXPECT_TRUE(same_value(op, rec.result[static_cast<std::size_t>(lane)],
                             want.value));
    }
    if (adder_slices(op) == 0) continue;
    const auto mop = adder_micro_op(op, s1, s2, s3);
    ASSERT_TRUE(mop.has_value());
    const AdderMicroOp& got = rec.adder[static_cast<std::size_t>(lane)];
    EXPECT_EQ(got.a, mop->a);
    EXPECT_EQ(got.b, mop->b);
    EXPECT_EQ(got.cin, mop->cin);
    EXPECT_EQ(got.num_slices, mop->num_slices);
    const spec::LaneRecord want_lane =
        spec::lane_record(mop->a, mop->b, mop->cin, mop->num_slices);
    const spec::LaneRecord got_lane =
        rec.lanes.get(lane, spec::relevant_mask(adder_slices(op)));
    EXPECT_EQ(got_lane.peek_mask, want_lane.peek_mask);
    EXPECT_EQ(got_lane.peek_carries, want_lane.peek_carries);
    EXPECT_EQ(got_lane.actual, want_lane.actual);
    EXPECT_EQ(got_lane.num_slices, want_lane.num_slices);
  }
  expect_untouched(t.warp, before, mask, to_pred ? -1 : kDst,
                   to_pred ? kDstPred : -1);
}

std::uint64_t read_bytes(const std::vector<std::uint8_t>& m, std::uint64_t a,
                         int size) {
  std::uint64_t v = 0;
  std::memcpy(&v, m.data() + a, static_cast<std::size_t>(size));
  return v;
}
void write_bytes(std::vector<std::uint8_t>& m, std::uint64_t a,
                 std::uint64_t v, int size) {
  std::memcpy(m.data() + a, &v, static_cast<std::size_t>(size));
}

void check_mem(Opcode op, std::uint32_t mask, std::uint8_t size, bool sext,
               ValueSource& vs) {
  const bool shared = op == Opcode::kLdShared || op == Opcode::kStShared ||
                      op == Opcode::kAtomAddShared;
  const bool load = op == Opcode::kLdGlobal || op == Opcode::kLdShared;
  const bool atom = op == Opcode::kAtomAddGlobal || op == Opcode::kAtomAddShared;
  isa::Instruction in;
  in.op = op;
  in.dst = kDst;
  in.src1 = kSrc1;
  in.src2 = kSrc2;
  in.msize = size;
  in.msext = sext;
  in.imm = static_cast<std::int64_t>(vs() % 33) - 16;

  OneInstr t(in, mask);
  FunctionalCore core(t.kernel, t.launch, t.gmem, t.smem);
  seed_warp(t.warp, vs, Kind::kInt, false);
  // A few hot slots make lanes collide, so lane order matters.
  std::uint64_t addr[kWarpSize];
  for (int lane = 0; lane < kWarpSize; ++lane) {
    const std::uint64_t a =
        vs() % 2 == 0 ? 64 + 8 * (vs() % 4) : 64 + vs() % (OneInstr::kMemBytes - 72);
    addr[lane] = a;
    t.warp.set_reg(lane, kSrc1, a - static_cast<std::uint64_t>(in.imm));
  }
  std::vector<std::uint8_t> image(OneInstr::kMemBytes);
  for (auto& b : image) b = static_cast<std::uint8_t>(vs());
  if (shared) {
    t.smem = image;
  } else {
    t.gmem.write<std::uint8_t>(0, image);
  }
  const WarpState before = snapshot_of(t.warp);

  ExecRecord rec;
  rec.record_lane_values = true;
  ASSERT_EQ(core.step(t.warp, rec), StepStatus::kExecuted);
  EXPECT_FALSE(rec.has_adder_op);
  EXPECT_EQ(isa::unit_class(op), isa::UnitClass::kMem);
  EXPECT_EQ(isa::is_shared(op), shared);
  EXPECT_EQ(isa::is_store(op), !load);
  EXPECT_EQ(deps_of(in).write_reg >= 0, load || atom);

  // Host model: lanes in ascending order against a copy of the image.
  std::vector<std::uint8_t> model = image;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (((mask >> lane) & 1u) == 0) continue;
    SCOPED_TRACE(::testing::Message() << "lane " << lane);
    const std::uint64_t a = addr[lane];
    EXPECT_EQ(rec.mem_addr[static_cast<std::size_t>(lane)], a);
    const std::uint64_t v = t.warp.reg(lane, kSrc2);
    std::uint64_t old = read_bytes(model, a, size);
    if (!load) write_bytes(model, a, atom ? old + v : v, size);
    if (sext && size < 8) {
      old = static_cast<std::uint64_t>(sign_extend(old, 8 * size));
    }
    if (load || atom) {
      EXPECT_EQ(t.warp.reg(lane, kDst), old);
      EXPECT_EQ(rec.result[static_cast<std::size_t>(lane)], old);
    }
  }
  const std::vector<std::uint8_t> after =
      shared ? t.smem
             : std::vector<std::uint8_t>(t.gmem.bytes().begin(),
                                         t.gmem.bytes().end());
  EXPECT_EQ(after, model);
  expect_untouched(t.warp, before, mask, load || atom ? kDst : -1, -1);
}

TEST(Functional, AdderLanesMatchTheScalarOracleUnderAnyMask) {
  std::vector<Opcode> alu = {Opcode::kMovImm, Opcode::kSelp, Opcode::kIAbs};
  for (int o = 0; o < static_cast<int>(Opcode::kOpcodeCount); ++o) {
    const auto op = static_cast<Opcode>(o);
    if (adder_slices(op) != 0) alu.push_back(op);
  }
  ASSERT_EQ(alu.size(), 3u + 27u);
  const Opcode mem[] = {Opcode::kLdGlobal,     Opcode::kStGlobal,
                        Opcode::kLdShared,     Opcode::kStShared,
                        Opcode::kAtomAddGlobal, Opcode::kAtomAddShared};

  ValueSource vs(2021);
  for (const std::uint32_t mask : test_masks()) {
    for (const Opcode op : alu) {
      for (int trial = 0; trial < 4; ++trial) {
        SCOPED_TRACE(::testing::Message()
                     << isa::mnemonic(op) << " mask 0x" << std::hex << mask);
        check_alu(op, mask, vs);
      }
    }
    for (const Opcode op : mem) {
      for (const std::uint8_t size : {1, 4, 8}) {
        for (const bool sext : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << isa::mnemonic(op) << " size " << int{size}
                       << (sext ? " sext" : "") << " mask 0x" << std::hex
                       << mask);
          check_mem(op, mask, size, sext, vs);
        }
      }
    }
  }
}

// An op's kind is a fact of its opcode: shared and store name memory
// opcodes only, every opcode stepped once writes only the register or
// predicate deps_of names and records the adder facts its opcode fixes, and
// so does every record of every workload.
TEST(Functional, EveryOpcodeRecordsTheKindOfItsOpcode) {
  ValueSource vs(25);
  for (int o = 0; o < static_cast<int>(Opcode::kOpcodeCount); ++o) {
    const auto op = static_cast<Opcode>(o);
    SCOPED_TRACE(isa::mnemonic(op));
    if (isa::is_shared(op) || isa::is_store(op)) {
      EXPECT_EQ(isa::unit_class(op), isa::UnitClass::kMem);
    }
    if (isa::unit_class(op) == isa::UnitClass::kMem) {
      check_mem(op, kFullWarpMask, 4, false, vs);
      continue;
    }
    isa::Instruction in;
    in.op = op;
    in.src1 = kSrc1;
    in.src2 = kSrc2;
    in.src3 = kSrc3;
    in.pred = kSelPred;
    in.target = 1;
    in.reconv = 1;
    const bool to_pred = deps_of(in).write_pred >= 0;
    in.dst = to_pred ? kDstPred : kDst;
    const Deps deps = deps_of(in);
    OneInstr t(in, kFullWarpMask);
    t.launch.args = {7};  // ld.param reads args[imm], imm 0
    FunctionalCore core(t.kernel, t.launch, t.gmem, t.smem);
    seed_warp(t.warp, vs, kind_of(op), true);
    const WarpState before = snapshot_of(t.warp);
    ExecRecord rec;
    ASSERT_EQ(core.step(t.warp, rec), StepStatus::kExecuted);
    EXPECT_EQ(kind_mismatch(rec), "");
    expect_untouched(t.warp, before, kFullWarpMask, deps.write_reg,
                     deps.write_pred);
  }
}

TEST(Functional, EveryWorkloadRecordHasTheKindOfItsOpcode) {
  std::size_t records = 0, mismatches = 0;
  std::string first;
  for (const auto& info : workloads::case_list()) {
    workloads::PreparedCase pc = workloads::prepare_case(info.name, 0.1);
    for (const auto& lc : pc.launches) {
      trace_run(pc.kernel, lc, *pc.mem, [&](const ExecRecord& rec) {
        ++records;
        const std::string m = kind_mismatch(rec);
        if (!m.empty() && mismatches++ == 0) first = info.name + " " + m;
      });
    }
  }
  EXPECT_GT(records, 0u);
  EXPECT_EQ(mismatches, 0u) << "first: " << first;
}

// Two NaN sources: the result is the first one, quieted, whichever operand
// order the compiler emits for the lane loop (docs/isa.md, "Floating
// point"). `a` is signaling, so the result shows that it was quieted.
TEST(Functional, NaNResultsCarryTheFirstNaNSourceQuieted) {
  struct Nans {
    std::uint64_t a, quiet_a, b, one;
  };
  const Nans f32{0x7fa00001u, 0x7fe00001u, 0xffc12345u, 0x3f800000u};
  const Nans f64{0x7ff4000000000001u, 0x7ffc000000000001u,
                 0xfff80000000abcdeu, 0x3ff0000000000000u};
  for (const Opcode op : {Opcode::kFAdd, Opcode::kFSub, Opcode::kFMul,
                          Opcode::kFFma, Opcode::kDAdd, Opcode::kDSub,
                          Opcode::kDMul, Opcode::kDFma}) {
    SCOPED_TRACE(isa::mnemonic(op));
    const Nans& n = kind_of(op) == Kind::kF64 ? f64 : f32;
    // Per lane: sources s1, s2, s3, and the expected result.
    std::vector<std::array<std::uint64_t, 4>> lanes = {
        {n.a, n.b, n.one, n.quiet_a},
        {n.b, n.a, n.one, n.b},
        {n.a, n.b, n.a, n.quiet_a},
        {n.b, n.a, n.b, n.b}};
    // FMA: a NaN addend counts when neither factor is a NaN.
    if (op == Opcode::kFFma || op == Opcode::kDFma) {
      lanes.push_back({n.one, n.one, n.a, n.quiet_a});
    }
    isa::Instruction in;
    in.op = op;
    in.dst = kDst;
    in.src1 = kSrc1;
    in.src2 = kSrc2;
    in.src3 = kSrc3;
    OneInstr t(in, (1u << lanes.size()) - 1);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      const int lane = static_cast<int>(l);
      t.warp.set_reg(lane, kSrc1, lanes[l][0]);
      t.warp.set_reg(lane, kSrc2, lanes[l][1]);
      t.warp.set_reg(lane, kSrc3, lanes[l][2]);
    }
    FunctionalCore core(t.kernel, t.launch, t.gmem, t.smem);
    ExecRecord rec;
    ASSERT_EQ(core.step(t.warp, rec), StepStatus::kExecuted);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      const std::uint64_t got = t.warp.reg(static_cast<int>(l), kDst);
      EXPECT_EQ(got, lanes[l][3])
          << std::hex << "lane " << l << ": got 0x" << got << ", want 0x"
          << lanes[l][3];
    }
  }
}

}  // namespace
}  // namespace st2::sim

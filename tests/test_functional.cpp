#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "src/isa/builder.hpp"
#include "src/sim/functional.hpp"
#include "src/sim/trace_run.hpp"

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
        IntCase{"shra", Opcode::kIShrA, -16, 2, -4}),
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
  trace_run(k, lc, mem, [&](const ExecRecord& rec) {
    if (!rec.has_adder_op || rec.instr->op != isa::Opcode::kIAdd) return;
    ++add_records;
    EXPECT_EQ(rec.adder[0].a, 100u);
    EXPECT_EQ(rec.adder[0].b, 200u);
    EXPECT_EQ(rec.adder[0].num_slices, 4);  // 32-bit integer datapath
  });
  EXPECT_EQ(add_records, 1);
}

}  // namespace
}  // namespace st2::sim

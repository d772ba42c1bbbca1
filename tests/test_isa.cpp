#include <gtest/gtest.h>

#include "src/isa/instruction.hpp"
#include "src/sim/adder_ops.hpp"

namespace st2::isa {
namespace {

using sim::adder_slices;

std::vector<Opcode> all_opcodes() {
  std::vector<Opcode> v;
  for (int i = 0; i < static_cast<int>(Opcode::kOpcodeCount); ++i) {
    v.push_back(static_cast<Opcode>(i));
  }
  return v;
}

TEST(Isa, EveryOpcodeHasAMnemonic) {
  for (Opcode op : all_opcodes()) {
    EXPECT_STRNE(mnemonic(op), "?") << static_cast<int>(op);
  }
}

TEST(Isa, AddSubImpliesAdderDatapath) {
  for (Opcode op : all_opcodes()) {
    if (is_add_sub(op)) {
      EXPECT_NE(adder_slices(op), 0) << mnemonic(op);
    }
  }
}

TEST(Isa, AdderOpsLiveInArithmeticUnits) {
  for (Opcode op : all_opcodes()) {
    if (adder_slices(op) == 0) continue;
    const UnitClass u = unit_class(op);
    EXPECT_TRUE(u == UnitClass::kAlu || u == UnitClass::kFpu ||
                u == UnitClass::kDpu)
        << mnemonic(op);
  }
}

TEST(Isa, MemoryOpcodesClassified) {
  EXPECT_EQ(unit_class(Opcode::kLdGlobal), UnitClass::kMem);
  EXPECT_EQ(unit_class(Opcode::kStShared), UnitClass::kMem);
  EXPECT_EQ(unit_class(Opcode::kBra), UnitClass::kControl);
  EXPECT_EQ(unit_class(Opcode::kBar), UnitClass::kControl);
  EXPECT_EQ(unit_class(Opcode::kFSin), UnitClass::kSfu);
  EXPECT_EQ(unit_class(Opcode::kIDiv), UnitClass::kIntMulDiv);
  EXPECT_EQ(unit_class(Opcode::kFDiv), UnitClass::kFpMulDiv);
  EXPECT_EQ(unit_class(Opcode::kDFma), UnitClass::kDpu);
  // An atomic is a store; shared and store name memory opcodes only.
  EXPECT_TRUE(is_store(Opcode::kAtomAddGlobal));
  EXPECT_TRUE(is_shared(Opcode::kAtomAddShared));
  EXPECT_FALSE(is_store(Opcode::kLdShared));
  EXPECT_FALSE(is_shared(Opcode::kStGlobal));
  EXPECT_FALSE(is_store(Opcode::kIAdd));
  EXPECT_FALSE(is_shared(Opcode::kBar));
}

TEST(Isa, MultipliersAreNotSpeculatedOn) {
  // Paper Section IV-C: no speculative adders in multipliers or complex
  // units; the FMA *accumulate* is, the standalone multiply is not.
  EXPECT_EQ(adder_slices(Opcode::kIMul), 0);
  EXPECT_EQ(adder_slices(Opcode::kFMul), 0);
  EXPECT_EQ(adder_slices(Opcode::kIDiv), 0);
  EXPECT_EQ(adder_slices(Opcode::kFSqrt), 0);
  EXPECT_NE(adder_slices(Opcode::kFFma), 0);
  EXPECT_NE(adder_slices(Opcode::kIMad), 0);
}

TEST(Isa, SpecialRegNames) {
  EXPECT_STREQ(special_name(SpecialReg::kTidX), "%tid.x");
  EXPECT_STREQ(special_name(SpecialReg::kGtid), "%gtid");
  EXPECT_STREQ(special_name(SpecialReg::kLaneId), "%laneid");
}

TEST(Isa, DisassembleMentionsKeyFields) {
  Kernel k;
  k.name = "demo";
  Instruction add;
  add.op = Opcode::kIAdd;
  add.dst = 2;
  add.src1 = 0;
  add.src2 = 1;
  Instruction bra;
  bra.op = Opcode::kBra;
  bra.pred = 3;
  bra.pred_negate = true;
  bra.target = 7;
  bra.reconv = 9;
  Instruction ex;
  ex.op = Opcode::kExit;
  k.code = {add, bra, ex};
  const std::string s = k.disassemble();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("add.s64 r2, r0, r1"), std::string::npos);
  EXPECT_NE(s.find("!p3"), std::string::npos);
  EXPECT_NE(s.find("@7"), std::string::npos);
  EXPECT_NE(s.find("reconv @9"), std::string::npos);
  EXPECT_NE(s.find("exit"), std::string::npos);
}

}  // namespace
}  // namespace st2::isa

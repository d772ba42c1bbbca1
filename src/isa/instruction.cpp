#include "src/isa/instruction.hpp"

#include <sstream>

namespace st2::isa {

UnitClass unit_class(Opcode op) {
  switch (op) {
    case Opcode::kIAdd: case Opcode::kISub: case Opcode::kIMin:
    case Opcode::kIMax: case Opcode::kIAbs: case Opcode::kINeg:
    case Opcode::kIAnd: case Opcode::kIOr: case Opcode::kIXor:
    case Opcode::kINot: case Opcode::kIShl: case Opcode::kIShrL:
    case Opcode::kIShrA:
    case Opcode::kSetEq: case Opcode::kSetNe: case Opcode::kSetLt:
    case Opcode::kSetLe: case Opcode::kSetGt: case Opcode::kSetGe:
    case Opcode::kPAnd: case Opcode::kPOr: case Opcode::kPNot:
    case Opcode::kSelp: case Opcode::kMov: case Opcode::kMovImm:
    case Opcode::kMovSpecial: case Opcode::kLdParam:
    case Opcode::kIMad:  // multiplier + ALU adder
      return UnitClass::kAlu;
    case Opcode::kIMul: case Opcode::kIMulHi: case Opcode::kIDiv:
    case Opcode::kIRem:
      return UnitClass::kIntMulDiv;
    case Opcode::kFAdd: case Opcode::kFSub: case Opcode::kFMin:
    case Opcode::kFMax: case Opcode::kFAbs: case Opcode::kFNeg:
    case Opcode::kFSetLt: case Opcode::kFSetLe: case Opcode::kFSetGt:
    case Opcode::kFSetGe: case Opcode::kFSetEq: case Opcode::kFSetNe:
    case Opcode::kI2F: case Opcode::kF2I:
    case Opcode::kFFma:  // multiplier + FPU adder
      return UnitClass::kFpu;
    case Opcode::kFMul: case Opcode::kFDiv:
      return UnitClass::kFpMulDiv;
    case Opcode::kDAdd: case Opcode::kDSub: case Opcode::kDMul:
    case Opcode::kDDiv: case Opcode::kDFma: case Opcode::kDMin:
    case Opcode::kDMax: case Opcode::kI2D: case Opcode::kD2I:
    case Opcode::kF2D: case Opcode::kD2F:
      return UnitClass::kDpu;
    case Opcode::kFSqrt: case Opcode::kFRsqrt: case Opcode::kFRcp:
    case Opcode::kFLog2: case Opcode::kFExp2: case Opcode::kFSin:
    case Opcode::kFCos:
      return UnitClass::kSfu;
    case Opcode::kLdGlobal: case Opcode::kStGlobal:
    case Opcode::kLdShared: case Opcode::kStShared:
    case Opcode::kAtomAddGlobal: case Opcode::kAtomAddShared:
      return UnitClass::kMem;
    case Opcode::kShflDown: case Opcode::kShflIdx:
      return UnitClass::kAlu;  // executes on the SIMT datapath crossbar
    default:
      return UnitClass::kControl;
  }
}

bool is_shared(Opcode op) {
  return op == Opcode::kLdShared || op == Opcode::kStShared ||
         op == Opcode::kAtomAddShared;
}

bool is_store(Opcode op) {
  return op == Opcode::kStGlobal || op == Opcode::kStShared ||
         op == Opcode::kAtomAddGlobal || op == Opcode::kAtomAddShared;
}

bool is_add_sub(Opcode op) {
  switch (op) {
    case Opcode::kIAdd: case Opcode::kISub:
    case Opcode::kFAdd: case Opcode::kFSub:
    case Opcode::kDAdd: case Opcode::kDSub:
      return true;
    default:
      return false;
  }
}

const char* mnemonic(Opcode op) {
  switch (op) {
    case Opcode::kNop: return "nop";
    case Opcode::kIAdd: return "add.s64";
    case Opcode::kISub: return "sub.s64";
    case Opcode::kIMul: return "mul.lo.s64";
    case Opcode::kIMulHi: return "mul.hi.s64";
    case Opcode::kIDiv: return "div.s64";
    case Opcode::kIRem: return "rem.s64";
    case Opcode::kIMad: return "mad.lo.s64";
    case Opcode::kIMin: return "min.s64";
    case Opcode::kIMax: return "max.s64";
    case Opcode::kIAbs: return "abs.s64";
    case Opcode::kINeg: return "neg.s64";
    case Opcode::kIAnd: return "and.b64";
    case Opcode::kIOr: return "or.b64";
    case Opcode::kIXor: return "xor.b64";
    case Opcode::kINot: return "not.b64";
    case Opcode::kIShl: return "shl.b64";
    case Opcode::kIShrL: return "shr.u64";
    case Opcode::kIShrA: return "shr.s64";
    case Opcode::kSetEq: return "setp.eq.s64";
    case Opcode::kSetNe: return "setp.ne.s64";
    case Opcode::kSetLt: return "setp.lt.s64";
    case Opcode::kSetLe: return "setp.le.s64";
    case Opcode::kSetGt: return "setp.gt.s64";
    case Opcode::kSetGe: return "setp.ge.s64";
    case Opcode::kPAnd: return "and.pred";
    case Opcode::kPOr: return "or.pred";
    case Opcode::kPNot: return "not.pred";
    case Opcode::kSelp: return "selp.b64";
    case Opcode::kFAdd: return "add.f32";
    case Opcode::kFSub: return "sub.f32";
    case Opcode::kFMul: return "mul.f32";
    case Opcode::kFDiv: return "div.rn.f32";
    case Opcode::kFFma: return "fma.rn.f32";
    case Opcode::kFMin: return "min.f32";
    case Opcode::kFMax: return "max.f32";
    case Opcode::kFAbs: return "abs.f32";
    case Opcode::kFNeg: return "neg.f32";
    case Opcode::kFSetLt: return "setp.lt.f32";
    case Opcode::kFSetLe: return "setp.le.f32";
    case Opcode::kFSetGt: return "setp.gt.f32";
    case Opcode::kFSetGe: return "setp.ge.f32";
    case Opcode::kFSetEq: return "setp.eq.f32";
    case Opcode::kFSetNe: return "setp.ne.f32";
    case Opcode::kFSqrt: return "sqrt.approx.f32";
    case Opcode::kFRsqrt: return "rsqrt.approx.f32";
    case Opcode::kFRcp: return "rcp.approx.f32";
    case Opcode::kFLog2: return "lg2.approx.f32";
    case Opcode::kFExp2: return "ex2.approx.f32";
    case Opcode::kFSin: return "sin.approx.f32";
    case Opcode::kFCos: return "cos.approx.f32";
    case Opcode::kDAdd: return "add.f64";
    case Opcode::kDSub: return "sub.f64";
    case Opcode::kDMul: return "mul.f64";
    case Opcode::kDDiv: return "div.rn.f64";
    case Opcode::kDFma: return "fma.rn.f64";
    case Opcode::kDMin: return "min.f64";
    case Opcode::kDMax: return "max.f64";
    case Opcode::kMov: return "mov.b64";
    case Opcode::kMovImm: return "mov.imm";
    case Opcode::kMovSpecial: return "mov.special";
    case Opcode::kLdParam: return "ld.param";
    case Opcode::kI2F: return "cvt.rn.f32.s64";
    case Opcode::kF2I: return "cvt.rzi.s64.f32";
    case Opcode::kI2D: return "cvt.rn.f64.s64";
    case Opcode::kD2I: return "cvt.rzi.s64.f64";
    case Opcode::kF2D: return "cvt.f64.f32";
    case Opcode::kD2F: return "cvt.rn.f32.f64";
    case Opcode::kAtomAddGlobal: return "atom.global.add";
    case Opcode::kAtomAddShared: return "atom.shared.add";
    case Opcode::kShflDown: return "shfl.down.sync";
    case Opcode::kShflIdx: return "shfl.idx.sync";
    case Opcode::kLdGlobal: return "ld.global";
    case Opcode::kStGlobal: return "st.global";
    case Opcode::kLdShared: return "ld.shared";
    case Opcode::kStShared: return "st.shared";
    case Opcode::kBra: return "bra";
    case Opcode::kJmp: return "jmp";
    case Opcode::kBar: return "bar.sync";
    case Opcode::kExit: return "exit";
    default: return "?";
  }
}

const char* special_name(SpecialReg s) {
  switch (s) {
    case SpecialReg::kTidX: return "%tid.x";
    case SpecialReg::kTidY: return "%tid.y";
    case SpecialReg::kNtidX: return "%ntid.x";
    case SpecialReg::kNtidY: return "%ntid.y";
    case SpecialReg::kCtaidX: return "%ctaid.x";
    case SpecialReg::kCtaidY: return "%ctaid.y";
    case SpecialReg::kNctaidX: return "%nctaid.x";
    case SpecialReg::kNctaidY: return "%nctaid.y";
    case SpecialReg::kGtid: return "%gtid";
    case SpecialReg::kLaneId: return "%laneid";
    case SpecialReg::kWarpId: return "%warpid";
  }
  return "?";
}

std::string Kernel::disassemble() const {
  std::ostringstream os;
  os << ".kernel " << name << "  // " << code.size() << " instructions, "
     << shared_bytes << "B shared\n";
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    const Instruction& in = code[pc];
    os << "  " << pc << ":\t" << mnemonic(in.op);
    switch (in.op) {
      case Opcode::kMovImm:
        os << " r" << int(in.dst) << ", " << in.imm;
        break;
      case Opcode::kMovSpecial:
        os << " r" << int(in.dst) << ", " << special_name(in.special);
        break;
      case Opcode::kBra:
        os << (in.pred_negate ? " !p" : " p") << int(in.pred) << ", @"
           << in.target << " (reconv @" << in.reconv << ")";
        break;
      case Opcode::kJmp:
        os << " @" << in.target;
        break;
      case Opcode::kLdGlobal: case Opcode::kLdShared:
        os << ".b" << 8 * int(in.msize) << " r" << int(in.dst) << ", [r"
           << int(in.src1) << (in.imm >= 0 ? "+" : "") << in.imm << "]";
        break;
      case Opcode::kStGlobal: case Opcode::kStShared:
        os << ".b" << 8 * int(in.msize) << " [r" << int(in.src1)
           << (in.imm >= 0 ? "+" : "") << in.imm << "], r" << int(in.src2);
        break;
      case Opcode::kBar: case Opcode::kExit: case Opcode::kNop:
        break;
      default:
        os << " r" << int(in.dst) << ", r" << int(in.src1) << ", r"
           << int(in.src2);
        if (in.op == Opcode::kIMad || in.op == Opcode::kFFma ||
            in.op == Opcode::kDFma || in.op == Opcode::kSelp) {
          os << ", r" << int(in.src3);
        }
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace st2::isa

#include "src/sim/trace_run.hpp"

#include <type_traits>

#include "src/common/contracts.hpp"
#include "src/sim/adder_ops.hpp"
#include "src/sim/op_timing.hpp"

namespace st2::sim {

void count_instruction(isa::Opcode op, int threads, EventCounters& c) {
  c.warp_instructions += 1;
  c.thread_instructions += static_cast<std::uint64_t>(threads);

  const bool adder = adder_slices(op) != 0;
  const bool addsub = isa::is_add_sub(op);
  if (op == isa::Opcode::kIMad) c.fused_int_mul_ops += threads;
  if (op == isa::Opcode::kFFma) c.fused_fp_mul_ops += threads;
  if (op == isa::Opcode::kDFma) c.fused_dp_mul_ops += threads;
  if (op == isa::Opcode::kIDiv || op == isa::Opcode::kIRem) {
    c.int_div_ops += threads;
  }
  if (op == isa::Opcode::kFDiv) c.fp_div_ops += threads;
  switch (isa::unit_class(op)) {
    case isa::UnitClass::kAlu:
      c.alu_ops += threads;
      if (adder) c.alu_adder_ops += threads;
      if (addsub) {
        c.fig1_alu_add += threads;
      } else {
        c.fig1_alu_other += threads;
      }
      break;
    case isa::UnitClass::kIntMulDiv:
      c.int_muldiv_ops += threads;
      c.fig1_alu_other += threads;
      break;
    case isa::UnitClass::kFpu:
      c.fpu_ops += threads;
      if (adder) c.fpu_adder_ops += threads;
      if (addsub) {
        c.fig1_fpu_add += threads;
      } else {
        c.fig1_fpu_other += threads;
      }
      break;
    case isa::UnitClass::kFpMulDiv:
      c.fp_muldiv_ops += threads;
      c.fig1_fpu_other += threads;
      break;
    case isa::UnitClass::kDpu:
      c.dpu_ops += threads;
      if (adder) c.dpu_adder_ops += threads;
      c.fig1_other += threads;
      break;
    case isa::UnitClass::kSfu:
      c.sfu_ops += threads;
      c.fig1_other += threads;
      break;
    case isa::UnitClass::kMem:
      c.mem_ops += threads;
      c.fig1_other += threads;
      if (!isa::is_shared(op)) {
        c.gmem_insts += 1;
      } else {
        c.smem_accesses += 1;
      }
      break;
    case isa::UnitClass::kControl:
      c.ctrl_ops += threads;
      c.fig1_other += threads;
      break;
  }

  // Register-file traffic: operand reads and result write-back, per thread.
  const int reads = [&] {
    switch (op) {
      case isa::Opcode::kIMad: case isa::Opcode::kFFma:
      case isa::Opcode::kDFma: case isa::Opcode::kSelp:
        return 3;
      case isa::Opcode::kMovImm: case isa::Opcode::kMovSpecial:
      case isa::Opcode::kLdParam: case isa::Opcode::kBar:
      case isa::Opcode::kExit: case isa::Opcode::kJmp:
        return 0;
      case isa::Opcode::kMov: case isa::Opcode::kINot: case isa::Opcode::kINeg:
      case isa::Opcode::kIAbs: case isa::Opcode::kFAbs: case isa::Opcode::kFNeg:
      case isa::Opcode::kLdGlobal: case isa::Opcode::kLdShared:
      case isa::Opcode::kBra:
        return 1;
      case isa::Opcode::kStGlobal: case isa::Opcode::kStShared:
        return 2;
      default:
        return 2;
    }
  }();
  c.regfile_reads += static_cast<std::uint64_t>(reads * threads);
  isa::Instruction in;
  in.op = op;
  if (deps_of(in).write_reg >= 0) {
    c.regfile_writes += static_cast<std::uint64_t>(threads);
  }
}

MixTable::MixTable() {
  static_assert(std::is_standard_layout_v<EventCounters> &&
                std::is_trivially_copyable_v<EventCounters>);
  for (std::size_t o = 0; o < rows_.size(); ++o) {
    const auto op = static_cast<isa::Opcode>(o);
    EventCounters one{}, two{};
    count_instruction(op, 1, one);
    count_instruction(op, 2, two);
    Row& row = rows_[o];
    for_each_counter(one, [&](const char*, const std::uint64_t& v1) {
      const auto offset = static_cast<std::uint16_t>(
          reinterpret_cast<const unsigned char*>(&v1) -
          reinterpret_cast<const unsigned char*>(&one));
      const std::uint64_t v2 = get(two, offset);
      if (v1 == 0 && v2 == 0) return;
      const std::uint64_t per_thread = v2 - v1;
      const std::uint64_t per_warp = v1 - per_thread;
      ST2_ASSERT(row.n < static_cast<int>(row.entries.size()));
      ST2_ASSERT(per_thread <= 0xffff && per_warp <= 0xffff);
      row.entries[static_cast<std::size_t>(row.n++)] =
          Entry{offset, static_cast<std::uint16_t>(per_thread),
                static_cast<std::uint16_t>(per_warp)};
    });
  }
}

const MixTable& mix_table() {
  static const MixTable table;
  return table;
}

TraceResult trace_run(const isa::Kernel& kernel, const LaunchConfig& launch,
                      GlobalMemory& gmem, const TraceObserver& observer,
                      bool record_lane_values) {
  if (observer) {
    return trace_run_observed(kernel, launch, gmem,
                              [&](const ExecRecord& rec) { observer(rec); },
                              record_lane_values);
  }
  return trace_run_observed(kernel, launch, gmem, [](const ExecRecord&) {},
                            record_lane_values);
}

}  // namespace st2::sim

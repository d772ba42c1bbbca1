// Trace mode: functional whole-grid execution with an observer hook.
//
// The design-space figures (2, 3, 5, 6) depend only on the *value stream*
// flowing through the adders, not on cycle timing, so they are collected in
// this fast mode: blocks run one after another, warps round-robin within a
// block (preserving barrier semantics), and every executed warp-instruction
// is offered to the observer. One pass can feed any number of carry
// speculators.
//
// The grid loop is a header template over the observer so hot callers (the
// capture layer's stream-append lambda) pay a direct, inlinable call per
// executed instruction instead of a std::function dispatch. `trace_run` is
// the type-erased convenience wrapper over the same loop.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "src/common/contracts.hpp"
#include "src/isa/instruction.hpp"
#include "src/sim/counters.hpp"
#include "src/sim/functional.hpp"
#include "src/sim/launch.hpp"
#include "src/sim/memory.hpp"

namespace st2::sim {

using TraceObserver = std::function<void(const ExecRecord&)>;

struct TraceResult {
  EventCounters counters;
};

/// Adds one warp instruction of `op` with `threads` active threads to the
/// instruction-mix counters: the one definition of the mix, which trace and
/// timing mode both apply through MixTable.
void count_instruction(isa::Opcode op, int threads, EventCounters& c);

/// count_instruction interned per opcode.
///
/// Every counter count_instruction bumps is affine in the thread count:
/// delta = per_warp + per_thread * threads. So the table runs it twice per
/// opcode against scratch counters (1 thread, then 2) to solve for the
/// coefficients, and counting an instruction applies that opcode's handful
/// of multiply-adds instead of the opcode/unit switch cascade: the same
/// integer additions, just batched. Built once (mix_table()) and immutable
/// after, so replay threads share it.
class MixTable {
 public:
  MixTable();

  /// Adds one warp instruction of `op` with the lanes of `active_mask` to
  /// `c`; equal to count_instruction(op, popcount(active_mask), c).
  void count(isa::Opcode op, std::uint32_t active_mask,
             EventCounters& c) const {
    const auto threads =
        static_cast<std::uint64_t>(std::popcount(active_mask));
    const Row& row = rows_[static_cast<std::size_t>(op)];
    for (int i = 0; i < row.n; ++i) {
      const Entry& e = row.entries[static_cast<std::size_t>(i)];
      add(c, e.offset, e.per_warp + e.per_thread * threads);
    }
  }

 private:
  struct Entry {
    std::uint16_t offset;      ///< byte offset of the counter in EventCounters
    std::uint16_t per_thread;  ///< scaled by popcount(active_mask)
    std::uint16_t per_warp;    ///< charged once per warp instruction
  };
  struct Row {
    int n = 0;
    std::array<Entry, 12> entries{};
  };

  /// The counter at byte `offset` of `c`, read and written as bytes.
  static std::uint64_t get(const EventCounters& c, std::size_t offset) {
    std::uint64_t v;
    std::memcpy(&v, reinterpret_cast<const unsigned char*>(&c) + offset,
                sizeof v);
    return v;
  }
  static void add(EventCounters& c, std::size_t offset, std::uint64_t delta) {
    const std::uint64_t v = get(c, offset) + delta;
    std::memcpy(reinterpret_cast<unsigned char*>(&c) + offset, &v, sizeof v);
  }

  std::array<Row, static_cast<std::size_t>(isa::Opcode::kOpcodeCount)> rows_;
};

/// The one MixTable, built on first use.
const MixTable& mix_table();

/// Runs `kernel` over the whole grid functionally, calling `observer` (any
/// callable taking const ExecRecord&) once per executed warp instruction.
/// Instruction-mix counters are always collected. `record_lane_values`
/// forwards to ExecRecord::record_lane_values: observers that read per-lane
/// results or adder micro-ops must set it.
template <typename Observer>
TraceResult trace_run_observed(const isa::Kernel& kernel,
                               const LaunchConfig& launch, GlobalMemory& gmem,
                               Observer&& observer,
                               bool record_lane_values = false) {
  launch.validate();
  TraceResult result;
  ExecRecord rec;
  rec.record_lane_values = record_lane_values;
  const MixTable& mix = mix_table();

  // One core and one set of warp contexts serve every block: the core holds
  // no block state (block identity lives in the contexts), so blocks reuse
  // the same register files and shared-memory buffer, re-zeroed, instead of
  // reallocating them.
  const int warps = launch.warps_per_block();
  std::vector<std::uint8_t> smem(
      static_cast<std::size_t>(kernel.shared_bytes), 0);
  FunctionalCore core(kernel, launch, gmem, smem);
  std::vector<WarpContext> ctxs;
  ctxs.reserve(static_cast<std::size_t>(warps));
  for (int wi = 0; wi < warps; ++wi) {
    ctxs.emplace_back(0, wi, core.initial_mask(wi), kernel.regs_used);
  }
  std::vector<bool> finished(static_cast<std::size_t>(warps), false);

  for (int block = 0; block < launch.num_blocks(); ++block) {
    std::fill(smem.begin(), smem.end(), 0);
    for (int wi = 0; wi < warps; ++wi) {
      const auto ws = static_cast<std::size_t>(wi);
      ctxs[ws].reset(block, core.initial_mask(wi));
      finished[ws] = false;
    }

    int done = 0;
    while (done < warps) {
      bool progressed = false;
      int at_barrier = 0;
      for (int wi = 0; wi < warps; ++wi) {
        if (finished[static_cast<std::size_t>(wi)]) continue;
        // Drain this warp until it blocks: fewer barrier scans, hot caches.
        for (;;) {
          const StepStatus st =
              core.step(ctxs[static_cast<std::size_t>(wi)], rec);
          if (st == StepStatus::kExecuted) {
            progressed = true;
            mix.count(rec.instr->op, rec.active_mask, result.counters);
            observer(rec);
            continue;
          }
          if (st == StepStatus::kDone) {
            finished[static_cast<std::size_t>(wi)] = true;
            ++done;
          } else {
            ++at_barrier;
          }
          break;
        }
      }
      if (done == warps) break;
      if (at_barrier == warps - done) {
        // Every live warp reached the barrier: release it.
        for (auto& c : ctxs) FunctionalCore::release_barrier(c);
        progressed = true;
      }
      ST2_ASSERT(progressed && "deadlock: warp neither progresses nor barriers");
    }
  }
  return result;
}

/// Type-erased wrapper over trace_run_observed. `observer` may be null.
TraceResult trace_run(const isa::Kernel& kernel, const LaunchConfig& launch,
                      GlobalMemory& gmem, const TraceObserver& observer = {},
                      bool record_lane_values = false);

}  // namespace st2::sim

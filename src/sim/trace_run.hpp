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
#include <bit>
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

/// Classifies one executed record into the instruction-mix counters
/// (shared between trace and timing modes).
void count_instruction(const ExecRecord& rec, EventCounters& c);

namespace detail {

/// Interned instruction-mix accounting for the capture hot loop.
///
/// count_instruction reads only static facts of a record (opcode, unit,
/// is_shared, writes_reg) plus the active-thread count, and every counter it
/// bumps is affine in that count: delta = per_warp + per_thread * threads.
/// So the first record seen for a (pc, writes_reg, is_shared) key runs
/// count_instruction twice against scratch counters (1 thread, then 2) to
/// solve for the coefficients, and every later record applies the memoized
/// entries — a handful of multiply-adds instead of the full opcode/unit
/// switch cascade per executed instruction. Byte-identical totals: the
/// per-entry sums are the exact same integer additions, just batched.
class MixInterner {
 public:
  MixInterner(std::size_t code_size, EventCounters& target)
      : progs_(code_size * 4) {
    for_each_counter(target,
                     [this](const char*, std::uint64_t& v) {
                       slots_.push_back(&v);
                     });
  }

  void count(const ExecRecord& rec) {
    const std::size_t variant = (rec.writes_reg ? 1u : 0u) +
                                (rec.is_shared ? 2u : 0u);
    Prog& p = progs_[static_cast<std::size_t>(rec.pc) * 4 + variant];
    if (p.n < 0) build(rec, p);
    const auto threads =
        static_cast<std::uint64_t>(std::popcount(rec.active_mask));
    for (int i = 0; i < p.n; ++i) {
      const Prog::Entry& e = p.entries[static_cast<std::size_t>(i)];
      *slots_[e.idx] += e.per_warp + e.per_thread * threads;
    }
  }

 private:
  struct Prog {
    struct Entry {
      std::uint32_t idx;
      std::uint64_t per_thread;
      std::uint64_t per_warp;
    };
    static constexpr int kMaxEntries = 12;
    std::int32_t n = -1;  ///< entry count; -1 = not built yet
    Entry entries[kMaxEntries];
  };

  void build(const ExecRecord& rec, Prog& p) {
    EventCounters one{}, two{};
    ExecRecord probe = rec;
    probe.active_mask = 0x1;  // 1 thread
    count_instruction(probe, one);
    probe.active_mask = 0x3;  // 2 threads
    count_instruction(probe, two);
    p.n = 0;
    // for_each_counter visits in one fixed order — the same order the slot
    // pointers were captured in — so position pairs the two snapshots.
    std::vector<std::uint64_t> twos;
    twos.reserve(slots_.size());
    for_each_counter(two,
                     [&](const char*, std::uint64_t& v) { twos.push_back(v); });
    std::uint32_t idx = 0;
    for_each_counter(one, [&](const char*, std::uint64_t& v1) {
      const std::uint64_t v2 = twos[idx];
      if (v1 != 0 || v2 != 0) {
        ST2_ASSERT(p.n < Prog::kMaxEntries);
        const std::uint64_t per_thread = v2 - v1;
        p.entries[p.n++] = Prog::Entry{idx, per_thread, v1 - per_thread};
      }
      ++idx;
    });
  }

  std::vector<Prog> progs_;  ///< indexed by pc * 4 + variant
  std::vector<std::uint64_t*> slots_;
};

}  // namespace detail

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
  detail::MixInterner mix(kernel.code.size(), result.counters);

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
            mix.count(rec);
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

#include "src/sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "src/common/contracts.hpp"
#include "src/sim/functional.hpp"
#include "src/sim/jobs.hpp"
#include "src/sim/trace_run.hpp"
#include "src/spec/predictor.hpp"

namespace st2::sim {

namespace {

/// Appends one executed warp instruction to its replay stream.
void append_op(WarpStream& ws, const ExecRecord& rec, int line_bytes,
               bool capture_adder) {
  TraceOp t;
  t.pc = rec.pc;
  t.active_mask = rec.active_mask;

  const isa::Opcode op = rec.instr->op;
  if (isa::unit_class(op) == isa::UnitClass::kMem && !isa::is_shared(op)) {
    // Coalesce active lanes into unique cache lines, preserving first-touch
    // order so the replayed LRU state matches lane order exactly. The
    // duplicate probe runs over a sorted shadow of the ≤32 lines (binary
    // search + small memmove insert) instead of rescanning the emitted list
    // per lane — same lines, same order, fewer compares on memory-heavy
    // kernels.
    t.payload = static_cast<std::uint32_t>(ws.lines.size());
    std::uint64_t sorted[kWarpSize];
    int n = 0;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (((rec.active_mask >> lane) & 1u) == 0) continue;
      const std::uint64_t line =
          rec.mem_addr[static_cast<std::size_t>(lane)] /
          static_cast<unsigned>(line_bytes);
      std::uint64_t* const pos = std::lower_bound(sorted, sorted + n, line);
      if (pos != sorted + n && *pos == line) continue;
      std::copy_backward(pos, sorted + n, sorted + n + 1);
      *pos = line;
      ++n;
      ws.lines.push_back(line);
    }
    t.mem_lines = static_cast<std::uint16_t>(n);
  } else if (rec.has_adder_op && capture_adder) {
    // The value-dependent speculation inputs of the active lanes, as
    // step() resolved them (two planes, eight masked 8-byte copies); replay
    // combines them with the CRF history, which is timing-dependent.
    t.payload = static_cast<std::uint32_t>(ws.adder_lanes.size());
    ws.adder_lanes.push_back(rec.lanes.masked(rec.active_mask));
  }
  ws.ops.push_back(t);
}

}  // namespace

GridCapture capture_grid(const GpuConfig& cfg, const isa::Kernel& kernel,
                         const LaunchConfig& launch, GlobalMemory& gmem,
                         const TraceObserver& observer,
                         bool record_lane_values) {
  launch.validate();
  GridCapture cap;
  cap.per_sm.resize(static_cast<std::size_t>(cfg.num_sms));

  // Pre-size each SM's block list, then fill: block b goes to SM b % num_sms
  // (the chip's round-robin block dispatcher), landing at slot b / num_sms.
  const int warps = launch.warps_per_block();
  const int num_blocks = launch.num_blocks();
  for (int b = 0; b < num_blocks; ++b) {
    cap.per_sm[static_cast<std::size_t>(b % cfg.num_sms)]
        .blocks.emplace_back();
  }
  // Flat stream lookup table: the observer fires once per executed warp
  // instruction, so it should not pay two divisions and three vector hops
  // to find its stream. Stream pointers are stable — every vector above is
  // fully sized before capture starts.
  std::vector<WarpStream*> streams(static_cast<std::size_t>(num_blocks) *
                                   static_cast<std::size_t>(warps));
  for (int b = 0; b < num_blocks; ++b) {
    BlockWork& bw = cap.per_sm[static_cast<std::size_t>(b % cfg.num_sms)]
                        .blocks[static_cast<std::size_t>(b / cfg.num_sms)];
    bw.block_flat = b;
    bw.warps.resize(static_cast<std::size_t>(warps));
    for (int w = 0; w < warps; ++w) {
      streams[static_cast<std::size_t>(b) * static_cast<std::size_t>(warps) +
              static_cast<std::size_t>(w)] =
          &bw.warps[static_cast<std::size_t>(w)];
    }
  }

  // The canonical functional pass IS trace mode: side effects land in block
  // order, once, no matter how the replay is parallelized.
  const int line_bytes = cfg.line_bytes;
  const bool capture_adder = cfg.st2_enabled;
  // trace_run_observed: the append lambda inlines into the trace loop —
  // no type-erased dispatch on the once-per-instruction path.
  trace_run_observed(kernel, launch, gmem, [&](const ExecRecord& rec) {
    WarpStream& ws =
        *streams[static_cast<std::size_t>(rec.block_flat) *
                     static_cast<std::size_t>(warps) +
                 static_cast<std::size_t>(rec.warp_in_block)];
    append_op(ws, rec, line_bytes, capture_adder);
    if (observer) observer(rec);
  }, record_lane_values);
  return cap;
}

ExecutionEngine::ExecutionEngine(const GpuConfig& cfg, EngineOptions opts)
    : cfg_(cfg), opts_(opts) {}

RunReport ExecutionEngine::replay(const isa::Kernel& kernel,
                                  const GridCapture& capture) {
  ST2_EXPECTS(capture.per_sm.size() ==
              static_cast<std::size_t>(cfg_.num_sms));

  // SMs with work, in ascending index order. Validate admissibility up
  // front, on this thread: a block that can never fit (too many warps, too
  // much shared memory) would otherwise leave its SmCore spinning forever,
  // and a throw from a worker thread would terminate the process.
  std::vector<int> work_sms;
  for (int sm = 0; sm < cfg_.num_sms; ++sm) {
    const SmWorkload& work = capture.per_sm[static_cast<std::size_t>(sm)];
    if (!work.blocks.empty()) {
      validate_admissible(cfg_, kernel, work);
      work_sms.push_back(sm);
    }
  }
  const int jobs = std::max(
      1, std::min<int>(opts_.jobs > 0 ? opts_.jobs : hardware_threads(),
                       static_cast<int>(work_sms.size())));
  std::vector<SmReport> reports(work_sms.size());

  // Watchdog / cancellation state shared by the workers. The cycle budget is
  // applied per SM (each stops at min(own finish, budget) — deterministic
  // across any thread schedule); the wall deadline and the external cancel
  // flag propagate through `stop` so already-running and still-queued SMs
  // wind down within one check quantum.
  const std::uint64_t budget = opts_.watchdog_cycles;
  const bool timed = opts_.watchdog_ms > 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(timed ? opts_.watchdog_ms : 0);
  const std::atomic<bool>* const cancel = opts_.cancel;
  const bool async_checks = timed || cancel != nullptr;
  std::atomic<const char*> stop{nullptr};  // set once: the first async cause
  constexpr std::uint64_t kQuantumMask = 0x1fff;  // async checks every 8192

  // Builds SM i's core, steps it to its finish or an abort cause, seals it
  // and frees it: a worker holds at most one live core. The budget is
  // checked before each step, so a core stops at the first state with
  // now() >= budget.
  auto run_sm = [&](std::size_t i) {
    SmCore core(cfg_, kernel,
                capture.per_sm[static_cast<std::size_t>(work_sms[i])]);
    const char* reason = stop.load(std::memory_order_relaxed);
    for (std::uint64_t steps = 0; reason == nullptr;) {
      if (budget != 0 && core.now() >= budget) {
        reason = "watchdog-cycles";
        break;
      }
      if (!core.step_cycle()) break;
      if (async_checks && (++steps & kQuantumMask) == 0) {
        if (cancel && cancel->load(std::memory_order_relaxed)) {
          reason = "interrupted";
        } else if (timed && std::chrono::steady_clock::now() >= deadline) {
          reason = "watchdog-deadline";
        }
        if (reason != nullptr) {
          const char* expected = nullptr;
          stop.compare_exchange_strong(expected, reason,
                                       std::memory_order_relaxed);
        }
      }
    }
    core.seal();  // partial or final; runs the always-on invariants
    SmReport& rep = reports[i];
    rep.sm = work_sms[i];
    rep.counters = core.counters();
    rep.timeline = core.timeline();
    if (reason != nullptr && !core.finished()) {
      rep.aborted = true;
      rep.abort_reason = reason;
    }
  };

  // Each worker claims SMs from a shared atomic cursor and touches only its
  // own report and error slot; determinism needs no further coordination
  // because every SmCore is a pure function of (config, kernel, workload).
  // A throw inside a worker (e.g. an invariant violation at seal) is
  // captured and rethrown on this thread — never std::terminate.
  std::vector<std::exception_ptr> errors(work_sms.size());
  auto guarded = [&](std::size_t i) {
    try {
      run_sm(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  if (jobs <= 1) {
    for (std::size_t i = 0; i < work_sms.size(); ++i) guarded(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t) {
      pool.emplace_back([&] {
        for (;;) {
          const std::size_t n = next.fetch_add(1, std::memory_order_relaxed);
          if (n >= work_sms.size()) return;
          guarded(n);
        }
      });
    }
    for (auto& th : pool) th.join();
  }

  // Rethrow the first captured error in SM order (deterministic choice).
  for (std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return RunReport::reduce(std::move(reports), cfg_.num_sms, jobs,
                           cfg_.timeline_bucket);
}

GridCapture ExecutionEngine::capture(const isa::Kernel& kernel,
                                     const LaunchConfig& launch,
                                     GlobalMemory& gmem) {
  return opts_.capture_provider != nullptr
             ? opts_.capture_provider->provide(cfg_, kernel, launch, gmem)
             : capture_grid(cfg_, kernel, launch, gmem);
}

RunReport ExecutionEngine::run(const isa::Kernel& kernel,
                               const LaunchConfig& launch,
                               GlobalMemory& gmem) {
  return replay(kernel, capture(kernel, launch, gmem));
}

}  // namespace st2::sim

#include "src/sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <thread>

#include "src/common/contracts.hpp"
#include "src/sim/functional.hpp"
#include "src/sim/trace_run.hpp"
#include "src/snapshot/serial.hpp"
#include "src/spec/predictor.hpp"

namespace st2::sim {

namespace {

/// Appends one executed warp instruction to its replay stream.
void append_op(WarpStream& ws, const ExecRecord& rec, int line_bytes,
               bool capture_adder) {
  TraceOp t;
  t.pc = rec.pc;
  t.active_mask = rec.active_mask;
  if (rec.is_mem) t.flags |= TraceOp::kIsMem;
  if (rec.is_store) t.flags |= TraceOp::kIsStore;
  if (rec.is_shared) t.flags |= TraceOp::kIsShared;
  if (rec.has_adder_op) t.flags |= TraceOp::kHasAdder;
  if (rec.writes_reg) t.flags |= TraceOp::kWritesReg;

  if (rec.is_mem && !rec.is_shared) {
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
    // Pre-resolve the value-dependent speculation inputs per active lane;
    // replay combines them with the CRF history, which is timing-dependent.
    t.payload = static_cast<std::uint32_t>(ws.adder_lanes.size());
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if (((rec.active_mask >> lane) & 1u) == 0) continue;
      const AdderMicroOp& m = rec.adder[static_cast<std::size_t>(lane)];
      ws.adder_lanes.push_back(
          spec::lane_record(m.a, m.b, m.cin, m.num_slices));
    }
  }
  ws.ops.push_back(t);
}

}  // namespace

GridCapture capture_grid(const GpuConfig& cfg, const isa::Kernel& kernel,
                         const LaunchConfig& launch, GlobalMemory& gmem,
                         const TraceObserver& observer) {
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
  });
  return cap;
}

ExecutionEngine::ExecutionEngine(const GpuConfig& cfg, EngineOptions opts)
    : cfg_(cfg), opts_(opts) {}

int ExecutionEngine::resolved_jobs() const {
  if (opts_.jobs > 0) return opts_.jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

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

  std::vector<SmReport> reports(work_sms.size());
  const int jobs =
      std::max(1, std::min<int>(resolved_jobs(),
                                static_cast<int>(work_sms.size())));

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

  // Each worker claims SM indices from a shared atomic cursor and writes
  // only its own report slot; determinism needs no further coordination
  // because every SmCore is a pure function of (config, kernel, workload).
  // A throw inside a worker (e.g. an invariant violation at seal) is
  // captured and rethrown on this thread — never std::terminate.
  std::vector<std::exception_ptr> errors(work_sms.size());
  auto replay_sm = [&](std::size_t i) {
    const int sm = work_sms[i];
    SmCore core(cfg_, kernel, capture.per_sm[static_cast<std::size_t>(sm)]);
    reports[i].sm = sm;
    const char* reason = stop.load(std::memory_order_relaxed);
    std::uint64_t steps = 0;
    while (reason == nullptr && core.step_cycle()) {
      if (budget != 0 && core.now() >= budget) {
        reason = "watchdog-cycles";
        break;
      }
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
    reports[i].counters = core.counters();
    reports[i].timeline = core.timeline();
    if (reason != nullptr && !core.finished()) {
      reports[i].aborted = true;
      reports[i].abort_reason = reason;
    }
  };
  auto guarded_replay = [&](std::size_t i) {
    try {
      replay_sm(i);
    } catch (...) {
      errors[i] = std::current_exception();
      reports[i].sm = work_sms[i];
    }
  };

  if (jobs <= 1) {
    for (std::size_t i = 0; i < work_sms.size(); ++i) guarded_replay(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t) {
      pool.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= work_sms.size()) return;
          guarded_replay(i);
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

namespace {

/// FNV-1a fingerprint of an SM workload's *structure* (block ids, warp
/// counts, stream lengths). A snapshot taken against one capture can only
/// be restored against a structurally identical one: every index the
/// restored SmCore state holds (cursors, stream pointers, payload offsets)
/// is then provably meaningful. Contents need no hashing — the capture is a
/// deterministic function of (kernel, launch, inputs), all of which the
/// CLI-level config hash already pins.
std::uint64_t workload_structure_hash(const SmWorkload& work) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(work.blocks.size());
  for (const BlockWork& bw : work.blocks) {
    mix(static_cast<std::uint64_t>(bw.block_flat));
    mix(bw.warps.size());
    for (const WarpStream& ws : bw.warps) {
      mix(ws.ops.size());
      mix(ws.lines.size());
      mix(ws.adder_lanes.size());
    }
  }
  return h;
}

}  // namespace

RunReport ExecutionEngine::replay(const isa::Kernel& kernel,
                                  const GridCapture& capture,
                                  const ReplayCheckpoint* ck) {
  if (ck == nullptr || (ck->every == 0 && !ck->sink && !ck->resume)) {
    return replay(kernel, capture);
  }
  ST2_EXPECTS(capture.per_sm.size() ==
              static_cast<std::size_t>(cfg_.num_sms));

  std::vector<int> work_sms;
  for (int sm = 0; sm < cfg_.num_sms; ++sm) {
    const SmWorkload& work = capture.per_sm[static_cast<std::size_t>(sm)];
    if (!work.blocks.empty()) {
      validate_admissible(cfg_, kernel, work);
      work_sms.push_back(sm);
    }
  }
  const int jobs =
      std::max(1, std::min<int>(resolved_jobs(),
                                static_cast<int>(work_sms.size())));

  // Unlike the plain path, cores live across epochs, so they are owned here
  // and constructed up front (serially — construction order must not depend
  // on thread schedule when resuming).
  struct CoreRun {
    std::unique_ptr<SmCore> core;
    std::uint64_t steps = 0;       ///< async-check cadence counter
    const char* reason = nullptr;  ///< abort cause (static string)
    bool done = false;             ///< finished or aborted; stop stepping
  };
  std::vector<CoreRun> runs(work_sms.size());
  std::vector<std::uint64_t> structure(work_sms.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const SmWorkload& work =
        capture.per_sm[static_cast<std::size_t>(work_sms[i])];
    runs[i].core = std::make_unique<SmCore>(cfg_, kernel, work);
    structure[i] = workload_structure_hash(work);
  }

  if (ck->resume != nullptr) {
    snapshot::Reader r(*ck->resume, "engine state");
    const std::uint32_t n = r.u32();
    r.require(n == runs.size(),
              "working-SM count differs from the current launch");
    for (std::size_t i = 0; i < runs.size(); ++i) {
      r.require(r.u32() == static_cast<std::uint32_t>(work_sms[i]),
                "SM index differs from the current launch");
      r.require(r.u64() == structure[i],
                "workload structure differs from the snapshotted capture");
      runs[i].steps = r.u64();
      runs[i].core->restore_state(r);
      runs[i].done = runs[i].core->finished();
    }
    r.require(r.done(), "trailing bytes after the engine state");
  }

  const std::uint64_t budget = opts_.watchdog_cycles;
  const bool timed = opts_.watchdog_ms > 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(timed ? opts_.watchdog_ms : 0);
  const std::atomic<bool>* const cancel = opts_.cancel;
  const bool async_checks = timed || cancel != nullptr;
  std::atomic<const char*> stop{nullptr};
  constexpr std::uint64_t kQuantumMask = 0x1fff;

  // Advances one SM until the epoch boundary, its own finish, or an abort
  // cause. The budget check runs *before* each step, so a core stops at the
  // first state with now() >= budget — the same state the plain path's
  // post-step check stops at — and a resumed core already past the budget
  // never steps again.
  auto advance_to = [&](std::size_t i, std::uint64_t boundary) {
    CoreRun& cr = runs[i];
    SmCore& core = *cr.core;
    const char* reason = stop.load(std::memory_order_relaxed);
    while (reason == nullptr && core.now() < boundary) {
      if (budget != 0 && core.now() >= budget) {
        reason = "watchdog-cycles";
        break;
      }
      if (!core.step_cycle()) {
        cr.done = true;
        return;
      }
      if (async_checks && (++cr.steps & kQuantumMask) == 0) {
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
    if (reason != nullptr) {
      cr.reason = reason;
      cr.done = true;
    }
  };

  std::vector<std::exception_ptr> errors(runs.size());
  bool failed = false;
  auto run_epoch = [&](std::uint64_t boundary) {
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (!runs[i].done) live.push_back(i);
    }
    auto guarded = [&](std::size_t i) {
      try {
        advance_to(i, boundary);
      } catch (...) {
        errors[i] = std::current_exception();
        runs[i].done = true;
        failed = true;
      }
    };
    const int epoch_jobs = std::min<int>(jobs, static_cast<int>(live.size()));
    if (epoch_jobs <= 1) {
      for (const std::size_t i : live) guarded(i);
    } else {
      std::atomic<std::size_t> next{0};
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(epoch_jobs));
      for (int t = 0; t < epoch_jobs; ++t) {
        pool.emplace_back([&] {
          for (;;) {
            const std::size_t n = next.fetch_add(1,
                                                 std::memory_order_relaxed);
            if (n >= live.size()) return;
            guarded(live[n]);
          }
        });
      }
      for (auto& th : pool) th.join();
    }
  };

  // Serializes the full engine state in ascending SM order; the always-on
  // SmCore invariants are validated first so a corrupt state can never be
  // checkpointed.
  auto serialize_state = [&]() {
    snapshot::Writer w;
    w.u32(static_cast<std::uint32_t>(runs.size()));
    for (std::size_t i = 0; i < runs.size(); ++i) {
      runs[i].core->validate_invariants();
      w.u32(static_cast<std::uint32_t>(work_sms[i]));
      w.u64(structure[i]);
      w.u64(runs[i].steps);
      runs[i].core->save_state(w);
    }
    return w.take();
  };

  // Epoch-barrier loop: run every live SM to the next common boundary (the
  // first multiple of `every` past the slowest live SM — skip_idle_cycles
  // may leave cores past earlier boundaries), snapshot, repeat. With
  // every == 0 there is a single epoch to completion/abort.
  for (;;) {
    std::uint64_t min_now = ~std::uint64_t{0};
    for (const CoreRun& cr : runs) {
      if (!cr.done) min_now = std::min(min_now, cr.core->now());
    }
    if (min_now == ~std::uint64_t{0}) break;  // all finished or aborted
    if (stop.load(std::memory_order_relaxed) != nullptr || failed) break;
    const std::uint64_t boundary =
        ck->every > 0 ? (min_now / ck->every + 1) * ck->every
                      : ~std::uint64_t{0};
    run_epoch(boundary);
    if (failed || stop.load(std::memory_order_relaxed) != nullptr) break;
    bool all_done = true;
    for (const CoreRun& cr : runs) all_done = all_done && cr.done;
    if (ck->every > 0 && ck->sink && !all_done) {
      ck->sink(serialize_state(), boundary, false);
    }
  }

  // Rethrow the first captured error in SM order (deterministic choice); an
  // errored replay is not resumable, so no abort snapshot is taken.
  for (std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  // Abort-time snapshot: the run was cut short (watchdog budget/deadline or
  // external cancel) but every core sits at a valid cycle boundary, so the
  // partial state is saved and the caller can mark the run resumable.
  bool any_aborted = false;
  std::uint64_t abort_cycle = ~std::uint64_t{0};
  for (const CoreRun& cr : runs) {
    if (cr.reason != nullptr && !cr.core->finished()) {
      any_aborted = true;
      abort_cycle = std::min(abort_cycle, cr.core->now());
    }
  }
  if (any_aborted && ck->sink) {
    ck->sink(serialize_state(), abort_cycle, true);
  }

  std::vector<SmReport> reports(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SmCore& core = *runs[i].core;
    core.seal();  // partial or final; runs the always-on invariants
    reports[i].sm = work_sms[i];
    reports[i].counters = core.counters();
    reports[i].timeline = core.timeline();
    if (runs[i].reason != nullptr && !core.finished()) {
      reports[i].aborted = true;
      reports[i].abort_reason = runs[i].reason;
    }
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

// The one run path (docs/simulator.md, "The run path"): `st2sim run`,
// `st2sim serve` and the figure benches all turn options into timing
// results through this file, so the option rules, the machine mapping and
// the launch loop exist exactly once.
//
//   RunSpec    the options that define a timing run, their validation rules
//              and their mapping to GpuConfig + EngineOptions
//   run_case   the launch loop: per launch, capture (through the engine's
//              capture provider) then replay, stopping at the first aborted
//              launch, then the host-reference validation
//   run_all    the `all` sweep and its per-kernel failure guard
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/sim/config.hpp"
#include "src/sim/counters.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/error.hpp"
#include "src/sim/report.hpp"
#include "src/spec/policy.hpp"
#include "src/workloads/workload.hpp"

namespace st2::run {

/// The simulated machine and the engine that replays on it.
struct Machine {
  sim::GpuConfig cfg{};
  sim::EngineOptions opts{};
};

/// The options that define one timing run. Every front end fills one: the
/// CLI from argv, the serve codec from a request line. Process wiring — the
/// cancel flag, the capture provider and the timeline bucket — is not part
/// of the spec; callers set it on the Machine.
struct RunSpec {
  std::string kernel;  ///< kernel name, or "all" for the whole suite
  double scale = 0.5;  ///< input scale, in (0, 4]
  bool st2 = false;    ///< the ST2 machine instead of the baseline
  bool lrr = false;    ///< loose round-robin warp scheduling instead of GTO
  int sms = 20;
  int jobs = 1;        ///< SM replay worker threads
  int max_warps = 0;   ///< warp slots per SM; 0 = the config default
  spec::PredictorConfig spec_policy;  ///< carry-predictor policy (st2 only)
  fault::FaultConfig inject;          ///< seeded faults (st2 only)
  std::uint64_t watchdog_cycles = 0;  ///< per-SM replay cycle budget; 0 = off
  std::uint64_t watchdog_ms = 0;      ///< replay wall deadline; 0 = off

  /// Checks every option rule and throws SimError(kBadArguments) naming
  /// the first one broken. `jobs` goes through sim::validate_thread_count,
  /// so it is clamped to the hardware thread count with a warning.
  void validate();

  /// The machine and engine options this spec selects.
  Machine machine() const;
};

/// A kernel's totals over its launches.
struct CaseResult {
  sim::EventCounters counters;  ///< chip counters summed over the launches
  std::uint64_t cycles = 0;     ///< launch wall cycles summed
  std::string abort_reason;     ///< why the last replayed launch aborted
  bool valid = false;  ///< host validation passed; not run after an abort

  /// The st2sim exit code of the case: 0 ok, 1 validation failed,
  /// 4 watchdog aborted, 130 interrupted.
  int exit_code() const;
};

/// Optional hooks of the launch loop; the defaults run the plain loop.
struct LaunchHooks {
  /// Sees each replayed launch's report, an aborted one's partial report
  /// included, before it is added to the totals.
  std::function<void(std::size_t launch, const sim::RunReport& report)>
      on_report;
  /// Wall-time accumulators (seconds) for the capture and replay phases.
  double* capture_s = nullptr;
  double* replay_s = nullptr;
};

/// The launch loop: captures and replays every launch of `pc` in order on
/// `m`, stops after the first aborted launch (later launches would run on
/// inconsistent timing state), then runs the host validation. A raised
/// `m.opts.cancel` flag also stops it before any later launch, as
/// "interrupted" and without validation.
CaseResult run_case(const Machine& m, workloads::PreparedCase& pc,
                    const LaunchHooks& hooks = {});

/// The exception being handled, as every front end reports it: a SimError
/// as itself, std::invalid_argument as bad arguments (exit 2), anything else
/// as an invariant violation (exit 5, a simulator bug). Call only from a
/// catch block.
sim::SimError current_error();

/// Prints `e` as the one-line `error[kind]: message` diagnostic on stderr
/// and returns its exit code.
int report_error(const sim::SimError& e);

/// The per-kernel failure guard: returns `body`'s exit code, or reports what
/// it threw (current_error) and returns that exit code instead.
int guarded(const std::function<int()>& body);

/// The `all` sweep: runs `kernel(name)` under `guarded` for each case of
/// workloads::case_list() in order. The exit code is sticky — the first
/// non-zero one wins — so a failing kernel degrades it without stopping the
/// sweep; an interrupt (exit 130, or `cancel` set) stops it.
int run_all(const std::function<int(const std::string& name)>& kernel,
            const std::atomic<bool>* cancel = nullptr);

/// Joins report elements into the JSON array document `--json` writes.
std::string json_array(const std::vector<std::string>& elements);

/// Scoped phase timer: adds the elapsed wall time to `*acc` on destruction
/// (no-op when `acc` is null).
class PhaseTimer {
 public:
  explicit PhaseTimer(double* acc)
      : acc_(acc), start_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    if (acc_ == nullptr) return;
    *acc_ += std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - start_)
                 .count();
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double* acc_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace st2::run

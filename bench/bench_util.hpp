// Shared helpers for the figure/table reproduction binaries. Each bench is a
// standalone executable that prints the same rows/series as the paper's
// artefact and drops a CSV next to the binary (bench_out/<name>.csv).
#pragma once

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "src/common/table.hpp"
#include "src/run/run.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/error.hpp"
#include "src/sim/trace_run.hpp"
#include "src/snapshot/snapshot.hpp"
#include "src/tracecache/tracecache.hpp"

namespace st2::bench {

/// Prints the structured `error[kind]: message` line and exits with the
/// kind's documented code — how every bench reports a fatal failure.
[[noreturn]] inline void die(const sim::SimError& e) {
  std::exit(run::report_error(e));
}

/// Benchmark scale factor: BENCH_SCALE env var overrides the default 0.5
/// (full evaluation inputs = 1.0; CI smoke = 0.25). The value must be a
/// plain decimal in (0, 4] — trailing junk ("0.5x"), non-numbers, and
/// non-positive or oversized scales abort with exit code 2 rather than
/// silently falling back and skewing every figure in the sweep.
inline double bench_scale() {
  const char* s = std::getenv("BENCH_SCALE");
  if (s == nullptr || *s == '\0') return 0.5;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v > 0.0) || v > 4.0) {
    std::cerr << "error[bad-arguments]: BENCH_SCALE='" << s
              << "' is not a decimal in (0, 4]\n";
    std::exit(sim::kExitBadArguments);
  }
  return v;
}

/// Process-wide trace cache for the bench binaries: every timing run of a
/// kernel after the first replays the same captured value streams instead of
/// re-running the serial functional pass. BENCH_TRACE_CACHE controls the
/// tiers:
///   unset / ""   in-memory memo only (the default — pure intra-process)
///   "memo"       same, spelled out
///   "off" / "0"  caching disabled entirely (the pre-cache behaviour)
///   DIR          memo + content-addressed disk tier in DIR, shared across
///                bench binaries and invocations
/// Either way the table output is bit-identical (the cache contract).
///
/// Any other value is a directory, and it must exist or be creatable: an
/// unwritable path used to escape the lazy initializer as an uncaught
/// SimError (std::terminate, no diagnostic) — now it exits 7 with the
/// structured io-error line. A disk tier announces its resolved absolute
/// path once on stderr, so benches run from different working directories
/// can tell immediately whether they actually share one cache.
inline tracecache::TraceCache* trace_cache() {
  static const std::unique_ptr<tracecache::TraceCache> cache = [] {
    const char* s = std::getenv("BENCH_TRACE_CACHE");
    const std::string v = s == nullptr ? "" : s;
    if (v == "off" || v == "0") return std::unique_ptr<tracecache::TraceCache>();
    tracecache::CacheOptions opts;
    if (v != "memo") opts.dir = v;
    try {
      auto cache = std::make_unique<tracecache::TraceCache>(opts);
      if (!opts.dir.empty()) {
        std::error_code ec;
        const std::filesystem::path abs =
            std::filesystem::absolute(opts.dir, ec);
        std::cerr << "bench: trace-cache disk tier at "
                  << (ec ? opts.dir : abs.string()) << "\n";
      }
      return cache;
    } catch (const sim::SimError& e) {
      die(e);
    }
  }();
  return cache.get();
}

/// Prepares `kernel` at `scale` and runs all its launches on `cfg` through
/// the shared launch loop (run::run_case), with the bench trace cache as the
/// capture provider (none when BENCH_TRACE_CACHE=off).
inline run::CaseResult run_kernel(const std::string& kernel, double scale,
                                  const sim::GpuConfig& cfg) {
  run::Machine m{cfg};
  m.opts.capture_provider = trace_cache();
  workloads::PreparedCase pc = workloads::prepare_case(kernel, scale);
  return run::run_case(m, pc);
}

/// Functional trace pass for observer-driven benches. With the cache active
/// it runs through TraceCache::populate, so the same pass also produces the
/// capture later timing runs consume. `store_capture` says whether this
/// binary has such a consumer; without one, the capture is only worth
/// recording when a disk tier will persist it for other binaries.
/// `record_lane_values` is ExecRecord::record_lane_values.
inline void trace_pass(const isa::Kernel& kernel, const sim::LaunchConfig& lc,
                       sim::GlobalMemory& gmem, const sim::TraceObserver& obs,
                       bool store_capture, bool record_lane_values = false) {
  tracecache::TraceCache* cache = trace_cache();
  if (cache != nullptr && (store_capture || !cache->options().dir.empty())) {
    cache->populate(sim::GpuConfig{}, kernel, lc, gmem, obs,
                    record_lane_values);
  } else {
    sim::trace_run(kernel, lc, gmem, obs, record_lane_values);
  }
}

/// Prints the table and writes its CSV to bench_out/<stem>.csv. The write
/// is atomic and checked: a CSV that cannot be written is an
/// `error[io-error]` exit (code 7), never a silently missing figure.
inline void emit(const Table& t, const std::string& stem) {
  std::cout << t << "\n";
  std::error_code ec;  // a failure here surfaces as the write's io error
  std::filesystem::create_directories("bench_out", ec);
  try {
    snapshot::atomic_write_file("bench_out/" + stem + ".csv", t.to_csv());
  } catch (const sim::SimError& e) {
    die(e);
  }
}

}  // namespace st2::bench

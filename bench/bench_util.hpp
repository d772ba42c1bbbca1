// Shared helpers for the figure/table reproduction binaries. Each bench is a
// standalone executable that prints the same rows/series as the paper's
// artefact and drops a CSV next to the binary (bench_out/<name>.csv).
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/common/table.hpp"
#include "src/orch/fragment.hpp"
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

/// Shard identity for the sweep benches, parsed once from BENCH_SHARD
/// ("i/n"). Unset means the serial run: one shard owning every unit, which
/// is the exact pre-shard behaviour. The parse is strict — anything but two
/// decimal integers with 0 <= i < n <= 256 is a structured
/// `error[bad-arguments]` exit (code 2), matching the BENCH_SCALE contract,
/// because a silently misparsed shard would drop table rows from the sweep.
struct ShardSpec {
  int index = 0;
  int count = 1;
};

inline const ShardSpec& shard() {
  static const ShardSpec spec = [] {
    ShardSpec out;
    const char* e = std::getenv("BENCH_SHARD");
    if (e == nullptr || *e == '\0') return out;
    const auto reject = [&] {
      std::cerr << "error[bad-arguments]: BENCH_SHARD='" << e
                << "' must be i/n with 0 <= i < n <= 256\n";
      std::exit(sim::kExitBadArguments);
    };
    const std::string s = e;
    const std::size_t slash = s.find('/');
    if (slash == std::string::npos || slash == 0 || slash + 1 == s.size()) {
      reject();
    }
    long vals[2] = {0, 0};
    const std::string parts[2] = {s.substr(0, slash), s.substr(slash + 1)};
    for (int p = 0; p < 2; ++p) {
      if (parts[p].size() > 3) reject();
      for (const char c : parts[p]) {
        if (c < '0' || c > '9') reject();
        vals[p] = vals[p] * 10 + (c - '0');
      }
    }
    if (vals[1] < 1 || vals[1] > 256 || vals[0] >= vals[1]) reject();
    out.index = static_cast<int>(vals[0]);
    out.count = static_cast<int>(vals[1]);
    return out;
  }();
  return spec;
}

/// Does this shard own work unit `unit` of the bench's serial enumeration?
inline bool shard_owns(int unit) {
  return unit % shard().count == shard().index;
}

/// Liveness beat for the sweep supervisor: bumps a counter in the file
/// BENCH_HEARTBEAT names (no-op when unset). pwrite at offset 0 of a
/// monotonically growing decimal — the content always changes, so the
/// supervisor's change detector sees progress without any locking. Failures
/// are swallowed: a bench must not die because its watchdog file did.
inline void heartbeat() {
  static const char* path = std::getenv("BENCH_HEARTBEAT");
  if (path == nullptr || *path == '\0') return;
  static const int fd = ::open(path, O_WRONLY | O_CREAT, 0644);
  if (fd < 0) return;
  static std::uint64_t beats = 0;
  const std::string s = std::to_string(++beats);
  [[maybe_unused]] const ssize_t n = ::pwrite(fd, s.data(), s.size(), 0);
}

/// Process-wide trace cache for the sweep benches: every config point of a
/// sweep replays the same captured value streams instead of re-running the
/// serial functional pass. BENCH_TRACE_CACHE controls the tiers:
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
/// path once on stderr, so sweeps driven from different working directories
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

/// EngineOptions with the bench trace cache plugged in as the capture
/// provider (null provider when BENCH_TRACE_CACHE=off).
inline sim::EngineOptions engine_options() {
  sim::EngineOptions o;
  o.capture_provider = trace_cache();
  return o;
}

/// Prepares `kernel` at `scale` and runs all its launches on `m` through the
/// shared launch loop (run::run_case).
inline run::CaseResult run_kernel(const std::string& kernel, double scale,
                                  const run::Machine& m) {
  workloads::PreparedCase pc = workloads::prepare_case(kernel, scale);
  return run::run_case(m, pc);
}

/// Functional trace pass for observer-driven benches. With the cache active
/// it runs through TraceCache::populate, so the same pass also produces the
/// capture later timing runs consume. `store_capture` says whether this
/// binary has such a consumer; without one, the capture is only worth
/// recording when a disk tier will persist it for other binaries.
inline void trace_pass(const isa::Kernel& kernel, const sim::LaunchConfig& lc,
                       sim::GlobalMemory& gmem, const sim::TraceObserver& obs,
                       bool store_capture) {
  heartbeat();
  tracecache::TraceCache* cache = trace_cache();
  if (cache != nullptr && (store_capture || !cache->options().dir.empty())) {
    cache->populate(sim::GpuConfig{}, kernel, lc, gmem, obs);
  } else {
    sim::trace_run(kernel, lc, gmem, obs);
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

/// Shard-aware emit for the sweep benches. `units[i]` is the work-unit index
/// that produced row i of `t` (non-decreasing; consecutive equal units are
/// one unit's row sequence), and `rows_total` is the row count a full serial
/// run emits. Outside a sweep (BENCH_SHARD_OUT unset) this is exactly
/// emit(); under the orchestrator it records an atomic per-stem fragment
/// (src/orch/fragment.hpp) instead of the bench_out CSV. Mis-tagged rows —
/// a unit this shard does not own, or units out of order — are an
/// `error[invariant-violation]` exit: a silently wrong tag would corrupt the
/// merged sweep table.
inline void emit_sharded(const Table& t, const std::string& stem,
                         const std::vector<int>& units, int rows_total) {
  const char* out_dir = std::getenv("BENCH_SHARD_OUT");
  if (out_dir == nullptr || *out_dir == '\0') {
    emit(t, stem);
    return;
  }
  std::cout << t << "\n";  // the worker log keeps the human-readable table
  const ShardSpec& sh = shard();
  if (units.size() != t.raw_rows().size()) {
    die(sim::SimError(sim::SimErrorKind::kInvariantViolation, stem,
                      "emit_sharded: " + std::to_string(units.size()) +
                          " unit tags for " +
                          std::to_string(t.raw_rows().size()) + " rows"));
  }
  orch::Fragment f;
  f.stem = stem;
  f.shard_index = sh.index;
  f.shard_count = sh.count;
  f.rows_total = rows_total;
  const char* sc = std::getenv("BENCH_SCALE");
  f.scale = sc == nullptr ? "" : sc;
  const auto& header = t.raw_header();
  const auto join = [](const std::vector<std::string>& cells) {
    std::string line;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i != 0) line += ",";
      line += cells[i];
    }
    return line;
  };
  f.header = join(header);
  int prev_unit = -1, seq = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    const int unit = units[i];
    if (unit < prev_unit || !shard_owns(unit)) {
      die(sim::SimError(sim::SimErrorKind::kInvariantViolation, stem,
                        "emit_sharded: row " + std::to_string(i) +
                            " tagged with unowned or out-of-order unit " +
                            std::to_string(unit)));
    }
    seq = unit == prev_unit ? seq + 1 : 0;
    prev_unit = unit;
    f.rows.push_back({unit, seq, join(t.raw_rows()[i])});
  }
  try {
    std::filesystem::create_directories(out_dir);
    orch::write_fragment(std::string(out_dir) + "/" + stem + ".frag", f);
  } catch (const sim::SimError& e) {
    die(e);
  } catch (const std::filesystem::filesystem_error& e) {
    die(sim::SimError(sim::SimErrorKind::kIo, out_dir, e.what()));
  }
}

}  // namespace st2::bench

// st2sim — command-line driver for the simulator.
//
//   st2sim list
//   st2sim run <kernel|all> [--scale S] [--st2] [--sms N] [--jobs N] [--lrr]
//              [--max-warps N] [--spec CONFIG] [--csv FILE] [--json FILE]
//              [--timeline FILE] [--disasm] [--trace] [--profile]
//              [--inject SPEC] [--inject-seed N] [--selfcheck]
//              [--watchdog-cycles N] [--watchdog-ms N]
//              [--trace-cache DIR]
//   st2sim serve (--socket PATH | --port N) [--workers K] [--queue-depth N]
//                [--watchdog-ms N] [--trace-cache DIR] [--no-cache]
//   st2sim client (--socket PATH | --port N) [--out-dir DIR]
//                [--connect-retries N] [--connect-backoff-ms B]
//
// serve runs the simulator as a long-lived daemon (docs/simulator.md,
// "Serving mode"): newline-delimited JSON requests in, length-framed
// RunReport JSON responses out, a bounded worker pool with busy-shedding
// admission control, per-request isolation through the SimError taxonomy,
// and a process-wide trace cache so repeat kernels skip capture. client is
// the matching pipelining pump (requests on stdin, envelopes on stdout,
// bodies into --out-dir). SIGTERM/SIGINT drain the daemon gracefully:
// admitted requests finish and flush before exit.
//
// --profile prints a per-phase wall-time breakdown to stderr after the run
// (capture / replay / report seconds, simulated cycles per second and per
// SM) and, with --json, prepends a one-line {"profile": ...} element to the
// report array. Pure measurement: results are bit-identical with and
// without it.
//
// --trace-cache DIR caches the serial capture phase (the canonical
// functional pass) in DIR, content-addressed by kernel/launch/input-memory
// identity: within one invocation `run all` shares a single payload-bearing
// capture between baseline and ST² timing runs, and across invocations warm
// entries skip functional re-execution entirely. Results are bit-identical
// to a no-cache run; corrupt or stale entries are detected (CRC + embedded
// key) and transparently recaptured. Cache stats are printed after the
// table and, with --json, appended as a one-line {"trace_cache": ...}
// element.
//
// --jobs N replays the SMs of a timing run on N worker threads (N >= 1;
// values above the hardware thread count are clamped with a warning, and a
// literal 0 — almost always an unset shell variable — is rejected); results
// are bit-identical across thread counts. --json dumps the
// structured per-SM / whole-chip RunReport of every timing run to FILE.
// --timeline dumps every SM's issue-density timeline as a Chrome-trace JSON
// array (open FILE in chrome://tracing or ui.perfetto.dev). --max-warps
// caps warp slots per SM (config sweeps; a launch whose blocks cannot fit
// exits with an error). --spec selects the speculation policy measured in
// --trace mode (any name from the Figure 5 sweep, e.g. "Prev+ModPC4+Peek");
// it is rejected on timing runs.
//
// Robustness layer (docs/robustness.md):
//   --inject crf:1e-4,detect:1e-5   seeded faults into the ST2 speculation
//                                   state (requires --st2); results stay
//                                   bit-identical, only timing/energy moves
//   --inject-seed N                 fault RNG seed (default fixed)
//   --selfcheck                     after the timing run, re-execute
//                                   functionally and diff architectural state
//   --watchdog-cycles N             cancel any SM replay after N cycles and
//                                   emit a partial report marked "aborted"
//   --watchdog-ms N                 wall-clock deadline per replay
// SIGINT/SIGTERM stop the run at the next check quantum and still flush the
// partial --csv/--json/--timeline files (all report files are written
// atomically: FILE.tmp then rename). Exit codes are documented and distinct
// per failure kind; errors print one structured line: `error[kind]: message`.
//
// Examples:
//   st2sim run pathfinder --st2            # timing run, ST2 machine
//   st2sim run all --scale 0.25 --csv out.csv
//   st2sim run all --st2 --jobs 8 --json out.json
//   st2sim run pathfinder --st2 --inject crf:1e-3 --selfcheck
//   st2sim run kmeans_K1 --trace           # fast functional run + specs
//   st2sim run msort_K2 --disasm           # print the mini-PTX
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/table.hpp"
#include "src/fault/fault.hpp"
#include "src/power/model.hpp"
#include "src/run/run.hpp"
#include "src/serve/client.hpp"
#include "src/serve/server.hpp"
#include "src/sim/error.hpp"
#include "src/sim/jobs.hpp"
#include "src/sim/spec_harness.hpp"
#include "src/sim/trace_run.hpp"
#include "src/snapshot/snapshot.hpp"
#include "src/spec/policy.hpp"
#include "src/tracecache/tracecache.hpp"
#include "src/workloads/workload.hpp"

namespace {

using namespace st2;

/// Set by the SIGINT/SIGTERM handler; the engine polls it every check
/// quantum and winds the replay down gracefully (partial report, exit 130).
std::atomic<bool> g_cancel{false};

/// The running daemon, when `st2sim serve` is active: the signal handler
/// turns the first SIGINT/SIGTERM into a graceful drain.
serve::Server* g_server = nullptr;

extern "C" void on_signal(int sig) {
  // Re-arm to the default disposition first: the graceful path below is
  // best-effort, and a second Ctrl-C must always terminate the process
  // instead of being swallowed by a handler that already fired once.
  std::signal(sig, SIG_DFL);
  g_cancel.store(true);
  if (g_server != nullptr) g_server->request_stop();
}

struct Options {
  std::string command;
  run::RunSpec run;  ///< the run options, shared with serve requests
  std::string spec;  ///< --spec as given (trace mode only)
  spec::SpeculationConfig lattice = spec::st2_config();  ///< --spec resolved
  bool trace = false;
  bool disasm = false;
  bool selfcheck = false;
  bool profile = false;  ///< --profile: per-phase wall-time breakdown
  std::string csv;
  std::string json;
  std::string timeline;
  std::string trace_cache;  ///< --trace-cache directory
  tracecache::TraceCache* cache = nullptr;  ///< set by main when enabled
};

/// Chrome-trace bucket width used for --timeline, in cycles.
constexpr int kTimelineBucket = 1024;

/// --profile accumulator: wall time per phase across every kernel/launch of
/// the invocation, plus the simulated-cycle volume the replay produced.
/// Measurement only — it never feeds back into simulation state.
struct ProfileAccum {
  double capture_s = 0;  ///< serial canonical functional pass (trace capture)
  double replay_s = 0;   ///< parallel per-SM timing replay
  double report_s = 0;   ///< table/CSV/JSON/timeline assembly and writes
  std::uint64_t cycles = 0;  ///< simulated cycles (sum of launch wall cycles)
  std::uint64_t launches = 0;

  /// One self-contained JSON array element, mirroring the trace-cache stats
  /// contract: a single line, so stripping lines containing "profile" leaves
  /// a byte-identical no-profile report.
  std::string to_json(int sms) const {
    const double rate = replay_s > 0 ? double(cycles) / replay_s : 0.0;
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "{\"profile\": {\"capture_s\": %.6f, \"replay_s\": %.6f, "
                  "\"report_s\": %.6f, \"cycles\": %llu, \"launches\": %llu, "
                  "\"sms\": %d, \"cycles_per_s\": %.0f, "
                  "\"cycles_per_s_per_sm\": %.0f}}",
                  capture_s, replay_s, report_s,
                  static_cast<unsigned long long>(cycles),
                  static_cast<unsigned long long>(launches), sms, rate,
                  sms > 0 ? rate / sms : 0.0);
    return buf;
  }

  void print(int sms) const {
    const double rate = replay_s > 0 ? double(cycles) / replay_s : 0.0;
    std::fprintf(stderr,
                 "profile: capture %.3fs  replay %.3fs  report %.3fs\n",
                 capture_s, replay_s, report_s);
    std::fprintf(stderr,
                 "profile: %llu sim cycles over %llu launches, %d SMs, "
                 "%.3g cycles/s (%.3g per SM)\n",
                 static_cast<unsigned long long>(cycles),
                 static_cast<unsigned long long>(launches), sms, rate,
                 sms > 0 ? rate / sms : 0.0);
  }
};

/// Strict integer parse: rejects partial matches like "8x" or "abc",
/// which atoi would silently turn into 8 or 0.
bool parse_int(const char* s, int* out) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = static_cast<int>(v);
  return true;
}

/// Strict unsigned 64-bit parse for cycle budgets and seeds.
bool parse_u64(const char* s, std::uint64_t* out) {
  if (*s == '\0' || *s == '-') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

/// Strict double parse, mirroring parse_int: rejects trailing junk like
/// "0.5x" or a lone "1e", which atof would silently accept as 0.5 / 1.
bool parse_double(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

int usage() {
  std::puts(
      "usage:\n"
      "  st2sim list\n"
      "  st2sim run <kernel|all> [--scale S] [--st2] [--sms N] [--jobs N]\n"
      "             [--lrr] [--max-warps N] [--spec CONFIG]\n"
      "             [--spec-policy NAME[,key=val...]] [--csv FILE]\n"
      "             [--json FILE] [--timeline FILE] [--disasm] [--trace]\n"
      "             [--profile]\n"
      "             [--inject SPEC] [--inject-seed N] [--selfcheck]\n"
      "             [--watchdog-cycles N] [--watchdog-ms N]\n"
      "             [--trace-cache DIR]\n"
      "  st2sim serve (--socket PATH | --port N) [--workers K]\n"
      "             [--queue-depth N] [--watchdog-ms N] [--trace-cache DIR]\n"
      "             [--no-cache]\n"
      "  st2sim client (--socket PATH | --port N) [--out-dir DIR]\n"
      "             [--connect-retries N] [--connect-backoff-ms B]\n"
      "--jobs/--workers take a count >= 1 (values above the hardware thread\n"
      "count are clamped with a warning)\n"
      "exit codes: 0 ok, 1 validation failed, 2 bad arguments,\n"
      "            3 inadmissible launch, 4 watchdog aborted, 5 invariant\n"
      "            violation, 6 selfcheck failed, 7 io error,\n"
      "            8 reserved (trace-cache only), 9 busy (serve),\n"
      "            10 reserved, 130 interrupted\n"
      "            (see docs/robustness.md)");
  return sim::kExitBadArguments;
}

bool parse(int argc, char** argv, Options* o) {
  if (argc < 2) return false;
  o->command = argv[1];
  if (o->command == "list") return argc == 2;
  if (o->command != "run" || argc < 3) return false;
  o->run.kernel = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--scale") {
      const char* v = next();
      if (!v || !parse_double(v, &o->run.scale)) return false;
    } else if (a == "--max-warps") {
      const char* v = next();
      if (!v || !parse_int(v, &o->run.max_warps)) return false;
    } else if (a == "--timeline") {
      const char* v = next();
      if (!v) return false;
      o->timeline = v;
    } else if (a == "--sms") {
      const char* v = next();
      if (!v || !parse_int(v, &o->run.sms)) return false;
    } else if (a == "--jobs") {
      const char* v = next();
      if (!v || !parse_int(v, &o->run.jobs)) return false;
    } else if (a == "--csv") {
      const char* v = next();
      if (!v) return false;
      o->csv = v;
    } else if (a == "--json") {
      const char* v = next();
      if (!v) return false;
      o->json = v;
    } else if (a == "--spec") {
      const char* v = next();
      if (!v || *v == '\0') return false;
      o->spec = v;
    } else if (a == "--spec-policy") {
      const char* v = next();
      if (!v) return false;
      // Throws on a bad spec.
      o->run.spec_policy = spec::PredictorConfig::parse(v);
    } else if (a == "--inject") {
      const char* v = next();
      if (!v) return false;
      // --inject-seed may precede; a bad spec throws.
      const std::uint64_t seed = o->run.inject.seed;
      o->run.inject = fault::FaultConfig::parse(v);
      o->run.inject.seed = seed;
    } else if (a == "--inject-seed") {
      const char* v = next();
      if (!v || !parse_u64(v, &o->run.inject.seed)) return false;
    } else if (a == "--watchdog-cycles") {
      const char* v = next();
      if (!v || !parse_u64(v, &o->run.watchdog_cycles)) return false;
    } else if (a == "--watchdog-ms") {
      const char* v = next();
      if (!v || !parse_u64(v, &o->run.watchdog_ms)) return false;
    } else if (a == "--trace-cache") {
      const char* v = next();
      if (!v || *v == '\0') return false;
      o->trace_cache = v;
    } else if (a == "--profile") {
      o->profile = true;
    } else if (a == "--selfcheck") {
      o->selfcheck = true;
    } else if (a == "--st2") {
      o->run.st2 = true;
    } else if (a == "--lrr") {
      o->run.lrr = true;
    } else if (a == "--trace") {
      o->trace = true;
    } else if (a == "--disasm") {
      o->disasm = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

/// Crash-consistent report write (CSV/JSON/timeline): delegates to the
/// snapshot layer's atomic tmp+rename writer, which checks the stream state
/// after flush AND close (catching short writes and ENOSPC that only surface
/// at close) and throws SimError(kIo) naming the path and OS error. Returns
/// false after printing the structured error so the caller can degrade the
/// exit code without losing the simulation results already on stdout.
bool write_report_file(const std::string& path, const std::string& content) {
  try {
    snapshot::atomic_write_file(path, content);
    return true;
  } catch (const sim::SimError& e) {
    run::report_error(e);
    return false;
  }
}

/// Golden cross-run self-check: re-executes the workload functionally on
/// fresh inputs (the fault-free reference — injection and timing cannot
/// touch it) and requires the timing run's architectural state to match it
/// byte for byte. Also fails the run if any injected forced-hit fault masked
/// a real misprediction: that fault class is outside ST2's safety envelope
/// and would corrupt results in hardware.
void run_selfcheck(const Options& o, const std::string& name,
                   const workloads::PreparedCase& pc,
                   const sim::EventCounters& c) {
  workloads::PreparedCase ref = workloads::prepare_case(name, o.run.scale);
  for (const auto& lc : ref.launches) {
    sim::trace_run(ref.kernel, lc, *ref.mem);
  }
  if (!ref.validate(*ref.mem)) {
    throw sim::SimError(sim::SimErrorKind::kSelfCheckFailed, name,
                        "functional reference run failed host validation");
  }
  const auto got = pc.mem->bytes();
  const auto want = ref.mem->bytes();
  if (got.size() != want.size()) {
    throw sim::SimError(sim::SimErrorKind::kSelfCheckFailed, name,
                        "device memory size diverges from the functional "
                        "reference (" +
                            std::to_string(got.size()) + " vs " +
                            std::to_string(want.size()) + " bytes)");
  }
  const auto diff =
      std::mismatch(got.begin(), got.end(), want.begin());
  if (diff.first != got.end()) {
    throw sim::SimError(
        sim::SimErrorKind::kSelfCheckFailed, name,
        "architectural state diverges from the functional reference at "
        "byte offset " +
            std::to_string(diff.first - got.begin()));
  }
  if (c.faults_masked_repairs > 0) {
    throw sim::SimError(
        sim::SimErrorKind::kSelfCheckFailed, name,
        std::to_string(c.faults_masked_repairs) +
            " forced-hit fault(s) masked real mispredictions; in hardware "
            "the results would be corrupt");
  }
}

int run_one(const Options& o, const std::string& name, Table* out,
            std::vector<std::string>* json_reports,
            std::vector<std::string>* trace_events, int* next_pid,
            ProfileAccum* prof) {
  workloads::PreparedCase pc = workloads::prepare_case(name, o.run.scale);
  if (o.disasm) {
    std::printf("%s\n", pc.kernel.disassemble().c_str());
    return sim::kExitOk;
  }

  if (o.trace) {
    sim::SpeculationHarness spec(o.lattice);
    sim::EventCounters c;
    {
      // Trace mode has no replay: the functional pass is the whole phase.
      run::PhaseTimer pt(prof != nullptr ? &prof->capture_s : nullptr);
      for (const auto& lc : pc.launches) {
        c += sim::trace_run(pc.kernel, lc, *pc.mem,
                            [&](const sim::ExecRecord& r) { spec.feed(r); })
                 .counters;
      }
    }
    const bool ok = pc.validate(*pc.mem);
    out->row({name, ok ? "ok" : "FAIL", std::to_string(c.thread_instructions),
              Table::pct(c.simd_efficiency()), "-",
              Table::pct(spec.op_misprediction_rate()), "-", "-"});
    return ok ? sim::kExitOk : sim::kExitValidationFailed;
  }

  run::Machine m = o.run.machine();
  if (trace_events) m.cfg.timeline_bucket = kTimelineBucket;
  m.opts.cancel = &g_cancel;
  m.opts.capture_provider = o.cache;
  run::LaunchHooks hooks;
  if (prof != nullptr) {
    hooks.capture_s = &prof->capture_s;
    hooks.replay_s = &prof->replay_s;
  }
  hooks.on_report = [&](std::size_t li, const sim::RunReport& r) {
    const int launch_idx = static_cast<int>(li);
    if (json_reports) json_reports->push_back(r.to_json(name, launch_idx));
    if (trace_events) {
      const std::string ev =
          r.chrome_trace_events(name, launch_idx, (*next_pid)++);
      if (!ev.empty()) trace_events->push_back(ev);
    }
    if (prof != nullptr) {
      prof->cycles += r.wall_cycles();
      ++prof->launches;
    }
  };
  const run::CaseResult res = run::run_case(m, pc, hooks);
  const sim::EventCounters& c = res.counters;
  if (!res.abort_reason.empty()) {
    // The partial report (already in json_reports) is the deliverable; the
    // table row records why the run stopped.
    out->row({name, "aborted:" + res.abort_reason,
              std::to_string(c.thread_instructions), "-",
              std::to_string(res.cycles), "-", "-", "-"});
    return res.exit_code();
  }
  if (res.valid && o.selfcheck) run_selfcheck(o, name, pc, c);
  const power::PowerModel pm;
  const auto e = pm.energy(c, o.run.st2);
  out->row({name, res.valid ? "ok" : "FAIL",
            std::to_string(c.thread_instructions),
            Table::pct(c.simd_efficiency()), std::to_string(res.cycles),
            o.run.st2 ? Table::pct(c.adder_misprediction_rate()) : "-",
            Table::num(e.total(), 0), Table::num(e.chip(), 0)});
  return res.exit_code();
}

/// stdout is an output file like any other (docs/robustness.md): with
/// SIGPIPE ignored, a downstream reader that vanished (`st2sim ... | head`)
/// turns writes into EPIPE, which lands in the stream/FILE error state
/// checked here and degrades the exit code to io-error — instead of the
/// silent mid-pipeline signal death it used to be.
int finish_stdout(int rc) {
  std::cout.flush();
  bool bad = !std::cout.good();
  if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0) bad = true;
  if (bad) {
    std::fprintf(stderr, "error[io-error]: short write on stdout\n");
    if (rc == sim::kExitOk) rc = sim::kExitIo;
  }
  return rc;
}

int serve_main(int argc, char** argv) {
  serve::ServerOptions so;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--socket") {
      const char* v = next();
      if (!v || *v == '\0') return usage();
      so.socket_path = v;
    } else if (a == "--port") {
      const char* v = next();
      int port = -1;
      if (!v || !parse_int(v, &port) || port < 0 || port > 65535) {
        return usage();
      }
      so.port = port;
    } else if (a == "--workers") {
      const char* v = next();
      if (!v || !parse_int(v, &so.workers)) return usage();
    } else if (a == "--queue-depth") {
      const char* v = next();
      if (!v || !parse_int(v, &so.queue_depth) || so.queue_depth < 1) {
        return usage();
      }
    } else if (a == "--watchdog-ms") {
      const char* v = next();
      if (!v || !parse_u64(v, &so.default_watchdog_ms)) return usage();
    } else if (a == "--trace-cache") {
      const char* v = next();
      if (!v || *v == '\0') return usage();
      so.trace_cache_dir = v;
    } else if (a == "--no-cache") {
      so.share_captures = false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return usage();
    }
  }
  if (!so.trace_cache_dir.empty() && !so.share_captures) {
    std::fprintf(stderr,
                 "error[bad-arguments]: --trace-cache and --no-cache are "
                 "mutually exclusive\n");
    return sim::kExitBadArguments;
  }
  try {
    so.workers = sim::validate_thread_count(so.workers, "--workers");
    serve::Server server(so);
    server.start();
    g_server = &server;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    // Readiness line, flushed before the first accept: launch scripts poll
    // for it instead of sleeping.
    if (!so.socket_path.empty()) {
      std::printf("st2sim serve: listening on unix:%s (workers=%d "
                  "queue-depth=%d)\n",
                  so.socket_path.c_str(), so.workers, so.queue_depth);
    } else {
      std::printf("st2sim serve: listening on 127.0.0.1:%d (workers=%d "
                  "queue-depth=%d)\n",
                  server.bound_port(), so.workers, so.queue_depth);
    }
    std::fflush(stdout);
    server.serve_forever();
    g_server = nullptr;
    const serve::ServerStats st = server.stats();
    std::fprintf(stderr,
                 "st2sim serve: drained; connections=%llu requests=%llu "
                 "busy-rejects=%llu parse-errors=%llu dropped=%llu\n",
                 static_cast<unsigned long long>(st.connections),
                 static_cast<unsigned long long>(st.requests),
                 static_cast<unsigned long long>(st.busy_rejects),
                 static_cast<unsigned long long>(st.parse_errors),
                 static_cast<unsigned long long>(st.dropped));
    return finish_stdout(sim::kExitOk);
  } catch (const sim::SimError& e) {
    g_server = nullptr;
    return run::report_error(e);
  }
}

int client_main(int argc, char** argv) {
  serve::ClientOptions co;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--socket") {
      const char* v = next();
      if (!v || *v == '\0') return usage();
      co.socket_path = v;
    } else if (a == "--port") {
      const char* v = next();
      int port = -1;
      if (!v || !parse_int(v, &port) || port < 0 || port > 65535) {
        return usage();
      }
      co.port = port;
    } else if (a == "--out-dir") {
      const char* v = next();
      if (!v || *v == '\0') return usage();
      co.out_dir = v;
    } else if (a == "--connect-retries") {
      const char* v = next();
      if (!v || !parse_int(v, &co.connect_retries) ||
          co.connect_retries < 0) {
        return usage();
      }
    } else if (a == "--connect-backoff-ms") {
      const char* v = next();
      if (!v || !parse_int(v, &co.connect_backoff_ms) ||
          co.connect_backoff_ms < 1) {
        return usage();
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return usage();
    }
  }
  return serve::run_client(co);
}

}  // namespace

int main(int argc, char** argv) {
  // Ignored process-wide before anything writes: every broken-pipe failure
  // (stdout into a dead `head`, a serve client that hung up) must surface
  // as EPIPE on the write and flow through the exit-code taxonomy, never
  // kill the process mid-output.
  std::signal(SIGPIPE, SIG_IGN);
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    return serve_main(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "client") == 0) {
    return client_main(argc, argv);
  }
  Options o;
  try {
    if (!parse(argc, argv, &o)) return usage();
    o.run.validate();
  } catch (const std::exception&) {
    return run::report_error(run::current_error());
  }
  if (o.trace || o.disasm) {
    const char* timing_only =
        o.run.spec_policy.kind != spec::PredictorKind::kCrf ? "--spec-policy"
        : o.selfcheck                                       ? "--selfcheck"
        : !o.trace_cache.empty()                            ? "--trace-cache"
                                                            : nullptr;
    if (timing_only != nullptr) {
      std::fprintf(stderr,
                   "error[bad-arguments]: %s applies to timing runs only\n",
                   timing_only);
      return sim::kExitBadArguments;
    }
  }
  if (!o.spec.empty()) {
    if (!o.trace) {
      std::fprintf(stderr,
                   "error[bad-arguments]: --spec applies to trace runs only\n");
      return sim::kExitBadArguments;
    }
    const auto lattice = spec::SpeculationConfig::figure5_point(o.spec);
    if (!lattice) {
      std::fprintf(stderr,
                   "error[bad-arguments]: unknown --spec '%s'; options:\n",
                   o.spec.c_str());
      for (const auto& c : spec::SpeculationConfig::figure5_sweep()) {
        std::fprintf(stderr, "  %s\n", c.name().c_str());
      }
      return sim::kExitBadArguments;
    }
    o.lattice = *lattice;
  }

  if (o.command == "list") {
    Table t("available kernels");
    t.header({"kernel", "suite"});
    for (const auto& info : workloads::case_list()) {
      t.row({info.name, info.suite});
    }
    t.print(std::cout);
    return finish_stdout(sim::kExitOk);
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // The cache only changes *how* captures are obtained, never their bytes.
  std::unique_ptr<tracecache::TraceCache> cache;
  if (!o.trace_cache.empty()) {
    try {
      tracecache::CacheOptions copts;
      copts.dir = o.trace_cache;
      cache = std::make_unique<tracecache::TraceCache>(copts);
    } catch (const sim::SimError& e) {
      return run::report_error(e);
    }
    o.cache = cache.get();
  }

  Table t(o.trace ? "functional (trace) run" : "timing run");
  t.header({"kernel", "valid", "thread instrs", "simd eff", "cycles",
            "mispred", "energy", "chip energy"});
  std::vector<std::string> json_reports;
  std::vector<std::string>* jr = o.json.empty() ? nullptr : &json_reports;
  std::vector<std::string> trace_events;
  std::vector<std::string>* te = o.timeline.empty() ? nullptr : &trace_events;
  int next_pid = 0;
  // Every failure is classified (run::guarded): unknown kernels and bad
  // specs are user errors, launches that can never be admitted are
  // inadmissible, broken internal invariants are simulator bugs — each with
  // its own exit code and a one-line structured stderr message instead of a
  // bare what().
  ProfileAccum prof;
  ProfileAccum* pr = o.profile ? &prof : nullptr;
  const auto kernel = [&](const std::string& name) {
    return run_one(o, name, &t, jr, te, &next_pid, pr);
  };
  // An interrupt stops the sweep; the files below still flush whatever
  // completed (plus the partial report of the interrupted kernel).
  int rc = o.run.kernel == "all"
               ? run::run_all(kernel, &g_cancel)
               : run::guarded([&] { return kernel(o.run.kernel); });
  if (!o.disasm) {
    {
      run::PhaseTimer rpt(pr != nullptr ? &prof.report_s : nullptr);
      t.print(std::cout);
    }
    if (o.cache != nullptr) {
      // Stats ride after the table on stdout and as one self-contained
      // array element in --json. The element goes *first* so the separating
      // comma lands on its own line: stripping lines containing
      // "trace_cache" leaves bytes identical to a no-cache report — the
      // contract the CI smoke checks.
      std::printf("%s\n", o.cache->stats_line().c_str());
      if (jr != nullptr) {
        json_reports.insert(json_reports.begin(), o.cache->stats_json());
      }
    }
    if (!o.csv.empty()) {
      run::PhaseTimer rpt(pr != nullptr ? &prof.report_s : nullptr);
      if (write_report_file(o.csv, t.to_csv())) {
        std::printf("wrote %s\n", o.csv.c_str());
      } else if (rc == sim::kExitOk) {
        rc = sim::kExitIo;
      }
    }
    if (pr != nullptr) {
      // report_s covers the table and CSV; the JSON/timeline writes below
      // are excluded because the profile element must embed its final value
      // inside the JSON document itself. The element goes first, like the
      // trace-cache one: stripping lines containing "profile" recovers a
      // byte-identical no-profile report.
      prof.print(o.run.sms);
      if (jr != nullptr) {
        json_reports.insert(json_reports.begin(), prof.to_json(o.run.sms));
      }
    }
    if (!o.json.empty()) {
      if (write_report_file(o.json, run::json_array(json_reports))) {
        std::printf("wrote %s\n", o.json.c_str());
      } else if (rc == sim::kExitOk) {
        rc = sim::kExitIo;
      }
    }
    if (!o.timeline.empty()) {
      // Chrome-trace JSON array format: a flat array of events, viewable in
      // chrome://tracing or ui.perfetto.dev.
      if (write_report_file(o.timeline, run::json_array(trace_events))) {
        std::printf("wrote %s\n", o.timeline.c_str());
      } else if (rc == sim::kExitOk) {
        rc = sim::kExitIo;
      }
    }
  }
  return finish_stdout(rc);
}

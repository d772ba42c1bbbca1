// Request execution for serve mode: one RunRequest in, one RunResult out.
//
// The runner is the daemon's unit of isolation. Every request constructs
// fresh state end to end — PreparedCase (inputs + device memory), engine,
// counters — through the same run path as a one-shot `st2sim run`
// (src/run/run.hpp), so nothing a request does can leak into the next one.
// The single shared object is the (thread-safe) trace cache, whose contract
// guarantees byte-identical captures with or without a hit.
//
// The report document in RunResult::report is byte-for-byte the file a
// one-shot `st2sim run <kernel> ... --json FILE` invocation writes (without
// `--trace-cache`/`--profile`, whose stats elements are per-process, not
// per-request).
#pragma once

#include <cstdint>
#include <string>

#include "src/run/run.hpp"
#include "src/tracecache/tracecache.hpp"

namespace st2::serve {

/// One simulation request, decoded from a NDJSON line (codec.hpp).
struct RunRequest {
  std::string id;      ///< echoed back in the response envelope
  run::RunSpec spec;   ///< spec.kernel is required
};

/// Outcome of one request. `exit_code` carries the same value the one-shot
/// CLI would exit with; request-level failures (bad arguments, engine
/// errors) set `error_kind`/`error_message` and leave `report` empty.
struct RunResult {
  int exit_code = 0;
  std::string report;         ///< the `--json` document; empty on error
  std::string error_kind;     ///< SimErrorKind name; empty when a run ran
  std::string error_message;  ///< one-line diagnostic for the envelope
};

/// Validates (RunSpec::validate) and runs one request. Never throws: every
/// failure — broken option rules, unknown kernels, inadmissible launches,
/// internal invariant violations — is classified through the SimError
/// taxonomy into the result, so a request failure is a JSON error response
/// upstream, never a daemon death. `cache` may be null (no capture sharing);
/// `default_watchdog_ms` applies to requests that set no watchdog of their
/// own.
RunResult execute_request(const RunRequest& req,
                          tracecache::TraceCache* cache,
                          std::uint64_t default_watchdog_ms);

}  // namespace st2::serve

// Wire codec for serve mode (docs/simulator.md, "Serving mode").
//
// Requests are newline-delimited JSON objects of scalars, one per line:
//
//   {"id": "r1", "kernel": "pathfinder", "scale": 0.25, "st2": true,
//    "sms": 4, "jobs": 1, "inject": "crf:1e-3", "inject_seed": 7,
//    "watchdog_cycles": 0, "watchdog_ms": 0, "lrr": false, "max_warps": 0}
//
// `kernel` is required; everything else takes run::RunSpec's defaults,
// which the CLI shares. Unknown fields are rejected (a typo'd option must
// never silently fall back to a default), as are nested objects/arrays and
// trailing bytes. The option rules (scale range, "inject needs st2", ...)
// are RunSpec::validate's, checked when the request runs — so a request
// that decodes but breaks a rule is answered under its own id.
//
// Responses are one envelope line followed by exactly `body_bytes` raw
// bytes of report JSON (the body is the one-shot CLI's `--json` document,
// so it is length-framed rather than re-escaped into the envelope):
//
//   {"request_id": "r1", "status": "done", "exit_code": 0,
//    "elapsed_ms": 12.345, "body_bytes": 1234}\n<1234 body bytes>
//   {"request_id": "r2", "status": "error", "error_kind": "busy",
//    "message": "...", "exit_code": 9, "elapsed_ms": 0.012,
//    "body_bytes": 0}\n
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/serve/runner.hpp"

namespace st2::serve {

/// Strict decode of one request line. Throws SimError(kBadArguments) with a
/// one-line message on any malformed input: non-object lines, unknown or
/// wrongly-typed fields, non-integral counts, bad inject/spec_policy specs.
RunRequest parse_request(std::string_view line);

/// The response envelope line (without the trailing newline) for a finished
/// request. `error_kind` empty means a run executed and a body follows.
std::string envelope_line(const std::string& request_id, int exit_code,
                          const std::string& error_kind,
                          const std::string& error_message, double elapsed_ms,
                          std::size_t body_bytes);

/// Parses an envelope line (the client side). Returns false on malformed
/// input; on success fills the out-params (`error_kind` empty for "done").
bool parse_envelope(std::string_view line, std::string* request_id,
                    int* exit_code, std::string* error_kind,
                    std::string* message, std::size_t* body_bytes);

}  // namespace st2::serve

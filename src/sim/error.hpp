// Typed simulator errors and the st2sim exit-code contract.
//
// Every failure the simulator can produce is classified into a SimErrorKind
// so callers (the CLI, the bench drivers, CI) can react to *what* went wrong
// instead of pattern-matching what() strings: bad user input is not an
// inadmissible launch is not a broken internal invariant. st2sim maps each
// kind to a distinct documented exit code (docs/robustness.md) and prints a
// one-line structured `error[kind]: message` to stderr.
#pragma once

#include <stdexcept>
#include <string>

namespace st2::sim {

enum class SimErrorKind {
  kBadArguments,       ///< unparseable / out-of-range user input
  kInadmissibleLaunch, ///< a launch no SM can ever admit (would deadlock)
  kInvariantViolation, ///< an internal self-check failed: simulator bug
  kSelfCheckFailed,    ///< --selfcheck found an architectural-state mismatch
  kIo,                 ///< report/timeline/snapshot file could not be written
  kSnapshotInvalid,    ///< snapshot rejected: corrupt, truncated or mismatched
  kBusy,               ///< serve mode: admission queue full, request rejected
};

/// st2sim exit codes (see docs/robustness.md for the full table). 0 = clean
/// run, 1 = a workload's host-reference validation failed (kept from the
/// pre-taxonomy CLI so scripts relying on it don't break).
inline constexpr int kExitOk = 0;
inline constexpr int kExitValidationFailed = 1;
inline constexpr int kExitBadArguments = 2;
inline constexpr int kExitInadmissibleLaunch = 3;
inline constexpr int kExitWatchdogAborted = 4;
inline constexpr int kExitInvariantViolation = 5;
inline constexpr int kExitSelfCheckFailed = 6;
inline constexpr int kExitIo = 7;
inline constexpr int kExitSnapshotInvalid = 8;
inline constexpr int kExitBusy = 9;  ///< serve-mode admission rejection
// 10 is reserved (formerly shard-failed) and is not reused.
inline constexpr int kExitInterrupted = 130;  ///< 128 + SIGINT, by convention

constexpr const char* to_string(SimErrorKind k) {
  switch (k) {
    case SimErrorKind::kBadArguments: return "bad-arguments";
    case SimErrorKind::kInadmissibleLaunch: return "inadmissible-launch";
    case SimErrorKind::kInvariantViolation: return "invariant-violation";
    case SimErrorKind::kSelfCheckFailed: return "selfcheck-failed";
    case SimErrorKind::kIo: return "io-error";
    case SimErrorKind::kSnapshotInvalid: return "snapshot-invalid";
    case SimErrorKind::kBusy: return "busy";
  }
  return "unknown";
}

constexpr int exit_code(SimErrorKind k) {
  switch (k) {
    case SimErrorKind::kBadArguments: return kExitBadArguments;
    case SimErrorKind::kInadmissibleLaunch: return kExitInadmissibleLaunch;
    case SimErrorKind::kInvariantViolation: return kExitInvariantViolation;
    case SimErrorKind::kSelfCheckFailed: return kExitSelfCheckFailed;
    case SimErrorKind::kIo: return kExitIo;
    case SimErrorKind::kSnapshotInvalid: return kExitSnapshotInvalid;
    case SimErrorKind::kBusy: return kExitBusy;
  }
  return kExitInvariantViolation;
}

/// Derives from std::runtime_error so pre-taxonomy catch sites keep working;
/// what() carries the context-prefixed message.
class SimError : public std::runtime_error {
 public:
  SimError(SimErrorKind kind, const std::string& context,
           const std::string& message)
      : std::runtime_error(context.empty() ? message
                                           : context + ": " + message),
        kind_(kind) {}

  SimErrorKind kind() const { return kind_; }
  /// "error[kind]: message" — the one-line structured form st2sim prints.
  std::string structured() const {
    return std::string("error[") + to_string(kind_) + "]: " + what();
  }

 private:
  SimErrorKind kind_;
};

}  // namespace st2::sim

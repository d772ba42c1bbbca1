// Deterministic, seeded fault injection for the ST2 speculation state.
//
// The paper's central correctness claim is that ST2 speculation is safe by
// construction: every carry misprediction is detected at end-of-cycle and
// repaired in one extra cycle, so architectural results are always correct no
// matter what the predictor history contains. This subsystem turns that claim
// into a tested property: it seeds SEU-style bit flips into the CRF and the
// history bits read from it, and forces the misprediction detector to fire
// (or, adversarially, to stay silent), all from a deterministic RNG — the
// invariant checked by the harness is that functional results stay
// bit-identical to the fault-free run while only timing/energy counters move.
//
// Fault kinds (all probabilities are per injection opportunity):
//   crf     persistent bit flip in a stored CRF entry, applied just before a
//           row read (one random lane, one random bit of the 7-bit pattern)
//   hist    transient bit flip in the history value *read* for one lane of
//           one adder instruction (the stored entry is untouched)
//   detect  forced-mispredict detection fault: the detector reports a
//           mismatch for one lane even though the prediction was correct,
//           triggering a spurious (but harmless) repair cycle
//   mask    forced-hit detection fault: the detector stays silent for a lane
//           that genuinely mispredicted. This is the one fault *outside* the
//           ST2 safety envelope — in hardware it would corrupt the result —
//           so the simulator counts it (faults_masked_repairs) and
//           `st2sim --selfcheck` fails the run if any occurred.
//
// Determinism contract: each SM core owns one FaultInjector constructed from
// the same FaultConfig, and draws from it only as a function of its own
// replay stream. Fault placement is therefore a pure function of
// (config, kernel, workload), bit-identical across `--jobs N`.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/rng.hpp"

namespace st2::fault {

/// Injection rates and seed. Default-constructed = injection disabled, and a
/// disabled config is guaranteed zero-impact: no injector is constructed, no
/// RNG advances, no simulation path changes.
struct FaultConfig {
  double crf = 0.0;     ///< stored-CRF bit flip, per row read
  double hist = 0.0;    ///< transient read flip, per warp adder instruction
  double detect = 0.0;  ///< forced mispredict, per warp adder instruction
  double mask = 0.0;    ///< forced hit (masked repair), per warp adder inst
  std::uint64_t seed = 0x5eedfa017ULL;

  bool enabled() const {
    return crf > 0.0 || hist > 0.0 || detect > 0.0 || mask > 0.0;
  }

  /// Parses a `--inject` spec: comma-separated `kind:rate` pairs, e.g.
  /// "crf:1e-4,detect:1e-5". Rates must parse fully (no trailing junk) and
  /// lie in [0, 1]. Throws std::invalid_argument with a one-line message
  /// naming the offending token otherwise. The seed is not part of the spec
  /// (it comes from --inject-seed).
  static FaultConfig parse(const std::string& spec);

  /// Canonical spec string ("crf:0.0001,detect:1e-05"); "off" when disabled.
  std::string describe() const;
};

/// Seeded fault source. One per SM core; every draw is deterministic.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {}

  /// One Bernoulli draw per call; a zero rate never fires and never
  /// advances the RNG, so disabled fault kinds cost nothing on the
  /// injection path.
  bool fire_crf() { return fire(cfg_.crf); }
  bool fire_hist() { return fire(cfg_.hist); }
  bool fire_detect() { return fire(cfg_.detect); }
  bool fire_mask() { return fire(cfg_.mask); }

  /// Uniform pick in [0, n): target lane / bit selection for a fired fault.
  int pick(int n) { return static_cast<int>(rng_.next_below(
      static_cast<std::uint64_t>(n))); }

  const FaultConfig& config() const { return cfg_; }

 private:
  bool fire(double rate) { return rate > 0.0 && rng_.next_double() < rate; }

  FaultConfig cfg_;
  Xoshiro256 rng_;
};

}  // namespace st2::fault

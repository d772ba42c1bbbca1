// Carry-speculation design space (paper Section IV-B, Figure 5).
//
// A speculation policy is assembled from orthogonal axes:
//  * base     — where the dynamic prediction comes from (static constant,
//               VaLHALLA's broadcast history bit, or ST2's per-slice history)
//  * peek     — whether statically-certain carries (equal MSBs in the
//               previous slice's operands) override the dynamic prediction
//  * pc       — how the history table is indexed by the program counter
//  * thread   — whether threads share one history, get private histories
//               (global thread id) or share across warps by lane (local id)
//
// The named factories below reproduce every configuration on the Figure 5
// x-axis, plus the Figure 3 correlation-measurement variants.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace st2::spec {

enum class BasePolicy : std::uint8_t {
  kStaticZero,   ///< always predict carry-in 0
  kStaticOne,    ///< always predict carry-in 1
  kValhalla,     ///< single history bit per thread broadcast to all slices
  kPrev,         ///< per-slice carry pattern from the history table
};

enum class PcIndexing : std::uint8_t {
  kNone,     ///< all instructions alias to one entry
  kFull,     ///< full PC disambiguation (unbounded table; analysis only)
  kModK,     ///< low k bits of the PC (the practical design)
  kXorHash,  ///< XOR-fold of all 4-bit PC chunks (paper: "no added benefit")
};

enum class ThreadScope : std::uint8_t {
  kShared,     ///< one table shared by every thread
  kGlobalTid,  ///< private entry per global thread id
  kLocalTid,   ///< entry per warp lane (0..31), shared across warps
};

struct SpeculationConfig {
  BasePolicy base = BasePolicy::kPrev;
  bool peek = false;
  PcIndexing pc = PcIndexing::kNone;
  int pc_bits = 0;  ///< k for kModK / kXorHash
  ThreadScope scope = ThreadScope::kShared;
  /// Ablation knob: update the history on every add instead of only on
  /// mispredictions (the paper's CRF writes only from mispredicting
  /// threads, which saves write energy; this measures the accuracy cost).
  bool always_write = false;

  std::string name() const;

  /// Bytes of history storage a hardware realization of this policy needs
  /// per SM (7 prediction bits per entry; 2048 resident threads per SM for
  /// Gtid scope, 32 lanes for Ltid, shared otherwise; full-PC indexing is
  /// unbounded and returns -1 — the paper's "unimplementable" region).
  long long table_bytes_per_sm() const;

  // --- Figure 5 x-axis -------------------------------------------------
  static SpeculationConfig static_zero();
  static SpeculationConfig static_one();
  static SpeculationConfig valhalla();
  static SpeculationConfig valhalla_peek();
  static SpeculationConfig prev();
  static SpeculationConfig prev_peek();
  static SpeculationConfig prev_modpc_peek(int k);
  static SpeculationConfig prev_xorpc_peek(int k);
  static SpeculationConfig gtid_prev_modpc4_peek();
  static SpeculationConfig ltid_prev_modpc4_peek();  ///< the ST2 design

  // --- Figure 3 correlation measurements -------------------------------
  static SpeculationConfig prev_gtid();
  static SpeculationConfig prev_fullpc_gtid();
  static SpeculationConfig prev_fullpc_ltid();

  /// All Figure 5 configurations in x-axis order.
  static std::vector<SpeculationConfig> figure5_sweep();
  /// The Figure 5 configuration whose name() is `name`, if any.
  static std::optional<SpeculationConfig> figure5_point(
      const std::string& name);
};

/// The production ST2 configuration (Ltid+Prev+ModPC4+Peek).
SpeculationConfig st2_config();

}  // namespace st2::spec

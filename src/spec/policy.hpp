// Pluggable carry-predictor framework.
//
// The paper's Carry Register File is one point in a large predictor design
// space. `CarryPredictor` is the seam that lets competing policies race on
// the same replay path: the SM core reads a 32-lane row of 7-bit carry
// patterns per warp adder instruction (predict hook), and at write-back
// hands over each cycle's true patterns of the mispredicting lanes
// (`commit`), which the base class arbitrates once for every policy with
// the CRF's random same-cell arbitration. A policy only supplies storage:
// where a write lands (`cell`) and how it lands (`write`). Any prediction
// source is *safe* — detection compares against the captured ground truth
// and repair always produces the exact sum — so a policy can only change
// mispredict rates, timing and energy, never architectural results. The
// differential test net in tests/test_spec_property.cpp enforces exactly
// that.
//
// Registered policies (st2sim --spec-policy NAME[,key=val...]):
//   crf     the paper's 16x224-bit Carry Register File (default)
//   mru     per-lane most-recent-value, no PC indexing (32 entries)
//   tage    TAGE-style tagged geometric-history tables over warp rows
//   static  a hard-wired profile pattern; never trains
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.hpp"

namespace st2::spec {

enum class PredictorKind : std::uint8_t { kCrf = 0, kMru, kTage, kStatic };

/// The registered policy names, in PredictorKind order.
const std::array<const char*, 4>& predictor_names();

/// Parsed `--spec-policy NAME[,key=val...]` selection. `parse` is strict in
/// the FaultConfig::parse style: unknown names, unknown/duplicate keys and
/// malformed values throw std::invalid_argument naming the offending token
/// (the CLI maps that to exit 2, the serve codec to a structured error).
struct PredictorConfig {
  PredictorKind kind = PredictorKind::kCrf;

  // static: the hard-wired 7-bit profile pattern (key `pattern`, 0..127).
  int static_pattern = 0;

  // tage: number of tagged tables (key `tables`, 1..6), entries per tagged
  // table (key `entries`, power of two in 16..1024) and the shortest
  // geometric history length (key `minhist`; lengths are minhist << i and
  // the longest must fit the 64-PC path history ring).
  int tage_tables = 3;
  int tage_entries = 128;
  int tage_min_hist = 2;

  static PredictorConfig parse(const std::string& spec);

  /// Canonical spec string: `parse(describe())` round-trips.
  std::string describe() const;

  const char* policy_name() const;

  /// Modeled hardware budget of the policy's prediction state, for the
  /// fig5_dse front (the CRF's paper figure is 448 B per SM).
  long long table_bytes_per_sm() const;

  bool operator==(const PredictorConfig&) const = default;
};

/// One lane's write-back: the true carry pattern of a mispredicting lane.
struct CarryWrite {
  std::uint64_t pc;
  int lane;
  std::uint8_t carries;
};

/// Per-SM carry-prediction policy. One instance per SM core, seeded from
/// the run seed so every policy is bit-identical across --jobs N.
///
/// Contract (what SmCore::validate_invariants relies on):
///  - commit arbitrates same-cell writers exactly like the CRF: one winner
///    counted in lane_writes(), the rest in write_conflicts(), so
///    lane_writes() + write_conflicts() accounts for every write ever
///    committed;
///  - entries_valid() holds after any interleaving of operations, including
///    flip_bit fault injections (patterns stay legal 7-bit values).
class CarryPredictor {
 public:
  explicit CarryPredictor(std::uint64_t seed) : rng_(seed) {}
  virtual ~CarryPredictor() = default;

  /// Predict hook: the 7-bit carry patterns of all 32 lanes for this PC,
  /// read once per warp adder instruction in the register-read stage.
  virtual std::array<std::uint8_t, 32> read_row(std::uint64_t pc) = 0;

  /// Train hook: applies one cycle's due write-backs with random same-cell
  /// arbitration. Every write is resolved to its storage cell before any
  /// lands; the writes are sorted by cell and one RNG draw per cell picks
  /// the winner, the rest are dropped (their thread will simply
  /// mispredict-and-retrain later). The draws depend on the order of
  /// `writes`, so callers must hand them over in a fixed order.
  void commit(std::span<const CarryWrite> writes);

  /// SEU-style fault injection (src/fault): XORs one of the 7 pattern bits
  /// of the policy's storage cell for (pc, lane). Must keep entries_valid.
  virtual void flip_bit(std::uint64_t pc, int lane, int bit) = 0;

  /// Consistency invariant: every stored pattern is a legal 7-bit value.
  virtual bool entries_valid() const = 0;

  std::uint64_t lane_writes() const { return lane_writes_; }
  std::uint64_t write_conflicts() const { return write_conflicts_; }

  virtual PredictorKind kind() const = 0;

 protected:
  /// The storage cell a write of (pc, lane) lands in; same-cell writes of
  /// one cycle arbitrate. Resolved for every write before any write lands.
  virtual std::uint64_t cell(std::uint64_t pc, int lane) const = 0;
  /// Lands an arbitration winner in `cell` (as returned by `cell`).
  virtual void write(std::uint64_t cell, std::uint64_t pc,
                     std::uint8_t carries) = 0;

 private:
  struct Resolved {
    std::uint64_t cell;
    std::uint64_t pc;
    std::uint8_t carries;
  };

  std::vector<Resolved> resolved_;  ///< commit's scratch, empty between calls
  Xoshiro256 rng_;
  std::uint64_t lane_writes_ = 0;
  std::uint64_t write_conflicts_ = 0;
};

/// Instantiates the selected policy for one SM.
std::unique_ptr<CarryPredictor> make_predictor(const PredictorConfig& cfg,
                                               std::uint64_t seed);

}  // namespace st2::spec

// The carry-speculation rule, written once: each lane owns a 7-bit carry
// pattern; Peek pins the bits whose carry is statically certain, history
// supplies the rest, and mispredicting lanes write the true pattern back.
// The replay core (SmCore, against its CarryPredictor policy), the
// design-space lattice below and the trace harness built on it all predict
// with compose_prediction, detect with resolve_prediction and retrain with
// merge_history.
//
// CarrySpeculator is the "idealized" lattice used for the design-space
// exploration (Figures 3 and 5): it models every configuration on the DSE
// lattice with unbounded thread reach and ignores same-cycle write
// contention, exactly as the paper's Figure 5 does ("optimistic approaches
// ... which ignore contention"). It differs from the hardware policies only
// in how its table is indexed and how it trains.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/bitutils.hpp"
#include "src/common/contracts.hpp"
#include "src/spec/config.hpp"
#include "src/spec/peek.hpp"

namespace st2::spec {

/// The carry facts of one lane's add, all functions of its operands: Peek's
/// statically certain carry-ins and the ground truth. Capture stores one per
/// active adder lane (the replay stream's 4-byte record; the trace cache
/// writes it raw, so the field order is a disk format); the lattice derives
/// it on the fly.
struct LaneRecord {
  std::uint8_t peek_mask = 0;     ///< bit s-1 set: slice s's carry is certain
  std::uint8_t peek_carries = 0;  ///< the certain carries, under peek_mask
  std::uint8_t actual = 0;        ///< true carry-ins, slices 1..n-1
  std::uint8_t num_slices = 0;
};

/// The lane record of `a + b + cin` over `num_slices` slices. Operands must
/// already be in adder form (for subtraction: b complemented, cin = 1).
/// Branchless (one add + three byte gathers); inline because capture calls it
/// once per active adder lane. Scalar oracles: peek_reference and
/// actual_carries_reference.
inline LaneRecord lane_record(std::uint64_t a, std::uint64_t b, bool cin,
                              int num_slices) {
  const PeekResult pk = peek(a, b, num_slices);
  return {pk.mask, pk.carries,
          static_cast<std::uint8_t>(slice_carries(a, b, cin) &
                                    relevant_mask(num_slices)),
          static_cast<std::uint8_t>(num_slices)};
}

struct Prediction {
  std::uint8_t carries = 0;       ///< predicted carry-in, slices 1..n-1
  std::uint8_t peek_mask = 0;     ///< statically certain bits (never wrong)
  std::uint8_t dynamic_mask = 0;  ///< bits produced by dynamic speculation
};

/// The predict rule: the lane's Peek bits are pinned and the 7-bit history
/// pattern `hist` supplies every other bit the add owns. A lane without
/// Peek passes an empty peek and predicts from history alone.
inline Prediction compose_prediction(std::uint8_t hist,
                                     const LaneRecord& lane) {
  Prediction p;
  p.peek_mask = lane.peek_mask;
  p.dynamic_mask = static_cast<std::uint8_t>(relevant_mask(lane.num_slices) &
                                             ~lane.peek_mask);
  p.carries = static_cast<std::uint8_t>((lane.peek_carries & lane.peek_mask) |
                                        (hist & p.dynamic_mask));
  return p;
}

/// The write-back rule: a repairing lane writes its true carries into the
/// bits its add owns and keeps the rest of `hist` (a narrow op, e.g. a
/// 3-slice FP32 mantissa add, only owns the low bits of the 7-bit entry).
inline std::uint8_t merge_history(std::uint8_t hist, const LaneRecord& lane) {
  const std::uint8_t rel = relevant_mask(lane.num_slices);
  return static_cast<std::uint8_t>((hist & ~rel) | (lane.actual & rel));
}

struct SpeculationOutcome {
  std::uint8_t actual = 0;          ///< true carry-ins, slices 1..n-1
  std::uint8_t mispredicted = 0;    ///< wrong bits (always 0 under peek_mask)
  /// Slices that recompute in the second cycle (bit s-1 -> slice s): the
  /// lowest mispredicted slice and every higher slice whose carry-in is not
  /// statically certain (error-signal propagation, Figure 4; peeked slices
  /// have nothing to re-select because their carry never depended on lower
  /// slices).
  std::uint8_t recompute_mask = 0;
  bool any_misprediction() const { return mispredicted != 0; }
  /// Inline: the replay core calls this once per adder instruction issued.
  int recompute_count() const { return popcount_byte(recompute_mask); }
};

/// One add operation presented to the lattice one op at a time. Operands
/// must already be in adder form (for subtraction: b complemented, cin = 1).
struct AddOp {
  std::uint64_t pc = 0;     ///< static instruction id (logical PC)
  std::uint32_t gtid = 0;   ///< global thread id
  std::uint32_t ltid = 0;   ///< warp lane, 0..31
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool cin = false;
  int num_slices = kNumSlices;  ///< 8 for int64, 4 for int32, 3 for FP32, ...
};

/// XOR-fold of `pc` in k-bit chunks (the kXorHash PC index).
inline std::uint64_t fold_xor(std::uint64_t pc, int k) {
  const std::uint64_t mask = (std::uint64_t{1} << k) - 1;
  std::uint64_t h = 0;
  while (pc != 0) {
    h ^= pc & mask;
    pc >>= k;
  }
  return h;
}

/// The lattice's history table: 64-bit key -> 7-bit pattern, open-addressed
/// with linear probing over a power-of-two slot array indexed by a
/// multiplicative hash. Patterns are 7-bit, so bit 7 of a slot's entry byte
/// marks it occupied and no key is reserved as a sentinel. Keys and entry
/// bytes live in separate arrays (9 bytes a slot, not a padded 16). The
/// table only grows in reserve(), doubling at 3/4 load, so the entry
/// pointers find_or_insert hands out stay valid until the next reserve().
class PatternTable {
 public:
  static constexpr std::uint8_t kOccupied = 0x80;

  std::size_t size() const { return size_; }

  /// The entry byte of `key`, or nullptr.
  const std::uint8_t* find(std::uint64_t key) const {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if ((entries_[i] & kOccupied) == 0) return nullptr;
      if (keys_[i] == key) return &entries_[i];
    }
  }

  /// Makes room for `n` more keys: the next n find_or_insert calls neither
  /// grow the table nor move an entry.
  void reserve(std::size_t n) {
    if (size_ + n > limit_) grow(size_ + n);
  }

  /// The entry byte of `key` and whether it was just inserted (holding
  /// pattern 0). Needs room from reserve().
  std::pair<std::uint8_t*, bool> find_or_insert(std::uint64_t key) {
    ST2_ASSERT(size_ < limit_);
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if ((entries_[i] & kOccupied) == 0) {
        keys_[i] = key;
        entries_[i] = kOccupied;
        ++size_;
        return {&entries_[i], true};
      }
      if (keys_[i] == key) return {&entries_[i], false};
    }
  }

 private:
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  void grow(std::size_t need);

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint8_t> entries_;  ///< kOccupied | 7-bit pattern
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::size_t limit_ = 0;  ///< 3/4 of the capacity
  int shift_ = 64;         ///< 64 - log2(capacity)
};

/// What one lattice point does with a lane, as plain values: a warp-level
/// feeder copies it once per instruction so the per-lane loop reads no
/// config.
struct LatticeRule {
  std::uint8_t peek_keep = 0;  ///< 0xff with Peek, else 0
  bool valhalla = false;       ///< writes the broadcast pattern
  bool write_on_miss = false;  ///< Prev: a mispredicting lane writes
  bool write_always = false;   ///< VaLHALLA, or Prev under always_write

  /// The lane record this lattice point sees: without Peek it is empty.
  LaneRecord lane(std::uint64_t a, std::uint64_t b, bool cin,
                  int num_slices) const {
    ST2_EXPECTS(num_slices >= 2 && num_slices <= kNumSlices);
    LaneRecord r = lane_record(a, b, cin, num_slices);
    r.peek_mask &= peek_keep;
    r.peek_carries &= peek_keep;
    return r;
  }

  /// Trains entry byte `e` on one resolved lane, as one select. Prev writes
  /// the merged true pattern on a misprediction (Section IV-C), on first
  /// touch (`fresh`: so a cold entry does not stay cold when predicting 0
  /// happened to be right) or always under `always_write`; VaLHALLA
  /// broadcasts whether the add carried across any slice boundary on every
  /// add; static bases never write (and are never fresh).
  void train(std::uint8_t& e, const LaneRecord& lane, bool mispredicted,
             bool fresh) const {
    const auto broadcast = static_cast<std::uint8_t>(
        PatternTable::kOccupied | (lane.actual != 0 ? 0x7f : 0));
    const std::uint8_t merged =
        valhalla ? broadcast : merge_history(e, lane);
    const bool write = write_always | (write_on_miss & mispredicted) | fresh;
    // e = write ? merged : e, as mask arithmetic: compiled as a select the
    // store would hang off a branch on `mispredicted`, which data decides.
    const auto take = static_cast<std::uint8_t>(-static_cast<int>(write));
    e = static_cast<std::uint8_t>(e ^ ((e ^ merged) & take));
  }
};

class CarrySpeculator {
 public:
  explicit CarrySpeculator(const SpeculationConfig& cfg);

  /// The lane record this lattice point sees: without Peek it is empty.
  LaneRecord lane(std::uint64_t a, std::uint64_t b, bool cin,
                  int num_slices) const {
    return rule_.lane(a, b, cin, num_slices);
  }

  /// History-table entry of thread (gtid, ltid) at `pc`.
  std::uint64_t key(std::uint64_t pc, std::uint32_t gtid,
                    std::uint32_t ltid) const {
    ST2_EXPECTS(ltid < 32);
    const std::uint64_t pc_part = cfg_.pc == PcIndexing::kXorHash
                                      ? fold_xor(pc, cfg_.pc_bits)
                                      : pc & pc_mask_;
    ST2_ASSERT(pc_part < (std::uint64_t{1} << 32));
    const std::uint64_t tid_part = (gtid & gtid_mask_) | (ltid & ltid_mask_);
    return (tid_part << 32) | pc_part;
  }

  /// The 7-bit pattern the entry at `key` predicts: the static bases are
  /// constant patterns; an untouched entry predicts 0.
  std::uint8_t pattern(std::uint64_t key) const {
    if (!tabled_) return constant_;
    const std::uint8_t* e = table_.find(key);
    return e != nullptr ? *e & 0x7f : 0;
  }

  /// The entry byte `key` predicts from and trains (bit 7 aside, its
  /// pattern) and whether it was just inserted. Tabled bases find or insert
  /// it: a new entry holds pattern 0, exactly as an absent one predicts. The
  /// static bases share their constant pattern, which rule() never writes.
  /// Call reserve(n) before n of these; the pointers stay valid until the
  /// next reserve().
  std::pair<std::uint8_t*, bool> entry(std::uint64_t key) {
    if (!tabled_) return {&constant_, false};
    return table_.find_or_insert(key);
  }
  void reserve(std::size_t n) { table_.reserve(n); }

  const LatticeRule& rule() const { return rule_; }

  /// Trains the entry at `key` on one resolved lane (see LatticeRule::train).
  void train(std::uint64_t key, const LaneRecord& lane, bool mispredicted) {
    reserve(1);
    const auto [e, fresh] = entry(key);
    rule_.train(*e, lane, mispredicted, fresh);
  }

  /// One op at a time (no warp): the prediction for `op`.
  Prediction predict(const AddOp& op) const {
    return compose_prediction(pattern(key(op.pc, op.gtid, op.ltid)),
                              lane(op.a, op.b, op.cin, op.num_slices));
  }

  /// One op at a time: detects against `pred` and trains on the outcome.
  SpeculationOutcome resolve(const AddOp& op, const Prediction& pred);

  const SpeculationConfig& config() const { return cfg_; }

  /// Number of distinct history entries currently allocated (for the
  /// area-analysis bench).
  std::size_t table_entries() const { return table_.size(); }

 private:
  SpeculationConfig cfg_;
  LatticeRule rule_;
  bool tabled_ = false;         ///< Prev or VaLHALLA: patterns in table_
  std::uint8_t constant_ = 0;   ///< the static bases' pattern
  std::uint64_t pc_mask_ = 0;   ///< PC bits of the key (kNone/kFull/kModK)
  std::uint32_t gtid_mask_ = 0;
  std::uint32_t ltid_mask_ = 0;
  PatternTable table_;
};

/// Scalar reference for lane_record's ground truth — the property-test
/// oracle.
std::uint8_t actual_carries_reference(const AddOp& op);

/// Compares a prediction against the true carry pattern and derives the
/// misprediction and recompute masks. Shared by the idealized speculator and
/// the CRF-based hardware path in the timing simulator.
///
/// Branchless: the recompute mask ("lowest erring slice and every non-peeked
/// slice above it") is pure mask arithmetic. `mis & -mis` isolates the
/// lowest mispredicted bit; subtracting 1 turns it into the strictly-below
/// mask, so `~(low - 1)` covers at-or-above. When nothing mispredicted,
/// `low` is 0 and the unsigned wraparound of `low - 1` makes the cover mask
/// empty — no branch needed. Scalar oracle: resolve_prediction_reference.
inline SpeculationOutcome resolve_prediction(const Prediction& pred,
                                             std::uint8_t actual,
                                             int num_slices) {
  const std::uint32_t rel = relevant_mask(num_slices);
  SpeculationOutcome out{};
  const std::uint32_t act = actual & rel;
  const std::uint32_t mis =
      (pred.carries ^ act) & pred.dynamic_mask;
  ST2_ASSERT((mis & pred.peek_mask) == 0);
  const std::uint32_t low = mis & (0u - mis);  // lowest erring slice, or 0
  out.actual = static_cast<std::uint8_t>(act);
  out.mispredicted = static_cast<std::uint8_t>(mis);
  out.recompute_mask =
      static_cast<std::uint8_t>(rel & ~(low - 1u) & ~pred.peek_mask);
  return out;
}

/// Scalar reference for resolve_prediction — the property-test oracle.
SpeculationOutcome resolve_prediction_reference(const Prediction& pred,
                                                std::uint8_t actual,
                                                int num_slices);

}  // namespace st2::spec

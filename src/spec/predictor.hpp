// The carry-speculation rule, written once: each lane owns a 7-bit carry
// pattern; Peek pins the bits whose carry is statically certain, history
// supplies the rest, and mispredicting lanes write the true pattern back.
// compose_prediction predicts, resolve_prediction detects and merge_history
// retrains, one lane at a time; resolve_warp is the same rule for the active
// lanes of one warp instruction, eight byte lanes per uint64_t. The replay
// core (SmCore, against its CarryPredictor policy) and the design-space
// lattice below (and the trace harness built on it) both resolve through
// resolve_warp.
//
// CarrySpeculator is the "idealized" lattice used for the design-space
// exploration (Figures 3 and 5): it models every configuration on the DSE
// lattice with unbounded thread reach and ignores same-cycle write
// contention, exactly as the paper's Figure 5 does ("optimistic approaches
// ... which ignore contention"). It differs from the hardware policies only
// in how its table is indexed and how it trains.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/bitutils.hpp"
#include "src/common/contracts.hpp"
#include "src/spec/config.hpp"
#include "src/spec/peek.hpp"

namespace st2::spec {

/// The carry facts of one lane's add, all functions of its operands: Peek's
/// statically certain carry-ins and the ground truth. FunctionalCore::step
/// computes one per active adder lane and stores its Peek mask and true
/// carries into WarpLanes.
struct LaneRecord {
  std::uint8_t peek_mask = 0;     ///< bit s-1 set: slice s's carry is certain
  std::uint8_t peek_carries = 0;  ///< the certain carries, under peek_mask
  std::uint8_t actual = 0;        ///< true carry-ins, slices 1..n-1
  std::uint8_t num_slices = 0;
};

/// The lane record of `a + b + cin` over `num_slices` slices. Operands must
/// already be in adder form (for subtraction: b complemented, cin = 1).
/// Branchless (one add + three byte gathers); inline because the functional
/// step calls it once per active adder lane. Scalar oracles: peek_reference and
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

/// Lanes of a warp instruction; a CRF row holds one entry per lane.
inline constexpr int kWarpLanes = 32;

/// Loads eight byte lanes starting at `p`: byte i of the word is lane i.
inline std::uint64_t load_byte_lanes(const std::uint8_t* p) {
  static_assert(std::endian::native == std::endian::little,
                "byte lanes assume a little-endian host");
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store_byte_lanes(std::uint8_t* p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof v);
}

/// One warp instruction's lane records as two byte planes, one byte per
/// lane, valid where the lane is active: the Peek mask and the true carries.
/// The rest of a LaneRecord is not stored per lane: Peek is never wrong, so
/// the certain carries are `actual & peek_mask`, and the relevant mask is
/// fixed by the opcode's slice count, one byte per instruction.
/// FunctionalCore::step stores the planes once per active adder lane;
/// capture keeps one per adder instruction, inactive lanes zeroed
/// (`masked`), and resolve_warp reads them eight lanes to a uint64_t.
struct WarpLanes {
  std::array<std::uint8_t, kWarpLanes> peek_mask{};
  std::array<std::uint8_t, kWarpLanes> actual{};

  void set(int lane, const LaneRecord& r) {
    const auto l = static_cast<std::size_t>(lane);
    peek_mask[l] = r.peek_mask;
    actual[l] = r.actual;
  }

  /// The record of `lane` of an instruction whose relevant mask is
  /// `relevant`; its slice count comes back from the mask, whose n - 1 low
  /// bits are set.
  LaneRecord get(int lane, std::uint8_t relevant) const {
    const auto l = static_cast<std::size_t>(lane);
    return {peek_mask[l],
            static_cast<std::uint8_t>(actual[l] & peek_mask[l]), actual[l],
            static_cast<std::uint8_t>(std::bit_width(relevant) + 1)};
  }

  /// These planes with every byte of a lane outside `active` zeroed: one
  /// masked 8-byte copy per plane and word.
  WarpLanes masked(std::uint32_t active) const {
    WarpLanes out;
    for (int w = 0; w < kWarpLanes / 8; ++w) {
      const auto at = static_cast<std::size_t>(8 * w);
      const std::uint64_t live = byte_mask_from_bits(active >> (8 * w));
      store_byte_lanes(out.peek_mask.data() + at,
                       load_byte_lanes(peek_mask.data() + at) & live);
      store_byte_lanes(out.actual.data() + at,
                       load_byte_lanes(actual.data() + at) & live);
    }
    return out;
  }
};
static_assert(sizeof(WarpLanes) == 2 * kWarpLanes,
              "a WarpLanes is its two planes, with no padding");

/// Counts of one warp instruction's resolved lanes.
struct WarpTally {
  std::uint64_t ops = 0;           ///< resolved lanes
  std::uint64_t mispredicted = 0;  ///< lanes with any wrong carry bit
  std::uint64_t wrong_bits = 0;
  std::uint64_t carry_bits = 0;    ///< predicted bits, num_slices - 1 a lane
  std::uint64_t recomputes = 0;    ///< slices re-selected in the 2nd cycle
};

/// Detector faults of one warp instruction (src/fault) as lane masks, which
/// resolve_warp applies to its repair mask. Empty outside fault injection.
struct DetectorEdits {
  std::uint32_t mask = 0;    ///< a misprediction here goes undetected
  std::uint32_t detect = 0;  ///< a correct prediction here is flagged
};

/// One warp instruction resolved against a history row.
struct WarpResolve {
  /// Counts over the active lanes; a misprediction the `mask` edit hides is
  /// not counted (its wrong bits, lane and recomputes all drop out).
  WarpTally tally;
  std::uint32_t mispredicted = 0;  ///< lanes with a wrong bit, before edits
  /// Lanes the detector flags: they take the repair cycle and write back.
  std::uint32_t repair = 0;
  /// merge_history of each lane against its row byte; valid where active.
  std::array<std::uint8_t, kWarpLanes> merged{};
};

/// The packed rule: composes, resolves and counts the `active` lanes of one
/// warp instruction, whose relevant mask is `relevant` (relevant_mask of its
/// slice count), against the 32-byte history `row` (lane i reads byte i),
/// eight byte lanes per uint64_t, exactly as a lane-order loop of
/// compose_prediction, resolve_prediction and merge_history would, then
/// applies the detector `edits`. `peek_keep` is 0xff, or 0 to resolve
/// without Peek.
///
/// Per word: the mispredict word is `(hist ^ actual) & dyn` with
/// `dyn = relevant & ~peek` (Peek bits are never wrong, so their carries
/// drop out); its non-zero bytes are the mispredicted lanes. The tallies are
/// counted once per instruction: the carry bits are the active lanes times
/// the relevant mask's popcount, the mispredicted lanes a popcount of the
/// lane mask, and the wrong bits and recomputes (the per-byte upward smear
/// of the mispredict word under `dyn`) per-byte bit counts summed across the
/// words and then across the bytes by one multiply each.
inline WarpResolve resolve_warp(const std::uint8_t* row,
                                const WarpLanes& lanes, std::uint8_t relevant,
                                std::uint32_t active, std::uint8_t peek_keep,
                                DetectorEdits edits = {}) {
  // A byte counts at most 7 bits a word (relevant_mask is 7 bits wide), so
  // at most 28 over the four words and 224 over the eight bytes: the sums
  // never leave a byte, and sum_bytes is exact.
  static_assert(kNumPredictedCarries * kWarpLanes < 256,
                "per-byte tally accumulators must not overflow a byte");
  ST2_EXPECTS((relevant & ~relevant_mask(kNumSlices)) == 0);
  const std::uint64_t keep = peek_keep * 0x0101010101010101ULL;
  const std::uint64_t relevant_word = relevant * 0x0101010101010101ULL;
  WarpResolve r;
  std::uint64_t wrong_bytes = 0;      // per-byte counts of wrong bits
  std::uint64_t recompute_bytes = 0;  // per-byte counts of recomputes
  for (int w = 0; w < kWarpLanes / 8; ++w) {
    const std::uint32_t word_lanes = (active >> (8 * w)) & 0xffu;
    if (word_lanes == 0) continue;
    const auto at = static_cast<std::size_t>(8 * w);
    const std::uint64_t live = byte_mask_from_bits(word_lanes);
    const std::uint64_t pm =
        load_byte_lanes(lanes.peek_mask.data() + at) & keep;
    const std::uint64_t rel = relevant_word & live;
    const std::uint64_t act = load_byte_lanes(lanes.actual.data() + at) & rel;
    const std::uint64_t hist = load_byte_lanes(row + at);
    const std::uint64_t dyn = rel & ~pm;
    const std::uint64_t mis = (hist ^ act) & dyn;
    r.mispredicted |= std::uint32_t{pack_byte_msbs(nonzero_byte_msbs(mis))}
                      << (8 * w);
    // What the detector sees: a masked lane's misprediction is silent.
    const std::uint64_t seen =
        mis & ~byte_mask_from_bits(edits.mask >> (8 * w));
    wrong_bytes += byte_popcounts(seen);
    recompute_bytes += byte_popcounts(smear_bytes_up(seen) & dyn);
    store_byte_lanes(r.merged.data() + at, (hist & ~rel) | act);
  }
  WarpTally& t = r.tally;
  t.ops = static_cast<std::uint64_t>(popcount64(active));
  t.mispredicted = static_cast<std::uint64_t>(
      popcount64(r.mispredicted & ~edits.mask));
  t.wrong_bits = static_cast<std::uint64_t>(sum_bytes(wrong_bytes));
  t.carry_bits = t.ops * static_cast<std::uint64_t>(popcount_byte(relevant));
  t.recomputes = static_cast<std::uint64_t>(sum_bytes(recompute_bytes));
  // The two edits are independent: both can fire on one instruction.
  r.repair = (r.mispredicted & ~edits.mask) |
             (active & ~r.mispredicted & edits.detect);
  return r;
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

/// The lattice's history table, CRF-shaped: one row per (thread part >> 5,
/// PC part) holds the 7-bit patterns of 32 lanes and a mask of the lanes
/// ever trained. Because a global thread id's low 5 bits are its warp lane,
/// a row never splits a warp, and a warp makes one probe. Shared-scope keys
/// have no thread part and use lane 0 of their PC part's row. Rows are
/// open-addressed with linear probing over a power-of-two array indexed by
/// a multiplicative hash of the row key, doubling at 3/4 load.
class RowTable {
 public:
  /// Marks a free slot. Row keys hold at most 27 thread bits above 32 PC
  /// bits, so no key reaches it.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  struct Row {
    std::uint64_t key = kEmpty;
    std::uint32_t occupied = 0;  ///< bit i: entry i has been trained
    std::array<std::uint8_t, kWarpLanes> entries{};  ///< 7-bit patterns
  };

  /// Occupied entries: the sum of the rows' occupancy popcounts.
  std::size_t size() const { return size_; }

  /// The row of `key`, or nullptr.
  const Row* find(std::uint64_t key) const {
    if (rows_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (rows_[i].key == key) return &rows_[i];
      if (rows_[i].key == kEmpty) return nullptr;
    }
  }

  /// The row of `key`, inserted empty (every pattern 0, exactly as absent
  /// entries predict) if it was missing. Valid until the next call.
  Row& find_or_insert(std::uint64_t key) {
    ST2_EXPECTS(key != kEmpty);
    if (used_ == limit_) grow();
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (rows_[i].key == key) return rows_[i];
      if (rows_[i].key == kEmpty) {
        ++used_;
        rows_[i].key = key;
        return rows_[i];
      }
    }
  }

  /// Marks `lanes` of `row` occupied and returns those that were not (the
  /// lanes touched for the first time).
  std::uint32_t occupy(Row& row, std::uint32_t lanes) {
    const std::uint32_t fresh = lanes & ~row.occupied;
    row.occupied |= fresh;
    size_ += static_cast<std::size_t>(popcount64(fresh));
    return fresh;
  }

 private:
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  void grow();

  std::vector<Row> rows_;
  std::size_t mask_ = 0;
  std::size_t used_ = 0;   ///< rows in use
  std::size_t limit_ = 0;  ///< 3/4 of the capacity
  std::size_t size_ = 0;   ///< occupied entries
  int shift_ = 64;         ///< 64 - log2(capacity)
};

/// What one lattice point does with a lane, as plain values, so the warp
/// step reads no config.
struct LatticeRule {
  std::uint8_t peek_keep = 0;  ///< 0xff with Peek, else 0
  bool valhalla = false;       ///< writes the broadcast pattern
  bool write_on_miss = false;  ///< Prev: a mispredicting lane writes
  bool write_always = false;   ///< VaLHALLA, or Prev under always_write
  /// Row scope (Gtid, Ltid): lane i reads and trains entry i of its row.
  /// Otherwise every lane reads and trains the one shared entry.
  bool per_lane = false;

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
    const std::uint8_t broadcast = lane.actual != 0 ? 0x7f : 0;
    const std::uint8_t merged =
        valhalla ? broadcast : merge_history(e, lane);
    const bool write = write_always | (write_on_miss & mispredicted) | fresh;
    // e = write ? merged : e, as mask arithmetic: compiled as a select the
    // store would hang off a branch on `mispredicted`, which data decides.
    const auto take = static_cast<std::uint8_t>(-static_cast<int>(write));
    e = static_cast<std::uint8_t>(e ^ ((e ^ merged) & take));
  }

  /// The packed warp step: resolve_warp on the `active` lanes of one warp
  /// instruction with relevant mask `relevant`, then the lattice's training,
  /// exactly as a lane-order loop of compose_prediction, resolve_prediction
  /// and train would. `entries` is the 32-byte row the warp reads before
  /// any lane trains; without per_lane every lane reads and trains its byte
  /// 0, the one shared entry.
  /// `fresh` marks the lanes whose entry is touched for the first time.
  /// A row trains with one masked 8-byte store per word; the shared entry
  /// takes its last writer's merge, which is what folding the writers'
  /// merges in lane order leaves there.
  WarpTally step(const WarpLanes& lanes, std::uint8_t relevant,
                 std::uint32_t active, std::uint32_t fresh,
                 std::uint8_t* entries) const {
    std::array<std::uint8_t, kWarpLanes> shared{};
    if (!per_lane) shared.fill(entries[0]);
    const WarpResolve r = resolve_warp(per_lane ? entries : shared.data(),
                                       lanes, relevant, active, peek_keep);
    const std::uint32_t writers =
        active & ((write_always ? ~0u : 0u) |
                  (write_on_miss ? r.mispredicted : 0u) | fresh);
    if (per_lane) {
      const std::uint64_t rel = relevant * 0x0101010101010101ULL;
      for (int w = 0; w < kWarpLanes / 8; ++w) {
        const std::uint32_t word_writers = (writers >> (8 * w)) & 0xffu;
        if (word_writers == 0) continue;
        const auto at = static_cast<std::size_t>(8 * w);
        const std::uint64_t hist = load_byte_lanes(entries + at);
        // VaLHALLA writes 0x7f where the add carried across any slice
        // boundary, else 0.
        const std::uint64_t merged =
            valhalla ? (nonzero_byte_msbs(
                            load_byte_lanes(lanes.actual.data() + at) & rel) >>
                        7) * 0x7f
                     : load_byte_lanes(r.merged.data() + at);
        store_byte_lanes(entries + at,
                         hist ^ ((hist ^ merged) &
                                 byte_mask_from_bits(word_writers)));
      }
      return r.tally;
    }
    // Every writer replaces all the relevant bits of the shared entry and
    // keeps the rest (VaLHALLA replaces the whole entry), so folding the
    // writers in lane order ends at the highest writer's merge.
    if (writers == 0) return r.tally;
    const auto last = static_cast<std::size_t>(31 - std::countl_zero(writers));
    entries[0] = valhalla ? ((lanes.actual[last] & relevant) != 0 ? 0x7f : 0)
                          : r.merged[last];
    return r.tally;
  }
};

class CarrySpeculator {
 public:
  explicit CarrySpeculator(const SpeculationConfig& cfg);

  /// One warp instruction: the packed step (LatticeRule::step) of the
  /// `active` lanes of `lanes` with relevant mask `relevant`, whose lane 0
  /// is global thread `gtid0` (a multiple of 32), against one probe of the
  /// table.
  WarpTally step(std::uint64_t pc, std::uint32_t gtid0, const WarpLanes& lanes,
                 std::uint8_t relevant, std::uint32_t active) {
    ST2_EXPECTS((gtid0 & 31u) == 0);
    if (!tabled_) {
      std::array<std::uint8_t, kWarpLanes> constants;
      constants.fill(constant_);
      return rule_.step(lanes, relevant, active, 0, constants.data());
    }
    const Slot s = slot(pc, gtid0, 0);
    RowTable::Row& row = table_.find_or_insert(s.row);
    // A row scope occupies every active lane's entry; the shared entry is
    // fresh for the lowest active lane only.
    const std::uint32_t fresh =
        rule_.per_lane ? table_.occupy(row, active)
                       : table_.occupy(row, 1u) * (active & (0u - active));
    return rule_.step(lanes, relevant, active, fresh, row.entries.data());
  }

  /// One op at a time (no warp): the prediction for `op`.
  Prediction predict(const AddOp& op) const {
    return compose_prediction(pattern(slot(op.pc, op.gtid, op.ltid)),
                              rule_.lane(op.a, op.b, op.cin, op.num_slices));
  }

  /// One op at a time: detects against `pred` and trains on the outcome.
  SpeculationOutcome resolve(const AddOp& op, const Prediction& pred);

  const SpeculationConfig& config() const { return cfg_; }

  /// Number of distinct history entries trained so far (for the
  /// area-analysis bench).
  std::size_t table_entries() const { return table_.size(); }

 private:
  /// Where the history of thread (gtid, ltid) at `pc` lives: a row key and
  /// the lane within the row.
  struct Slot {
    std::uint64_t row = 0;
    int lane = 0;
  };
  Slot slot(std::uint64_t pc, std::uint32_t gtid, std::uint32_t ltid) const {
    ST2_EXPECTS(ltid < 32);
    const std::uint64_t pc_part = cfg_.pc == PcIndexing::kXorHash
                                      ? fold_xor(pc, cfg_.pc_bits)
                                      : pc & pc_mask_;
    ST2_ASSERT(pc_part < (std::uint64_t{1} << 32));
    const std::uint32_t tid_part = (gtid & gtid_mask_) | (ltid & ltid_mask_);
    return {(std::uint64_t{tid_part >> 5} << 32) | pc_part,
            static_cast<int>(tid_part & 31u)};
  }

  /// The 7-bit pattern the entry at `s` predicts: the static bases are
  /// constant patterns; an untouched entry predicts 0.
  std::uint8_t pattern(const Slot& s) const {
    if (!tabled_) return constant_;
    const RowTable::Row* r = table_.find(s.row);
    return r != nullptr ? r->entries[static_cast<std::size_t>(s.lane)] : 0;
  }

  SpeculationConfig cfg_;
  LatticeRule rule_;
  bool tabled_ = false;         ///< Prev or VaLHALLA: patterns in table_
  std::uint8_t constant_ = 0;   ///< the static bases' pattern
  std::uint64_t pc_mask_ = 0;   ///< PC bits of a row key (kNone/kFull/kModK)
  std::uint32_t gtid_mask_ = 0;
  std::uint32_t ltid_mask_ = 0;
  RowTable table_;
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

// The carry-speculation rule, written once: each lane owns a 7-bit carry
// pattern; Peek pins the bits whose carry is statically certain, history
// supplies the rest, and mispredicting lanes write the true pattern back.
// compose_prediction predicts, resolve_prediction detects and merge_history
// retrains, one lane at a time. For a whole warp instruction the rule is
// split in two: lane_words derives, once per instruction, everything that
// does not depend on history (each 8-lane word's owned bits, true carries
// and Peek-certain bits, and the instruction's `ops` and `carry_bits`), and
// the packed steps do only the history-dependent work on those words, eight
// byte lanes per uint64_t. The replay core (SmCore, against its
// CarryPredictor policy) resolves through resolve_warp; the design-space
// lattice below (and the trace harness built on it) through lattice_step.
//
// CarrySpeculator is the "idealized" lattice used for the design-space
// exploration (Figures 3 and 5): it models every configuration on the DSE
// lattice with unbounded thread reach and ignores same-cycle write
// contention, exactly as the paper's Figure 5 does ("optimistic approaches
// ... which ignore contention"). It differs from the hardware policies only
// in how its table is indexed and how it trains, and it picks, once at
// construction, the lattice_step instantiated for its point.
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
/// (`masked`), and lane_words reads them eight lanes to a uint64_t.
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

/// The history-independent facts of one warp instruction, as four 8-lane
/// words (byte i of word w is lane 8w+i): the bits each lane's add owns
/// (the relevant mask on active lanes, 0 on inactive ones), its true
/// carries and its Peek-certain bits, both under the owned bits. Derived
/// once per instruction by lane_words; every packed step reads them.
struct LaneWords {
  static constexpr int kWords = kWarpLanes / 8;
  std::array<std::uint64_t, kWords> owned{};
  std::array<std::uint64_t, kWords> actual{};  ///< true carries
  std::array<std::uint64_t, kWords> peek{};    ///< statically certain bits
  std::uint32_t active = 0;
  std::uint64_t ops = 0;         ///< active lanes
  std::uint64_t carry_bits = 0;  ///< ops times the owned bits of a lane

  bool operator==(const LaneWords&) const = default;
};

/// The words of the `active` lanes of `lanes` for an instruction whose
/// relevant mask is `relevant` (relevant_mask of its slice count). Bytes of
/// inactive lanes are ignored, so the planes need not be masked.
inline LaneWords lane_words(const WarpLanes& lanes, std::uint8_t relevant,
                            std::uint32_t active) {
  ST2_EXPECTS((relevant & ~relevant_mask(kNumSlices)) == 0);
  const std::uint64_t relevant_word = relevant * 0x0101010101010101ULL;
  LaneWords w;
  for (int i = 0; i < LaneWords::kWords; ++i) {
    const auto at = static_cast<std::size_t>(8 * i);
    const std::uint64_t owned =
        relevant_word & byte_mask_from_bits(active >> (8 * i));
    w.owned[static_cast<std::size_t>(i)] = owned;
    w.actual[static_cast<std::size_t>(i)] =
        load_byte_lanes(lanes.actual.data() + at) & owned;
    w.peek[static_cast<std::size_t>(i)] =
        load_byte_lanes(lanes.peek_mask.data() + at) & owned;
  }
  w.active = active;
  w.ops = static_cast<std::uint64_t>(popcount64(active));
  w.carry_bits = w.ops * static_cast<std::uint64_t>(popcount_byte(relevant));
  return w;
}

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

// The per-word rule both packed steps share: the mispredict word is
// `(hist ^ actual) & dyn` with `dyn = owned & ~peek` (Peek bits are never
// wrong, so their carries drop out); its non-zero bytes are the
// mispredicted lanes. Wrong bits and recomputes (the per-byte upward smear
// of the mispredict word under `dyn`) are per-byte bit counts summed across
// the words and then across the bytes by one multiply each. A byte counts
// at most 7 bits a word (relevant_mask is 7 bits wide), so at most 28 over
// the four words and 224 over the eight bytes: the sums never leave a byte,
// and sum_bytes is exact.
static_assert(kNumPredictedCarries * kWarpLanes < 256,
              "per-byte tally accumulators must not overflow a byte");

/// The replay core's packed rule: composes, resolves and counts the lanes
/// of `w` against the 32-byte history `row` (lane i reads byte i) with
/// Peek, exactly as a lane-order loop of compose_prediction,
/// resolve_prediction and merge_history would, then applies the detector
/// `edits`.
inline WarpResolve resolve_warp(const std::uint8_t* row, const LaneWords& w,
                                DetectorEdits edits = {}) {
  WarpResolve r;
  std::uint64_t wrong_bytes = 0;      // per-byte counts of wrong bits
  std::uint64_t recompute_bytes = 0;  // per-byte counts of recomputes
  for (int i = 0; i < LaneWords::kWords; ++i) {
    const auto at = static_cast<std::size_t>(8 * i);
    const auto wi = static_cast<std::size_t>(i);
    const std::uint64_t hist = load_byte_lanes(row + at);
    const std::uint64_t dyn = w.owned[wi] & ~w.peek[wi];
    const std::uint64_t mis = (hist ^ w.actual[wi]) & dyn;
    r.mispredicted |= std::uint32_t{pack_byte_msbs(nonzero_byte_msbs(mis))}
                      << (8 * i);
    // What the detector sees: a masked lane's misprediction is silent.
    const std::uint64_t seen =
        mis & ~byte_mask_from_bits(edits.mask >> (8 * i));
    wrong_bytes += byte_popcounts(seen);
    recompute_bytes += byte_popcounts(smear_bytes_up(seen) & dyn);
    store_byte_lanes(r.merged.data() + at,
                     (hist & ~w.owned[wi]) | w.actual[wi]);
  }
  WarpTally& t = r.tally;
  t.ops = w.ops;
  t.mispredicted = static_cast<std::uint64_t>(
      popcount64(r.mispredicted & ~edits.mask));
  t.wrong_bits = static_cast<std::uint64_t>(sum_bytes(wrong_bytes));
  t.carry_bits = w.carry_bits;
  t.recomputes = static_cast<std::uint64_t>(sum_bytes(recompute_bytes));
  // The two edits are independent: both can fire on one instruction.
  r.repair = (r.mispredicted & ~edits.mask) |
             (w.active & ~r.mispredicted & edits.detect);
  return r;
}

/// How a lattice point trains its history entries.
enum class Training : std::uint8_t {
  kNone,        ///< the static bases: a constant pattern, never written
  kPrev,        ///< mispredicting lanes and first touches write the merge
  kPrevAlways,  ///< Prev under always_write: every lane writes the merge
  kValhalla,    ///< every lane writes its broadcast pattern
};

/// The lattice's packed warp step for one shape: resolves the lanes of `w`
/// (without Peek unless kPeek) against their entries, then trains, exactly
/// as a lane-order loop of compose_prediction, resolve_prediction and the
/// lane rule would (every lane reads before any trains). With kPerLane,
/// `entries` is a 32-byte row and lane i reads and trains byte i, one
/// masked 8-byte store per word; otherwise every lane reads and trains the
/// one shared entry `entries[0]`, broadcast into each word, and it takes
/// its last writer's merge, which is what folding the writers' merges in
/// lane order leaves there. `fresh` marks the lanes whose entry is touched
/// for the first time (Prev writes them whether or not they mispredict, so
/// a cold entry does not stay cold when predicting 0 happened to be right).
/// VaLHALLA writes 0x7f where the add carried across any slice boundary,
/// else 0. Branch-free: a row's writers are byte masks, and the shared
/// entry's write is a select. Always inlined: it runs once per lattice
/// point per adder record, and GCC otherwise leaves the Prev shapes a call.
template <bool kPeek, bool kPerLane, Training kTrain>
[[gnu::always_inline]] inline WarpTally lattice_step(const LaneWords& w,
                                                     std::uint32_t fresh,
                                                     std::uint8_t* entries) {
  const std::uint64_t shared = entries[0] * 0x0101010101010101ULL;
  std::uint64_t mis_lane_bytes = 0;   // per-byte counts of wrong lanes
  std::uint64_t wrong_bytes = 0;      // per-byte counts of wrong bits
  std::uint64_t recompute_bytes = 0;  // per-byte counts of recomputes
  std::uint32_t mis_lanes = 0;        // the shared entry's Prev writers
  for (int i = 0; i < LaneWords::kWords; ++i) {
    const auto at = static_cast<std::size_t>(8 * i);
    const auto wi = static_cast<std::size_t>(i);
    const std::uint64_t hist =
        kPerLane ? load_byte_lanes(entries + at) : shared;
    const std::uint64_t dyn = kPeek ? w.owned[wi] & ~w.peek[wi] : w.owned[wi];
    const std::uint64_t mis = (hist ^ w.actual[wi]) & dyn;
    const std::uint64_t mis_msbs = nonzero_byte_msbs(mis);
    mis_lane_bytes += mis_msbs >> 7;
    wrong_bytes += byte_popcounts(mis);
    recompute_bytes += byte_popcounts(smear_bytes_up(mis) & dyn);
    if constexpr (kPerLane && kTrain == Training::kValhalla) {
      const std::uint64_t live = (nonzero_byte_msbs(w.owned[wi]) >> 7) * 0xff;
      const std::uint64_t carried =
          (nonzero_byte_msbs(w.actual[wi]) >> 7) * 0x7f;
      store_byte_lanes(entries + at, hist ^ ((hist ^ carried) & live));
    } else if constexpr (kPerLane && kTrain != Training::kNone) {
      const std::uint64_t take =
          kTrain == Training::kPrevAlways
              ? (nonzero_byte_msbs(w.owned[wi]) >> 7) * 0xff
              : ((mis_msbs >> 7) * 0xff) |
                    byte_mask_from_bits(fresh >> (8 * i));
      const std::uint64_t merged = (hist & ~w.owned[wi]) | w.actual[wi];
      store_byte_lanes(entries + at, hist ^ ((hist ^ merged) & take));
    } else if constexpr (kTrain == Training::kPrev) {
      mis_lanes |= std::uint32_t{pack_byte_msbs(mis_msbs)} << (8 * i);
    }
  }
  if constexpr (!kPerLane && kTrain != Training::kNone) {
    // Every writer replaces all the owned bits of the shared entry and
    // keeps the rest (VaLHALLA replaces the whole entry), so folding the
    // writers in lane order ends at the highest writer's merge.
    // With no writer, `last` is lane 0 and the select keeps the entry.
    const std::uint32_t writers =
        kTrain == Training::kPrev ? mis_lanes | fresh : w.active;
    const int last = 31 - std::countl_zero(writers | 1u);
    const auto byte_of = [&](const auto& words) {
      return static_cast<std::uint8_t>(
          words[static_cast<std::size_t>(last >> 3)] >> (8 * (last & 7)));
    };
    const std::uint8_t actual = byte_of(w.actual);
    const std::uint8_t e = entries[0];
    const std::uint8_t merged =
        kTrain == Training::kValhalla
            ? static_cast<std::uint8_t>(actual != 0 ? 0x7f : 0)
            : static_cast<std::uint8_t>((e & ~byte_of(w.owned)) | actual);
    const auto take = static_cast<std::uint8_t>(0u - (writers != 0));
    entries[0] = static_cast<std::uint8_t>(e ^ ((e ^ merged) & take));
  }
  WarpTally t;
  t.ops = w.ops;
  t.mispredicted = static_cast<std::uint64_t>(sum_bytes(mis_lane_bytes));
  t.wrong_bits = static_cast<std::uint64_t>(sum_bytes(wrong_bytes));
  t.carry_bits = w.carry_bits;
  t.recomputes = static_cast<std::uint64_t>(sum_bytes(recompute_bytes));
  return t;
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

class CarrySpeculator {
 public:
  explicit CarrySpeculator(const SpeculationConfig& cfg);

  /// One warp instruction: the lattice_step of this point on the lanes of
  /// `w`, whose lane 0 is global thread `gtid0` (a multiple of 32), against
  /// one probe of the table (none for the static bases).
  WarpTally step(std::uint64_t pc, std::uint32_t gtid0, const LaneWords& w) {
    ST2_EXPECTS((gtid0 & 31u) == 0);
    return (this->*step_)(pc, gtid0, w);
  }

  /// One op at a time (no warp): the prediction for `op`.
  Prediction predict(const AddOp& op) const {
    return compose_prediction(pattern(slot(op.pc, op.gtid, op.ltid)),
                              lane(op));
  }

  /// One op at a time: detects against `pred` and trains on the outcome.
  SpeculationOutcome resolve(const AddOp& op, const Prediction& pred);

  const SpeculationConfig& config() const { return cfg_; }

  /// Number of distinct history entries trained so far (for the
  /// area-analysis bench).
  std::size_t table_entries() const { return table_.size(); }

 private:
  using Step = WarpTally (CarrySpeculator::*)(std::uint64_t, std::uint32_t,
                                              const LaneWords&);
  /// The step of this point's shape, instantiated in predictor.cpp.
  template <bool kPeek, bool kPerLane, Training kTrain>
  WarpTally step_as(std::uint64_t pc, std::uint32_t gtid0, const LaneWords& w);
  static Step step_for(const SpeculationConfig& cfg);

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

  /// The lane record this point sees of `op`: without Peek, none is certain.
  LaneRecord lane(const AddOp& op) const {
    ST2_EXPECTS(op.num_slices >= 2 && op.num_slices <= kNumSlices);
    LaneRecord r = lane_record(op.a, op.b, op.cin, op.num_slices);
    if (!cfg_.peek) r.peek_mask = r.peek_carries = 0;
    return r;
  }

  SpeculationConfig cfg_;
  Step step_ = nullptr;
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

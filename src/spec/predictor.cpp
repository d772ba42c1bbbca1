#include "src/spec/predictor.hpp"

#include <bit>
#include <utility>

#include "src/common/contracts.hpp"

namespace st2::spec {

std::uint8_t actual_carries_reference(const AddOp& op) {
  std::uint8_t packed = 0;
  for (int s = 1; s < op.num_slices; ++s) {
    if (slice_carry_in(op.a, op.b, op.cin, s)) {
      packed |= std::uint8_t(1u << (s - 1));
    }
  }
  return packed;
}

void RowTable::grow() {
  const std::size_t cap = rows_.empty() ? 16 : rows_.size() * 2;
  const std::vector<Row> old = std::exchange(rows_, std::vector<Row>(cap));
  mask_ = cap - 1;
  limit_ = cap / 4 * 3;
  shift_ = 64 - std::countr_zero(cap);
  for (const Row& r : old) {
    if (r.key == kEmpty) continue;
    std::size_t i = home(r.key);
    while (rows_[i].key != kEmpty) i = (i + 1) & mask_;
    rows_[i] = r;
  }
}

CarrySpeculator::CarrySpeculator(const SpeculationConfig& cfg)
    : cfg_(cfg),
      step_(step_for(cfg)),
      tabled_(cfg.base == BasePolicy::kPrev ||
              cfg.base == BasePolicy::kValhalla),
      constant_(cfg.base == BasePolicy::kStaticOne ? 0x7f : 0) {
  switch (cfg.pc) {
    case PcIndexing::kNone: pc_mask_ = 0; break;
    case PcIndexing::kFull: pc_mask_ = ~std::uint64_t{0}; break;
    case PcIndexing::kModK:
      pc_mask_ = (std::uint64_t{1} << cfg.pc_bits) - 1;
      break;
    case PcIndexing::kXorHash: break;  // key() folds instead
  }
  gtid_mask_ = cfg.scope == ThreadScope::kGlobalTid ? ~0u : 0u;
  ltid_mask_ = cfg.scope == ThreadScope::kLocalTid ? ~0u : 0u;
}

template <bool kPeek, bool kPerLane, Training kTrain>
WarpTally CarrySpeculator::step_as(std::uint64_t pc, std::uint32_t gtid0,
                                   const LaneWords& w) {
  if constexpr (kTrain == Training::kNone) {
    std::uint8_t constant = constant_;
    return lattice_step<kPeek, false, kTrain>(w, 0, &constant);
  } else {
    RowTable::Row& row = table_.find_or_insert(slot(pc, gtid0, 0).row);
    // A row scope occupies every active lane's entry; the shared entry is
    // fresh for the lowest active lane only.
    const std::uint32_t fresh =
        kPerLane ? table_.occupy(row, w.active)
                 : table_.occupy(row, 1u) * (w.active & (0u - w.active));
    return lattice_step<kPeek, kPerLane, kTrain>(w, fresh,
                                                 row.entries.data());
  }
}

CarrySpeculator::Step CarrySpeculator::step_for(const SpeculationConfig& cfg) {
  // Indexed [peek][per_lane][training]; the static bases have no row.
  constexpr Step kSteps[2][2][4] = {
      {{&CarrySpeculator::step_as<false, false, Training::kNone>,
        &CarrySpeculator::step_as<false, false, Training::kPrev>,
        &CarrySpeculator::step_as<false, false, Training::kPrevAlways>,
        &CarrySpeculator::step_as<false, false, Training::kValhalla>},
       {nullptr, &CarrySpeculator::step_as<false, true, Training::kPrev>,
        &CarrySpeculator::step_as<false, true, Training::kPrevAlways>,
        &CarrySpeculator::step_as<false, true, Training::kValhalla>}},
      {{&CarrySpeculator::step_as<true, false, Training::kNone>,
        &CarrySpeculator::step_as<true, false, Training::kPrev>,
        &CarrySpeculator::step_as<true, false, Training::kPrevAlways>,
        &CarrySpeculator::step_as<true, false, Training::kValhalla>},
       {nullptr, &CarrySpeculator::step_as<true, true, Training::kPrev>,
        &CarrySpeculator::step_as<true, true, Training::kPrevAlways>,
        &CarrySpeculator::step_as<true, true, Training::kValhalla>}}};
  Training train = Training::kNone;
  switch (cfg.base) {
    case BasePolicy::kStaticZero:
    case BasePolicy::kStaticOne: train = Training::kNone; break;
    case BasePolicy::kValhalla: train = Training::kValhalla; break;
    case BasePolicy::kPrev:
      train = cfg.always_write ? Training::kPrevAlways : Training::kPrev;
      break;
  }
  const bool per_lane =
      train != Training::kNone && cfg.scope != ThreadScope::kShared;
  return kSteps[cfg.peek][per_lane][static_cast<int>(train)];
}

SpeculationOutcome CarrySpeculator::resolve(const AddOp& op,
                                            const Prediction& pred) {
  const LaneRecord l = lane(op);
  const SpeculationOutcome out =
      resolve_prediction(pred, l.actual, op.num_slices);
  if (!tabled_) return out;  // the static bases never train
  const Slot s = slot(op.pc, op.gtid, op.ltid);
  RowTable::Row& row = table_.find_or_insert(s.row);
  const bool fresh = table_.occupy(row, 1u << s.lane) != 0;
  std::uint8_t& e = row.entries[static_cast<std::size_t>(s.lane)];
  // The lane rule lattice_step packs: VaLHALLA broadcasts on every add;
  // Prev writes the merge on a misprediction, a first touch or always
  // under always_write.
  if (cfg_.base == BasePolicy::kValhalla) {
    e = l.actual != 0 ? 0x7f : 0;
  } else if (out.any_misprediction() || fresh || cfg_.always_write) {
    e = merge_history(e, l);
  }
  return out;
}

SpeculationOutcome resolve_prediction_reference(const Prediction& pred,
                                                std::uint8_t actual,
                                                int num_slices) {
  const std::uint8_t rel = relevant_mask(num_slices);
  SpeculationOutcome out{};
  out.actual = static_cast<std::uint8_t>(actual & rel);
  out.mispredicted = static_cast<std::uint8_t>(
      (pred.carries ^ out.actual) & pred.dynamic_mask);
  ST2_ASSERT((out.mispredicted & pred.peek_mask) == 0);
  if (out.mispredicted != 0) {
    // Lowest erring slice; every non-peeked slice at or above it re-selects.
    const int lowest =
        std::countr_zero(static_cast<unsigned>(out.mispredicted));
    const auto at_or_above =
        static_cast<std::uint8_t>(rel & ~((1u << lowest) - 1u));
    out.recompute_mask =
        static_cast<std::uint8_t>(at_or_above & ~pred.peek_mask);
  }
  return out;
}

}  // namespace st2::spec

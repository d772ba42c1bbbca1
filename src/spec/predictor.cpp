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
      tabled_(cfg.base == BasePolicy::kPrev ||
              cfg.base == BasePolicy::kValhalla),
      constant_(cfg.base == BasePolicy::kStaticOne ? 0x7f : 0) {
  rule_.peek_keep = cfg.peek ? 0xff : 0;
  rule_.valhalla = cfg.base == BasePolicy::kValhalla;
  rule_.write_on_miss = cfg.base == BasePolicy::kPrev;
  rule_.write_always =
      rule_.valhalla || (rule_.write_on_miss && cfg.always_write);
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
  rule_.per_lane = tabled_ && cfg.scope != ThreadScope::kShared;
}

SpeculationOutcome CarrySpeculator::resolve(const AddOp& op,
                                            const Prediction& pred) {
  const LaneRecord l = rule_.lane(op.a, op.b, op.cin, op.num_slices);
  const SpeculationOutcome out =
      resolve_prediction(pred, l.actual, op.num_slices);
  if (!tabled_) return out;  // the static bases never train
  const Slot s = slot(op.pc, op.gtid, op.ltid);
  RowTable::Row& row = table_.find_or_insert(s.row);
  const std::uint32_t fresh = table_.occupy(row, 1u << s.lane);
  rule_.train(row.entries[static_cast<std::size_t>(s.lane)], l,
              out.any_misprediction(), fresh != 0);
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

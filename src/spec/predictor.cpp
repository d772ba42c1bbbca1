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

void PatternTable::grow(std::size_t need) {
  std::size_t cap = entries_.empty() ? 16 : entries_.size() * 2;
  while (need > cap / 4 * 3) cap *= 2;
  const std::vector<std::uint64_t> keys =
      std::exchange(keys_, std::vector<std::uint64_t>(cap));
  const std::vector<std::uint8_t> entries =
      std::exchange(entries_, std::vector<std::uint8_t>(cap));
  mask_ = cap - 1;
  limit_ = cap / 4 * 3;
  shift_ = 64 - std::countr_zero(cap);
  for (std::size_t j = 0; j < entries.size(); ++j) {
    if ((entries[j] & kOccupied) == 0) continue;
    std::size_t i = home(keys[j]);
    while ((entries_[i] & kOccupied) != 0) i = (i + 1) & mask_;
    keys_[i] = keys[j];
    entries_[i] = entries[j];
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
}

SpeculationOutcome CarrySpeculator::resolve(const AddOp& op,
                                            const Prediction& pred) {
  const LaneRecord l = lane(op.a, op.b, op.cin, op.num_slices);
  const SpeculationOutcome out =
      resolve_prediction(pred, l.actual, op.num_slices);
  train(key(op.pc, op.gtid, op.ltid), l, out.any_misprediction());
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

#include "src/spec/predictor.hpp"

#include <bit>

#include "src/common/contracts.hpp"

namespace st2::spec {

namespace {

std::uint64_t fold_xor(std::uint64_t pc, int k) {
  const std::uint64_t mask = (std::uint64_t{1} << k) - 1;
  std::uint64_t h = 0;
  while (pc != 0) {
    h ^= pc & mask;
    pc >>= k;
  }
  return h;
}

}  // namespace

std::uint8_t actual_carries_reference(const AddOp& op) {
  std::uint8_t packed = 0;
  for (int s = 1; s < op.num_slices; ++s) {
    if (slice_carry_in(op.a, op.b, op.cin, s)) {
      packed |= std::uint8_t(1u << (s - 1));
    }
  }
  return packed;
}

std::uint64_t CarrySpeculator::key(std::uint64_t pc, std::uint32_t gtid,
                                   std::uint32_t ltid) const {
  ST2_EXPECTS(ltid < 32);
  std::uint64_t pc_part = 0;
  switch (cfg_.pc) {
    case PcIndexing::kNone: pc_part = 0; break;
    case PcIndexing::kFull: pc_part = pc; break;
    case PcIndexing::kModK:
      pc_part = pc & ((std::uint64_t{1} << cfg_.pc_bits) - 1);
      break;
    case PcIndexing::kXorHash: pc_part = fold_xor(pc, cfg_.pc_bits); break;
  }
  std::uint64_t tid_part = 0;
  switch (cfg_.scope) {
    case ThreadScope::kShared: tid_part = 0; break;
    case ThreadScope::kGlobalTid: tid_part = gtid; break;
    case ThreadScope::kLocalTid: tid_part = ltid; break;
  }
  ST2_ASSERT(pc_part < (std::uint64_t{1} << 32));
  return (tid_part << 32) | pc_part;
}

void CarrySpeculator::train(std::uint64_t key, const LaneRecord& lane,
                            bool mispredicted) {
  switch (cfg_.base) {
    case BasePolicy::kStaticZero:
    case BasePolicy::kStaticOne:
      break;
    case BasePolicy::kValhalla:
      table_[key] = lane.actual != 0 ? 0x7f : 0;
      break;
    case BasePolicy::kPrev: {
      const auto [it, first_touch] = table_.try_emplace(key, 0);
      if (mispredicted || first_touch || cfg_.always_write) {
        it->second = merge_history(it->second, lane);
      }
      break;
    }
  }
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

#include "src/spec/config.hpp"

#include "src/common/contracts.hpp"

namespace st2::spec {

std::string SpeculationConfig::name() const {
  std::string n;
  switch (scope) {
    case ThreadScope::kShared: break;
    case ThreadScope::kGlobalTid: n += "Gtid+"; break;
    case ThreadScope::kLocalTid: n += "Ltid+"; break;
  }
  switch (base) {
    case BasePolicy::kStaticZero: n += "staticZero"; break;
    case BasePolicy::kStaticOne: n += "staticOne"; break;
    case BasePolicy::kValhalla: n += "VaLHALLA"; break;
    case BasePolicy::kPrev: n += "Prev"; break;
  }
  switch (pc) {
    case PcIndexing::kNone: break;
    case PcIndexing::kFull: n += "+FullPC"; break;
    case PcIndexing::kModK: n += "+ModPC" + std::to_string(pc_bits); break;
    case PcIndexing::kXorHash: n += "+XorPC" + std::to_string(pc_bits); break;
  }
  if (peek) n += "+Peek";
  if (always_write) n += "+AlwaysWrite";
  return n;
}

long long SpeculationConfig::table_bytes_per_sm() const {
  if (base == BasePolicy::kStaticZero || base == BasePolicy::kStaticOne) {
    return 0;
  }
  if (pc == PcIndexing::kFull) return -1;  // unbounded: analysis-only
  const long long pc_entries =
      pc == PcIndexing::kNone ? 1 : (1LL << pc_bits);
  long long contexts = 1;
  switch (scope) {
    case ThreadScope::kShared: contexts = 1; break;
    case ThreadScope::kGlobalTid: contexts = 2048; break;  // threads per SM
    case ThreadScope::kLocalTid: contexts = 32; break;
  }
  const long long bits_per_entry = base == BasePolicy::kValhalla ? 1 : 7;
  return (pc_entries * contexts * bits_per_entry + 7) / 8;
}

SpeculationConfig SpeculationConfig::static_zero() {
  return {BasePolicy::kStaticZero, false, PcIndexing::kNone, 0,
          ThreadScope::kShared};
}

SpeculationConfig SpeculationConfig::static_one() {
  return {BasePolicy::kStaticOne, false, PcIndexing::kNone, 0,
          ThreadScope::kShared};
}

SpeculationConfig SpeculationConfig::valhalla() {
  // VaLHALLA keeps its history per adder, i.e. effectively per hardware
  // thread context: model as global-tid-private.
  return {BasePolicy::kValhalla, false, PcIndexing::kNone, 0,
          ThreadScope::kGlobalTid};
}

SpeculationConfig SpeculationConfig::valhalla_peek() {
  return {BasePolicy::kValhalla, true, PcIndexing::kNone, 0,
          ThreadScope::kGlobalTid};
}

SpeculationConfig SpeculationConfig::prev() {
  return {BasePolicy::kPrev, false, PcIndexing::kNone, 0, ThreadScope::kShared};
}

SpeculationConfig SpeculationConfig::prev_peek() {
  return {BasePolicy::kPrev, true, PcIndexing::kNone, 0, ThreadScope::kShared};
}

SpeculationConfig SpeculationConfig::prev_modpc_peek(int k) {
  ST2_EXPECTS(k >= 1 && k <= 16);
  return {BasePolicy::kPrev, true, PcIndexing::kModK, k, ThreadScope::kShared};
}

SpeculationConfig SpeculationConfig::prev_xorpc_peek(int k) {
  ST2_EXPECTS(k >= 1 && k <= 16);
  return {BasePolicy::kPrev, true, PcIndexing::kXorHash, k,
          ThreadScope::kShared};
}

SpeculationConfig SpeculationConfig::gtid_prev_modpc4_peek() {
  return {BasePolicy::kPrev, true, PcIndexing::kModK, 4,
          ThreadScope::kGlobalTid};
}

SpeculationConfig SpeculationConfig::ltid_prev_modpc4_peek() {
  return {BasePolicy::kPrev, true, PcIndexing::kModK, 4,
          ThreadScope::kLocalTid};
}

SpeculationConfig SpeculationConfig::prev_gtid() {
  return {BasePolicy::kPrev, false, PcIndexing::kNone, 0,
          ThreadScope::kGlobalTid};
}

SpeculationConfig SpeculationConfig::prev_fullpc_gtid() {
  return {BasePolicy::kPrev, false, PcIndexing::kFull, 0,
          ThreadScope::kGlobalTid};
}

SpeculationConfig SpeculationConfig::prev_fullpc_ltid() {
  return {BasePolicy::kPrev, false, PcIndexing::kFull, 0,
          ThreadScope::kLocalTid};
}

std::vector<SpeculationConfig> SpeculationConfig::figure5_sweep() {
  return {
      static_zero(),
      static_one(),
      valhalla(),
      valhalla_peek(),
      prev(),
      prev_peek(),
      prev_modpc_peek(1),
      prev_modpc_peek(2),
      prev_modpc_peek(4),
      prev_modpc_peek(6),
      prev_xorpc_peek(4),
      gtid_prev_modpc4_peek(),
      ltid_prev_modpc4_peek(),
  };
}

std::optional<SpeculationConfig> SpeculationConfig::figure5_point(
    const std::string& name) {
  for (const auto& c : figure5_sweep()) {
    if (c.name() == name) return c;
  }
  return std::nullopt;
}

SpeculationConfig st2_config() {
  return SpeculationConfig::ltid_prev_modpc4_peek();
}

}  // namespace st2::spec

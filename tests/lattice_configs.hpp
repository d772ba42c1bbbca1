// Every design-space lattice point a bench or tool constructs (Figure 5's 13
// points, Figure 3's 3 correlation variants, the ST2 ablation's CRF-size /
// Peek / write-policy variants), deduplicated by name (ablation_st2's k=4
// row is the Figure 5 ST2 design). Shared by the lattice golden net and the
// predictor's reference-model test.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "src/spec/config.hpp"

namespace st2::test_support {

inline std::vector<spec::SpeculationConfig> lattice_configs() {
  std::vector<spec::SpeculationConfig> all =
      spec::SpeculationConfig::figure5_sweep();
  all.push_back(spec::SpeculationConfig::prev_gtid());
  all.push_back(spec::SpeculationConfig::prev_fullpc_gtid());
  all.push_back(spec::SpeculationConfig::prev_fullpc_ltid());
  for (int k = 1; k <= 6; ++k) {
    auto c = spec::SpeculationConfig::ltid_prev_modpc4_peek();
    c.pc_bits = k;
    all.push_back(c);
  }
  auto no_peek = spec::SpeculationConfig::ltid_prev_modpc4_peek();
  no_peek.peek = false;
  all.push_back(no_peek);
  auto always = spec::SpeculationConfig::ltid_prev_modpc4_peek();
  always.always_write = true;
  all.push_back(always);

  std::vector<spec::SpeculationConfig> out;
  std::set<std::string> seen;
  for (const auto& c : all) {
    if (seen.insert(c.name()).second) out.push_back(c);
  }
  return out;
}

}  // namespace st2::test_support

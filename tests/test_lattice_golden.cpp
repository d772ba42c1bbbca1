// Golden net for the design-space lattice: every SpeculationConfig a bench
// or tool builds (Figure 5's 13 points, Figure 3's 3 correlation variants,
// the ST2 ablation's CRF-size / Peek / write-policy variants) fed the
// trace-mode record stream of all 23 kernels must reproduce the exact
// counts in tests/golden/lattice.tsv. The bench CSVs round to percentages;
// this pins the integers behind them.
//
// On a mismatch the measured table is written to lattice_actual.tsv in the
// test's working directory; diff it against the golden to see which rows
// moved.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/spec_harness.hpp"
#include "src/sim/trace_run.hpp"
#include "src/workloads/workload.hpp"

namespace st2 {
namespace {

constexpr double kScale = 0.1;

/// Every lattice point a bench or tool constructs, deduplicated by name
/// (ablation_st2's k=4 row is the Figure 5 ST2 design).
std::vector<spec::SpeculationConfig> lattice_configs() {
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

std::string measure() {
  const std::vector<spec::SpeculationConfig> cfgs = lattice_configs();
  std::ostringstream os;
  os << "kernel\tconfig\tops\tmispredicted_ops\twrong_bits\tcarry_bits\t"
        "slice_recomputes\n";
  for (const auto& info : workloads::case_list()) {
    workloads::PreparedCase pc = workloads::prepare_case(info.name, kScale);
    std::vector<sim::SpeculationHarness> hs(cfgs.begin(), cfgs.end());
    for (const auto& lc : pc.launches) {
      sim::trace_run(pc.kernel, lc, *pc.mem, [&](const sim::ExecRecord& r) {
        for (auto& h : hs) h.feed(r);
      });
    }
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      const sim::SpeculationHarness& h = hs[i];
      os << info.name << '\t' << cfgs[i].name() << '\t' << h.ops() << '\t'
         << h.mispredicted_ops() << '\t' << h.wrong_carry_bits() << '\t'
         << h.carry_bits() << '\t' << h.slice_recomputes() << '\n';
    }
  }
  return os.str();
}

TEST(LatticeGolden, EveryBenchConfigMatchesTheCommittedCounts) {
  ASSERT_EQ(lattice_configs().size(), 23u);
  const std::string path = std::string(ST2_GOLDEN_DIR) + "/lattice.tsv";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden " << path;
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  const std::string actual = measure();
  if (actual != golden) {
    std::ofstream("lattice_actual.tsv") << actual;
    FAIL() << "lattice counts differ from " << path
           << "; measured table written to lattice_actual.tsv";
  }
}

}  // namespace
}  // namespace st2

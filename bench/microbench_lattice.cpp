// Google-benchmark microbenchmarks of the Figure-5 design-space lattice.
// Two on frozen inputs, the adder records of the 23 workloads at scale 0.1,
// recorded once by a trace-mode pass:
//
//   BM_LatticeStep/<config>  one CarrySpeculator per kernel, stepped over
//                            every adder record's lane words (one per
//                            figure5_sweep config), as each harness of
//                            fig5_dse does; the words are derived once per
//                            record, as ExecRecord::words does for all the
//                            harnesses of a pass;
//   BM_ResolveWarp           spec::lane_words and spec::resolve_warp over
//                            the same records against a small PC-indexed
//                            row table that repairing lanes retrain, as
//                            SmCore::speculate does against its CRF.
//
// and one in the setting of perfbench's dse-lattice workload:
//
//   BM_TracePass/<harnesses> one trace_run pass over every launch of the 23
//                            workloads at scale 0.25, the harnesses attached
//                            to its observer: `none` (the bare functional
//                            pass), `all13` (the 13 Figure 5 points, as
//                            fig5_dse feeds them) or `13x<config>` (13
//                            copies of one point). Preparing the inputs is
//                            not timed. A point's marginal cost in the
//                            interleaved pass is (13x<config> - none) / 13.
//
// Each iteration is one pass; items_per_second counts adder records (warp
// instructions for BM_TracePass). The tally counters are the totals of one
// pass: they are a pure function of the records, so a faster build that
// reports other totals has changed results.
//
//   microbench_lattice [--benchmark_filter=REGEX] [--benchmark_format=json]
#include <benchmark/benchmark.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bitutils.hpp"
#include "src/sim/functional.hpp"
#include "src/sim/spec_harness.hpp"
#include "src/sim/trace_run.hpp"
#include "src/spec/config.hpp"
#include "src/spec/predictor.hpp"
#include "src/workloads/workload.hpp"

namespace {

using namespace st2;

constexpr double kScale = 0.1;
/// perfbench's dse-lattice scale.
constexpr double kPassScale = 0.25;

/// One adder record: what CarrySpeculator::step and SmCore::speculate read.
struct Step {
  std::uint64_t pc = 0;
  std::uint32_t gtid0 = 0;
  std::uint32_t active = 0;
  std::uint8_t relevant = 0;
  spec::WarpLanes lanes;
  spec::LaneWords words;
};

/// The adder records of every workload, in trace order, and where each
/// kernel's records begin (a harness is per kernel).
struct Recorded {
  std::vector<Step> steps;
  std::vector<std::size_t> kernel_begin;  ///< plus steps.size() at the end
};

const Recorded& recorded() {
  static const Recorded rec = [] {
    Recorded r;
    for (const auto& info : workloads::case_list()) {
      r.kernel_begin.push_back(r.steps.size());
      workloads::PreparedCase pc = workloads::prepare_case(info.name, kScale);
      for (const auto& lc : pc.launches) {
        sim::trace_run(pc.kernel, lc, *pc.mem, [&](const sim::ExecRecord& e) {
          if (!e.has_adder_op) return;
          r.steps.push_back(
              {e.pc, sim::lane_gtid(e, 0), e.active_mask,
               spec::relevant_mask(sim::adder_slices(e.instr->op)), e.lanes,
               e.words()});
        });
      }
    }
    r.kernel_begin.push_back(r.steps.size());
    return r;
  }();
  return rec;
}

void add(spec::WarpTally& sum, const spec::WarpTally& t) {
  sum.ops += t.ops;
  sum.mispredicted += t.mispredicted;
  sum.wrong_bits += t.wrong_bits;
  sum.carry_bits += t.carry_bits;
  sum.recomputes += t.recomputes;
}

void report(benchmark::State& state, const spec::WarpTally& pass,
            std::size_t steps) {
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(steps));
  state.counters["ops"] = static_cast<double>(pass.ops);
  state.counters["mispredicted"] = static_cast<double>(pass.mispredicted);
  state.counters["wrong_bits"] = static_cast<double>(pass.wrong_bits);
  state.counters["carry_bits"] = static_cast<double>(pass.carry_bits);
  state.counters["recomputes"] = static_cast<double>(pass.recomputes);
}

void BM_LatticeStep(benchmark::State& state,
                    const spec::SpeculationConfig& cfg) {
  const Recorded& r = recorded();
  spec::WarpTally pass;
  for (auto _ : state) {
    pass = {};
    for (std::size_t k = 0; k + 1 < r.kernel_begin.size(); ++k) {
      spec::CarrySpeculator sp(cfg);
      for (std::size_t i = r.kernel_begin[k]; i < r.kernel_begin[k + 1];
           ++i) {
        const Step& s = r.steps[i];
        add(pass, sp.step(s.pc, s.gtid0, s.words));
      }
      benchmark::DoNotOptimize(sp);
    }
  }
  report(state, pass, r.steps.size());
}

void BM_ResolveWarp(benchmark::State& state) {
  const Recorded& r = recorded();
  constexpr std::size_t kRows = 64;
  std::vector<std::array<std::uint8_t, spec::kWarpLanes>> rows(kRows);
  spec::WarpTally pass;
  for (auto _ : state) {
    pass = {};
    for (auto& row : rows) row.fill(0);
    for (const Step& s : r.steps) {
      std::uint8_t* row = rows[s.pc % kRows].data();
      const spec::WarpResolve res = spec::resolve_warp(
          row, spec::lane_words(s.lanes, s.relevant, s.active));
      add(pass, res.tally);
      // Repairing lanes write their merged pattern back.
      for (int w = 0; w < spec::kWarpLanes / 8; ++w) {
        const auto at = static_cast<std::size_t>(8 * w);
        const std::uint64_t hist = spec::load_byte_lanes(row + at);
        const std::uint64_t merged =
            spec::load_byte_lanes(res.merged.data() + at);
        spec::store_byte_lanes(
            row + at, hist ^ ((hist ^ merged) &
                              byte_mask_from_bits(res.repair >> (8 * w))));
      }
    }
    benchmark::DoNotOptimize(rows.data());
  }
  report(state, pass, r.steps.size());
}
BENCHMARK(BM_ResolveWarp)->Unit(benchmark::kMillisecond);

void BM_TracePass(benchmark::State& state,
                  const std::vector<spec::SpeculationConfig>& harnesses) {
  std::uint64_t winstr = 0, adds = 0, mispredicted = 0;
  for (auto _ : state) {
    winstr = adds = mispredicted = 0;
    for (const auto& info : workloads::case_list()) {
      state.PauseTiming();
      workloads::PreparedCase pc =
          workloads::prepare_case(info.name, kPassScale);
      std::vector<sim::SpeculationHarness> hs;
      hs.reserve(harnesses.size());
      for (const auto& c : harnesses) hs.emplace_back(c);
      sim::TraceObserver obs;
      if (!hs.empty()) {
        obs = [&](const sim::ExecRecord& rec) {
          for (auto& h : hs) h.feed(rec);
        };
      }
      state.ResumeTiming();
      for (const auto& lc : pc.launches) {
        winstr += sim::trace_run(pc.kernel, lc, *pc.mem, obs)
                      .counters.warp_instructions;
      }
      state.PauseTiming();
      for (const auto& h : hs) {
        adds += h.ops();
        mispredicted += h.mispredicted_ops();
      }
      hs.clear();
      pc = {};
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(winstr));
  state.counters["winstr"] = static_cast<double>(winstr);
  state.counters["ops"] = static_cast<double>(adds);
  state.counters["mispredicted"] = static_cast<double>(mispredicted);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<spec::SpeculationConfig> sweep =
      spec::SpeculationConfig::figure5_sweep();
  for (const auto& cfg : sweep) {
    benchmark::RegisterBenchmark(("BM_LatticeStep/" + cfg.name()).c_str(),
                                 BM_LatticeStep, cfg)
        ->Unit(benchmark::kMillisecond);
  }
  const auto pass = [](const std::string& name,
                       std::vector<spec::SpeculationConfig> harnesses) {
    benchmark::RegisterBenchmark(("BM_TracePass/" + name).c_str(),
                                 BM_TracePass, std::move(harnesses))
        ->Unit(benchmark::kMillisecond);
  };
  pass("none", {});
  pass("all13", sweep);
  for (const auto& cfg : sweep) {
    pass("13x" + cfg.name(),
         std::vector<spec::SpeculationConfig>(sweep.size(), cfg));
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

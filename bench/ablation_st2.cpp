// Ablations of the ST2 design choices called out in DESIGN.md. These go
// beyond the paper's figures: they quantify the trade-offs behind decisions
// the paper states but does not sweep.
//
//  A1. CRF size (ModPC bits k = 1..6): accuracy vs per-SM storage.
//  A2. Peek within the final design: what the guaranteed-static predictions
//      contribute on top of history.
//  A3. Write policy: write-back only on misprediction (the paper's choice)
//      vs writing every add.
//  B.  Slice width vs speculation difficulty: 4-bit slices need 15 carry
//      predictions per 64-bit add instead of 7 — the accuracy tie-breaker
//      behind the paper's 8-bit choice (Section V-B).
//  C.  CRF realization vs idealized speculator: what SM partitioning and
//      write-port contention cost.
#include <array>
#include <iostream>
#include <map>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/common/bitutils.hpp"
#include "src/common/table.hpp"
#include "src/sim/spec_harness.hpp"
#include "src/sim/trace_run.hpp"
#include "src/workloads/workload.hpp"

namespace {

using namespace st2;

/// A standalone 4-bit-slice Ltid+ModPC4+Peek predictor, used for ablation B.
/// (The production code is specialized for 8-bit slices; this re-derives the
/// same policy at half the slice width.)
class FourBitSpeculator {
 public:
  double feed(const sim::ExecRecord& rec) {
    if (!rec.has_adder_op) return 0;
    for (int lane = 0; lane < 32; ++lane) {
      if (((rec.active_mask >> lane) & 1u) == 0) continue;
      const sim::AdderMicroOp& m = rec.adder[static_cast<std::size_t>(lane)];
      const int width_bits = m.num_slices * 8;
      const int boundaries = width_bits / 4 - 1;
      const std::uint64_t key = (static_cast<std::uint64_t>(lane) << 4) |
                                (rec.pc & 0xf);
      std::uint32_t& entry = table_[key];
      bool mispredicted = false;
      std::uint32_t actual = 0;
      for (int b = 1; b <= boundaries; ++b) {
        const int bitpos = 4 * b;
        const bool truth = carry_into_bit(m.a, m.b, m.cin, bitpos);
        if (truth) actual |= 1u << (b - 1);
        // Peek at the MSB of the previous 4-bit slice.
        const bool a_msb = bit(m.a, bitpos - 1);
        const bool b_msb = bit(m.b, bitpos - 1);
        if (a_msb == b_msb) continue;  // statically certain
        const bool predicted = ((entry >> (b - 1)) & 1u) != 0;
        if (predicted != truth) mispredicted = true;
      }
      if (mispredicted) entry = actual;
      ++ops_;
      mispredicts_ += mispredicted;
    }
    return 0;
  }
  double rate() const { return ops_ ? double(mispredicts_) / ops_ : 0; }

 private:
  std::map<std::uint64_t, std::uint32_t> table_;
  long ops_ = 0;
  long mispredicts_ = 0;
};

}  // namespace

int main() {
  const double scale =
      std::min(bench::bench_scale(), 0.35);  // ablations sweep many configs

  // --- configurations under test ---------------------------------------------
  std::vector<spec::SpeculationConfig> cfgs;
  std::vector<std::string> labels;
  // A1: CRF size sweep (Ltid scope like the final design).
  for (int k = 1; k <= 6; ++k) {
    auto c = spec::SpeculationConfig::ltid_prev_modpc4_peek();
    c.pc_bits = k;
    cfgs.push_back(c);
    labels.push_back("A1: k=" + std::to_string(k) + " (" +
                     std::to_string((1 << k) * 224 / 8) + " B/SM)");
  }
  // A2: peek off.
  {
    auto c = spec::SpeculationConfig::ltid_prev_modpc4_peek();
    c.peek = false;
    cfgs.push_back(c);
    labels.push_back("A2: final design without Peek");
  }
  // A3: always-write.
  {
    auto c = spec::SpeculationConfig::ltid_prev_modpc4_peek();
    c.always_write = true;
    cfgs.push_back(c);
    labels.push_back("A3: write every add (vs on-mispredict)");
  }

  std::vector<double> sums(cfgs.size(), 0.0);
  double fourbit_sum = 0.0;
  double st2_crf_sum = 0.0;
  double st2_ideal_sum = 0.0;
  int n = 0;

  for (const auto& info : workloads::case_list()) {
    workloads::PreparedCase pc = workloads::prepare_case(info.name, scale);
    std::vector<sim::SpeculationHarness> hs(cfgs.begin(), cfgs.end());
    sim::SpeculationHarness ideal(spec::st2_config());
    FourBitSpeculator fourbit;
    auto obs = [&](const sim::ExecRecord& rec) {
      for (auto& h : hs) h.feed(rec);
      ideal.feed(rec);
      fourbit.feed(rec);
    };
    for (const auto& lc : pc.launches) {
      // The same pass that feeds the speculation harnesses also records
      // the capture ablation C's timing run consumes below. The 4-bit
      // speculator reads the lanes' micro-ops.
      bench::trace_pass(pc.kernel, lc, *pc.mem, obs, /*store_capture=*/true,
                        /*record_lane_values=*/true);
    }
    for (std::size_t i = 0; i < hs.size(); ++i) {
      sums[i] += hs[i].op_misprediction_rate();
    }
    fourbit_sum += fourbit.rate();
    st2_ideal_sum += ideal.op_misprediction_rate();

    // C: the CRF realization under the timing simulator.
    sim::GpuConfig cfg = sim::GpuConfig::st2();
    cfg.num_sms = 8;
    st2_crf_sum += bench::run_kernel(info.name, scale, cfg)
                       .counters.adder_misprediction_rate();
    ++n;
  }

  Table a("Ablation A: speculation-policy knobs (avg thread mispred, 23 kernels)");
  a.header({"variant", "mispred", "delta vs final"});
  const double final_rate = sums[3] / n;  // k=4, the final design
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const double r = sums[i] / n;
    a.row({labels[i], Table::pct(r),
           (r >= final_rate ? "+" : "-") +
               Table::pct(std::abs(r - final_rate))});
  }
  bench::emit(a, "ablation_policy");

  Table b("Ablation B: slice width vs speculation difficulty");
  b.header({"slice width", "carries per 64-bit add", "avg thread mispred"});
  b.row({"8-bit (paper's choice)", "7", Table::pct(st2_ideal_sum / n)});
  b.row({"4-bit", "15", Table::pct(fourbit_sum / n)});
  bench::emit(b, "ablation_slice_width");
  std::cout << "4-bit slices reach similar raw datapath energy (tabB) but "
               "mispredict more, and each misprediction\nstill costs a "
               "recovery cycle — the accuracy side of the paper's 8-bit "
               "decision.\n\n";

  Table c("Ablation C: hardware CRF vs idealized speculator");
  c.header({"realization", "avg thread mispred"});
  c.row({"idealized (no contention, device-wide)",
         Table::pct(st2_ideal_sum / n)});
  c.row({"CRF per SM + random write arbitration",
         Table::pct(st2_crf_sum / n)});
  bench::emit(c, "ablation_crf");
  std::cout << "SM partitioning, write-back training lag, and dropped "
               "conflicting write-backs together cost "
            << Table::pct(st2_crf_sum / n - st2_ideal_sum / n)
            << " of accuracy — random arbitration suffices, as the paper "
               "argues.\n\n";

  // --- D: warp-scheduler sensitivity -----------------------------------------
  // The ST2 slowdown claim should not hinge on the scheduling policy: the +1
  // recovery cycle is absorbed by whatever other warps are ready, GTO or LRR.
  {
    Table d("Ablation D: ST2 slowdown under different warp schedulers");
    d.header({"scheduler", "avg slowdown", "avg mispred"});
    for (const auto sched :
         {sim::WarpScheduler::kGto, sim::WarpScheduler::kLrr}) {
      double slow_sum = 0, mp_sum = 0;
      int k = 0;
      for (const char* name :
           {"sad_K1", "kmeans_K1", "pathfinder", "sortNets_K1", "histo_K1"}) {
        auto measure = [&](bool st2_on) {
          sim::GpuConfig cfg =
              st2_on ? sim::GpuConfig::st2() : sim::GpuConfig::baseline();
          cfg.scheduler = sched;
          cfg.num_sms = 8;
          const auto res = bench::run_kernel(name, scale, cfg);
          return std::pair<std::uint64_t, double>(
              res.cycles, res.counters.adder_misprediction_rate());
        };
        const auto [base_cycles, unused] = measure(false);
        const auto [st2_cycles, mp] = measure(true);
        slow_sum += double(st2_cycles) / double(base_cycles) - 1.0;
        mp_sum += mp;
        ++k;
      }
      d.row({sched == sim::WarpScheduler::kGto ? "GTO (greedy-then-oldest)"
                                               : "LRR (loose round-robin)",
             Table::pct(slow_sum / k), Table::pct(mp_sum / k)});
    }
    bench::emit(d, "ablation_scheduler");
  }
  return 0;
}

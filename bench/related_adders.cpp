// Related-work comparison (paper Section VII): every adder family the paper
// positions ST2 against, run over the *actual* adder micro-op streams of the
// 23-kernel suite:
//
//   reference     — monolithic DesignWare-class adder (correct, full power)
//   CSLA          — both carry hypotheses always (correct, ~2x slice power)
//   approximate   — static-zero speculation, no correction (wrong results!)
//   CASA          — operand-window speculation, no correction (wrong results)
//   VLSA          — operand-window speculation + 1-cycle recovery (correct)
//   ST2           — history+peek speculation + 1-cycle recovery (correct)
//
// Output: correctness, error rate, average latency, energy vs reference.
#include <iostream>

#include "bench/bench_util.hpp"
#include "src/adder/adders.hpp"
#include "src/common/table.hpp"
#include "src/sim/spec_harness.hpp"
#include "src/sim/trace_run.hpp"
#include "src/workloads/workload.hpp"

int main() {
  using namespace st2;
  const double scale = std::min(bench::bench_scale(), 0.35);

  adder::ReferenceAdder reference;
  adder::CslaAdder csla;
  adder::ApproximateAdder approx;
  adder::CasaAdder casa(4);
  adder::VlsaAdder vlsa(4);
  adder::St2Adder st2;
  spec::CarrySpeculator speculator(spec::st2_config());

  struct Tally {
    double energy = 0;
    long ops = 0;
    long wrong = 0;       // shipped incorrect results
    long extra_cycles = 0;
  };
  Tally t_ref, t_csla, t_approx, t_casa, t_vlsa, t_st2;

  for (const auto& info : workloads::case_list()) {
    workloads::PreparedCase pc = workloads::prepare_case(info.name, scale);
    auto obs = [&](const sim::ExecRecord& rec) {
      if (!rec.has_adder_op) return;
      for (int lane = 0; lane < 32; ++lane) {
        if (((rec.active_mask >> lane) & 1u) == 0) continue;
        const spec::AddOp op = sim::make_add_op(rec, lane);
        auto run = [&](Tally& t, const adder::AddOutcome& r) {
          t.energy += r.energy;
          ++t.ops;
          t.wrong += !r.correct;
          t.extra_cycles += r.cycles - 1;
        };
        run(t_ref, reference.add(op.a, op.b, op.cin, op.num_slices));
        run(t_csla, csla.add(op.a, op.b, op.cin, op.num_slices));
        run(t_approx, approx.add(op.a, op.b, op.cin, op.num_slices));
        run(t_casa, casa.add(op.a, op.b, op.cin, op.num_slices));
        run(t_vlsa, vlsa.add(op.a, op.b, op.cin, op.num_slices));
        run(t_st2, st2.add(op, speculator));
      }
    };
    for (const auto& lc : pc.launches) {
      sim::trace_run(pc.kernel, lc, *pc.mem, obs,
                     /*record_lane_values=*/true);
    }
  }

  Table t("Related adder designs on the 23-kernel adder micro-op stream");
  t.header({"design", "guaranteed correct", "wrong results", "avg cycles",
            "energy vs reference"});
  auto row = [&](const char* name, const char* correct, const Tally& x) {
    t.row({name, correct, Table::pct(double(x.wrong) / double(x.ops)),
           Table::num(1.0 + double(x.extra_cycles) / double(x.ops), 3),
           Table::pct(x.energy / t_ref.energy)});
  };
  row("reference (DesignWare-class)", "yes", t_ref);
  row("CSLA", "yes", t_csla);
  row("approximate (staticZero)", "NO", t_approx);
  row("CASA (window=4)", "NO", t_casa);
  row("VLSA (window=4)", "yes", t_vlsa);
  row("ST2 (Ltid+Prev+ModPC4+Peek)", "yes", t_st2);
  bench::emit(t, "related_adders");

  std::cout
      << "Paper Section VII: approximate adders (incl. CASA) ship wrong "
         "results; VLSA recovers but speculates\nworse, costing more recovery "
         "cycles — and on a GPU every recovery cycle stalls a 32-thread "
         "warp;\nCSLA is always correct but pays for both carry hypotheses. "
         "ST2 alone combines guaranteed\ncorrectness with the fewest recovery "
         "cycles at essentially the lowest energy.\n";
  return 0;
}

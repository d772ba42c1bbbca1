#include "src/run/run.hpp"

#include <cstdio>
#include <stdexcept>

#include "src/sim/jobs.hpp"

namespace st2::run {

namespace {

[[noreturn]] void reject(const char* option, const std::string& why) {
  throw sim::SimError(sim::SimErrorKind::kBadArguments, option, why);
}

}  // namespace

void RunSpec::validate() {
  if (!(scale > 0) || scale > 4.0) reject("scale", "must be in (0, 4]");
  if (sms < 1) reject("sms", "must be >= 1");
  if (max_warps < 0) reject("max_warps", "must be >= 0 (0 = the default)");
  jobs = sim::validate_thread_count(jobs, "jobs");
  if (inject.enabled() && !st2) {
    reject("inject", "targets the ST2 speculation state; enable st2");
  }
  if (spec_policy.kind != spec::PredictorKind::kCrf && !st2) {
    reject("spec_policy", "selects the ST2 carry predictor; enable st2");
  }
}

Machine RunSpec::machine() const {
  Machine m;
  m.cfg = st2 ? sim::GpuConfig::st2() : sim::GpuConfig::baseline();
  m.cfg.num_sms = sms;
  if (lrr) m.cfg.scheduler = sim::WarpScheduler::kLrr;
  if (max_warps > 0) m.cfg.max_warps_per_sm = max_warps;
  m.cfg.inject = inject;
  m.cfg.predictor = spec_policy;
  m.opts.jobs = jobs;
  m.opts.watchdog_cycles = watchdog_cycles;
  m.opts.watchdog_ms = watchdog_ms;
  return m;
}

int CaseResult::exit_code() const {
  if (!abort_reason.empty()) {
    return abort_reason == "interrupted" ? sim::kExitInterrupted
                                         : sim::kExitWatchdogAborted;
  }
  return valid ? sim::kExitOk : sim::kExitValidationFailed;
}

CaseResult run_case(const Machine& m, workloads::PreparedCase& pc,
                    const LaunchHooks& hooks) {
  sim::ExecutionEngine eng(m.cfg, m.opts);
  CaseResult res;
  for (std::size_t li = 0; li < pc.launches.size(); ++li) {
    // An interrupt raised during a launch that still finished stops the
    // kernel here: replay polls the flag only every few thousand steps, so
    // a short launch would otherwise never see it.
    if (li > 0 && m.opts.cancel != nullptr && m.opts.cancel->load()) {
      res.abort_reason = "interrupted";
      return res;
    }
    const sim::GridCapture cap = [&] {
      PhaseTimer pt(hooks.capture_s);
      return eng.capture(pc.kernel, pc.launches[li], *pc.mem);
    }();
    sim::RunReport r;
    {
      PhaseTimer pt(hooks.replay_s);
      r = eng.replay(pc.kernel, cap);
    }
    if (hooks.on_report) hooks.on_report(li, r);
    res.counters += r.chip;
    res.cycles += r.wall_cycles();
    if (r.aborted()) {
      res.abort_reason = r.abort_reason;
      return res;
    }
  }
  res.valid = pc.validate(*pc.mem);
  return res;
}

sim::SimError current_error() {
  try {
    throw;
  } catch (const sim::SimError& e) {
    return e;
  } catch (const std::invalid_argument& e) {
    return sim::SimError(sim::SimErrorKind::kBadArguments, "", e.what());
  } catch (const std::exception& e) {
    return sim::SimError(sim::SimErrorKind::kInvariantViolation, "",
                         e.what());
  }
}

int report_error(const sim::SimError& e) {
  std::fprintf(stderr, "%s\n", e.structured().c_str());
  return sim::exit_code(e.kind());
}

int guarded(const std::function<int()>& body) {
  try {
    return body();
  } catch (const std::exception&) {
    return report_error(current_error());
  }
}

int run_all(const std::function<int(const std::string& name)>& kernel,
            const std::atomic<bool>* cancel) {
  int rc = sim::kExitOk;
  for (const workloads::CaseInfo& c : workloads::case_list()) {
    const int code = guarded([&] { return kernel(c.name); });
    if (rc == sim::kExitOk) rc = code;
    if (code == sim::kExitInterrupted ||
        (cancel != nullptr && cancel->load())) {
      if (rc == sim::kExitOk) rc = sim::kExitInterrupted;
      break;
    }
  }
  return rc;
}

std::string json_array(const std::vector<std::string>& elements) {
  std::string doc = "[";
  for (std::size_t i = 0; i < elements.size(); ++i) {
    doc += (i ? ",\n" : "\n") + elements[i];
  }
  doc += "\n]\n";
  return doc;
}

}  // namespace st2::run

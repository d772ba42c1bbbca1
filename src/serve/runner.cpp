#include "src/serve/runner.hpp"

#include <vector>

#include "src/sim/error.hpp"
#include "src/workloads/workload.hpp"

namespace st2::serve {

namespace {

/// Runs one kernel of a request and appends its launch reports; returns the
/// kernel's exit code. SimErrors propagate to the caller for classification.
int run_kernel(const run::RunSpec& spec, const std::string& name,
               tracecache::TraceCache* cache,
               std::vector<std::string>* json_reports) {
  workloads::PreparedCase pc = workloads::prepare_case(name, spec.scale);
  run::Machine m = spec.machine();
  m.opts.capture_provider = cache;
  run::LaunchHooks hooks;
  hooks.on_report = [&](std::size_t li, const sim::RunReport& r) {
    json_reports->push_back(r.to_json(name, static_cast<int>(li)));
  };
  return run::run_case(m, pc, hooks).exit_code();
}

}  // namespace

RunResult execute_request(const RunRequest& req,
                          tracecache::TraceCache* cache,
                          std::uint64_t default_watchdog_ms) {
  RunResult res;
  try {
    run::RunSpec spec = req.spec;
    spec.validate();
    // Isolation backstop: a request with no watchdog of its own gets the
    // server's default wall deadline, so one runaway simulation cannot pin
    // a worker forever.
    if (spec.watchdog_ms == 0 && spec.watchdog_cycles == 0) {
      spec.watchdog_ms = default_watchdog_ms;
    }
    std::vector<std::string> json_reports;
    const auto kernel = [&](const std::string& name) {
      return run_kernel(spec, name, cache, &json_reports);
    };
    res.exit_code =
        spec.kernel == "all" ? run::run_all(kernel) : kernel(spec.kernel);
    res.report = run::json_array(json_reports);
  } catch (const std::exception&) {
    const sim::SimError e = run::current_error();
    res.exit_code = sim::exit_code(e.kind());
    res.error_kind = sim::to_string(e.kind());
    res.error_message = e.what();
  }
  return res;
}

}  // namespace st2::serve

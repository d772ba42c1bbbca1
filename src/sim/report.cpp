#include "src/sim/report.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/json.hpp"

namespace st2::sim {

RunReport RunReport::reduce(std::vector<SmReport> per_sm, int num_sms,
                            int jobs, int timeline_bucket) {
  std::sort(per_sm.begin(), per_sm.end(),
            [](const SmReport& a, const SmReport& b) { return a.sm < b.sm; });
  RunReport r;
  r.num_sms = num_sms;
  r.jobs = jobs;
  r.timeline_bucket = timeline_bucket;
  std::uint64_t wall = 0;
  std::uint64_t total = 0;
  for (const SmReport& s : per_sm) {
    r.chip += s.counters;  // sums every field, cycle fields fixed up below
    wall = std::max(wall, s.counters.cycles);
    total += s.counters.cycles;
  }
  r.chip.cycles = wall;
  r.chip.sm_cycles_max = wall;
  r.chip.sm_cycles_sum = total;
  // Aborted SMs mark the whole run aborted; per_sm is already in ascending
  // SM order, so the first aborted SM's reason is deterministic.
  for (const SmReport& s : per_sm) {
    if (s.aborted) {
      r.status = "aborted";
      r.abort_reason = s.abort_reason ? s.abort_reason : "aborted";
      break;
    }
  }
  // SMs with no blocks idle for the whole kernel.
  const int idle_sms = num_sms - static_cast<int>(per_sm.size());
  r.chip.sm_idle_cycles += static_cast<std::uint64_t>(idle_sms) * wall;
  r.misprediction_rate = r.chip.adder_misprediction_rate();
  r.per_sm = std::move(per_sm);
  return r;
}

namespace {

/// Serializes a double as a valid JSON number — JSON has no NaN/Infinity,
/// so non-finite values become null.
void json_double(std::ostringstream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

void counters_json(std::ostringstream& os, const EventCounters& c,
                   const char* indent) {
  os << "{";
  bool first = true;
  for_each_counter(c, [&](const char* name, std::uint64_t v) {
    os << (first ? "\n" : ",\n") << indent << "  \"" << name << "\": " << v;
    first = false;
  });
  os << "\n" << indent << "}";
}

}  // namespace

std::string RunReport::to_json(const std::string& kernel, int launch) const {
  std::ostringstream os;
  os << "{\n";
  if (!kernel.empty()) {
    os << "  \"kernel\": \"" << json_escape(kernel) << "\",\n";
  }
  if (launch >= 0) os << "  \"launch\": " << launch << ",\n";
  os << "  \"status\": \"" << json_escape(status) << "\",\n";
  if (aborted()) {
    os << "  \"abort_reason\": \"" << json_escape(abort_reason) << "\",\n";
  }
  os << "  \"num_sms\": " << num_sms << ",\n";
  os << "  \"jobs\": " << jobs << ",\n";
  os << "  \"wall_cycles\": " << wall_cycles() << ",\n";
  os << "  \"misprediction_rate\": ";
  json_double(os, misprediction_rate);
  os << ",\n  \"simd_efficiency\": ";
  json_double(os, chip.simd_efficiency());
  os << ",\n  \"chip\": ";
  counters_json(os, chip, "  ");
  os << ",\n  \"per_sm\": [";
  for (std::size_t i = 0; i < per_sm.size(); ++i) {
    os << (i ? ",\n" : "\n") << "    {\"sm\": " << per_sm[i].sm
       << ", \"aborted\": " << (per_sm[i].aborted ? "true" : "false")
       << ", \"counters\": ";
    counters_json(os, per_sm[i].counters, "    ");
    os << "}";
  }
  os << "\n  ]\n}";
  return os.str();
}

std::string RunReport::chrome_trace_events(const std::string& kernel,
                                           int launch, int pid) const {
  bool any = false;
  for (const SmReport& s : per_sm) any |= !s.timeline.empty();
  if (!any || timeline_bucket <= 0) return std::string();

  std::ostringstream os;
  // Process label so chrome://tracing shows which run the rows belong to.
  os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
     << ", \"args\": {\"name\": \"" << json_escape(kernel) << " launch "
     << launch << "\"}}";
  for (const SmReport& s : per_sm) {
    for (std::size_t b = 0; b < s.timeline.size(); ++b) {
      // One counter sample per bucket; ts is the bucket's start cycle.
      os << ",\n{\"name\": \"SM " << s.sm << " issued\", \"ph\": \"C\", "
         << "\"pid\": " << pid << ", \"tid\": " << s.sm
         << ", \"ts\": " << b * static_cast<std::uint64_t>(timeline_bucket)
         << ", \"args\": {\"issued\": " << s.timeline[b] << "}}";
    }
    // Close the counter track at the SM's final cycle so the last bucket
    // renders with its real width instead of extending to infinity.
    os << ",\n{\"name\": \"SM " << s.sm << " issued\", \"ph\": \"C\", "
       << "\"pid\": " << pid << ", \"tid\": " << s.sm
       << ", \"ts\": " << s.counters.cycles
       << ", \"args\": {\"issued\": 0}}";
  }
  return os.str();
}

}  // namespace st2::sim

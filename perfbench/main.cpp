// st2bench: the repository benchmark driver. Runs one named workload
// in-process, single-threaded, as a closed loop (the next operation starts
// when the previous one returns), by calling each simulator layer's public
// functions directly. It measures the simulator's host time; the simulated
// results are a correctness gate, checked per operation against the digests
// recorded in digests.tsv.
//
//   st2bench --workload NAME --seed N --seconds S --trace 0|1
//            --digests FILE --out DIR [--record-digests]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
// traced passes, then runs the reference passes (a bare functional pass;
// for run-all-cold also a pass served by the trace cache's disk tier),
// prints the per-layer metrics and writes the traced spans as a Chrome
// trace into DIR. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. See README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/stats.hpp"
#include "perfbench/trace.hpp"
#include "src/common/rng.hpp"
#include "src/sim/config.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/report.hpp"
#include "src/sim/spec_harness.hpp"
#include "src/sim/trace_run.hpp"
#include "src/spec/config.hpp"
#include "src/tracecache/tracecache.hpp"
#include "src/workloads/workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace st2;
using perfbench::Scope;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

constexpr double kTimingScale = 0.5;   ///< run-all-cold
constexpr double kLatticeScale = 0.25; ///< dse-lattice
/// Set-ups per run, spread over the run (see run()); setup_s is their median.
constexpr std::size_t kSetups = 3;
/// Traced dse-lattice passes time the 13 harness feeds of one adder record
/// in this many; clock reads around every feed would slow the pass ~10 %.
constexpr std::uint64_t kLatticeSample = 64;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}


/// The cost of one Tracer::now_ns() read, averaged over many.
std::int64_t clock_read_ns(const Tracer& tr) {
  constexpr std::int64_t kReads = 100000;
  const std::int64_t t0 = tr.now_ns();
  for (std::int64_t i = 0; i < kReads; ++i) (void)tr.now_ns();
  return (tr.now_ns() - t0) / (kReads + 1);
}

/// A failure of the benchmark itself (bad arguments, a vacuous cache pass,
/// a missing digest table): the run stops without printing a result.
struct BenchAbort : std::runtime_error {
  using std::runtime_error::runtime_error;
};

enum class Kind { kRunAllCold, kDseLattice };

struct Args {
  Kind kind = Kind::kRunAllCold;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string digests;
  std::string out;
  bool record = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--record-digests") {
      a.record = true;
      continue;
    }
    if (i + 1 >= argc) throw BenchAbort("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      std::size_t used = 0;
      a.seed = std::stoull(v, &used);
      if (used != v.size()) throw BenchAbort("bad --seed " + v);
      have_seed = true;
    } else if (k == "--seconds") {
      std::size_t used = 0;
      a.seconds = std::stod(v, &used);
      if (used != v.size() || !(a.seconds > 0) || a.seconds > 600) {
        throw BenchAbort("bad --seconds " + v);
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw BenchAbort("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--digests") {
      a.digests = v;
    } else if (k == "--out") {
      a.out = v;
    } else {
      throw BenchAbort("unknown argument " + k);
    }
  }
  const std::map<std::string, Kind> kinds = {
      {"run-all-cold", Kind::kRunAllCold},
      {"dse-lattice", Kind::kDseLattice}};
  const auto it = kinds.find(a.workload);
  if (it == kinds.end()) throw BenchAbort("unknown workload '" + a.workload + "'");
  a.kind = it->second;
  if (!have_seed || a.seconds <= 0 || a.digests.empty() || a.out.empty()) {
    throw BenchAbort("--seed, --seconds, --digests and --out are required");
  }
  return a;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// The expected simulated-result digest of every operation, one
/// "key<TAB>hex" line each. In record mode observed digests are stored
/// instead of checked and written back at exit.
class Digests {
 public:
  Digests(std::string path, bool record) : path_(std::move(path)), record_(record) {
    std::ifstream in(path_);
    if (!in && !record_) throw BenchAbort("cannot read digest table " + path_);
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t tab = line.find('\t');
      if (tab != std::string::npos) table_[line.substr(0, tab)] = line.substr(tab + 1);
    }
  }

  bool check(const std::string& key, std::uint64_t digest) {
    const std::string h = hex(digest);
    const auto it = table_.find(key);
    if (record_) {
      if (it != table_.end() && it->second != h) {
        std::cerr << "perfbench: digest of " << key << " changed from " << it->second
                  << " to " << h << "\n";
      }
      table_[key] = h;
      return true;
    }
    if (it == table_.end()) {
      std::cerr << "perfbench: no recorded digest for " << key << "\n";
      return false;
    }
    if (it->second != h) {
      std::cerr << "perfbench: digest mismatch for " << key << ": " << h
                << " != recorded " << it->second << "\n";
      return false;
    }
    return true;
  }

  void save() const {
    if (!record_) return;
    std::ofstream out(path_);
    for (const auto& [k, v] : table_) out << k << "\t" << v << "\n";
    if (!out) throw BenchAbort("cannot write digest table " + path_);
  }

 private:
  std::string path_;
  bool record_;
  std::map<std::string, std::string> table_;
};

struct PassStats {
  double seconds = 0;
  std::uint64_t winstr = 0;    ///< simulated warp instructions completed
  std::uint64_t adds = 0;      ///< thread-level adds fed to the lattice
  std::uint64_t launches = 0;
  std::vector<double> op_ms;   ///< latency of each operation (kernel), by kernel index
  /// Traced dse-lattice passes: time spent in each harness's feed, by
  /// Figure 5 configuration, estimated from every kLatticeSample-th adder
  /// record.
  std::vector<std::int64_t> lattice_ns;
  int attempted = 0;
  int failed = 0;
  tracecache::CacheStats cache;  ///< trace-cache activity during the pass
};

class Bench {
 public:
  Bench(const Args& a, Digests& digests, Tracer& tr)
      : kind_(a.kind), seed_(a.seed), digests_(digests), tr_(tr) {
    for (const auto& info : workloads::case_list()) kernels_.push_back(info.name);
    for (const auto& c : spec::SpeculationConfig::figure5_sweep()) {
      std::string n = c.name();
      for (char& ch : n) {
        if (ch == '+') ch = '-';
      }
      lattice_.push_back(c);
      lattice_names_.push_back(std::move(n));
    }
    store_ = std::filesystem::path(a.out) / ("store-" + std::to_string(::getpid()));
  }

  ~Bench() {
    std::error_code ec;
    std::filesystem::remove_all(store_, ec);
  }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  double scale() const {
    return kind_ == Kind::kDseLattice ? kLatticeScale : kTimingScale;
  }
  std::size_t ops_per_pass() const { return kernels_.size(); }
  std::uint64_t store_bytes() const { return store_bytes_; }
  /// Figure 5 configuration names with '+' replaced by '-'.
  const std::vector<std::string>& lattice_names() const { return lattice_names_; }

  /// One set-up: the untimed warm-up pass.
  PassStats setup() { return pass(/*index=*/0, /*warmup=*/true); }

  /// Runs every operation once, in an order drawn from the seed and the
  /// pass index; a disk pass also checks its trace-cache activity.
  PassStats pass(std::uint64_t index, bool warmup) {
    // workloads::prepare_case has no seed in its public API: every kernel's
    // inputs are fixed by the repository. So the seed only permutes the
    // order of the kernels in each pass; a held-out seed tests
    // order sensitivity (allocator and cache warmth), not new inputs.
    Xoshiro256 rng(seed_ * 0x9e3779b97f4a7c15ULL + index);
    std::vector<std::size_t> order(kernels_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_u64() % i]);
    }
    PassStats ps;
    ps.op_ms.resize(kernels_.size());
    if (disk_) {
      // A fresh memo-less cache over the store: every launch is a disk load
      // (or, while the store is empty, a capture written to it).
      tracecache::CacheOptions o;
      o.dir = store_.string();
      o.memo = false;
      pass_cache_ = std::make_unique<tracecache::TraceCache>(o);
    }
    const auto t0 = Clock::now();
    {
      Scope root(tr_, disk_ ? "bench.disk" : "bench.pass", -1);
      for (const std::size_t k : order) run_op(k, ps);
    }
    ps.seconds = seconds_since(t0);
    if (disk_) {
      ps.cache = pass_cache_->stats();
      pass_cache_.reset();
      check_cache(ps, warmup);
    }
    return ps;
  }

  /// Traced run only: a bare functional pass over the workload's launches
  /// (each kernel once), the reference for sim.functional_s.
  void reference_pass() {
    Scope root(tr_, "bench.reference", -1);
    for (const std::string& name : kernels_) {
      workloads::PreparedCase pc = workloads::prepare_case(name, scale());
      for (const auto& lc : pc.launches) {
        Scope s(tr_, "sim.functional", -1);
        sim::trace_run(pc.kernel, lc, *pc.mem);
      }
    }
  }

  /// Traced run-all-cold only: the trace cache's disk tier in front of
  /// capture. An untraced pass writes a fresh disk store; then a traced
  /// pass through a fresh memo-less cache over that store must load every
  /// launch from disk.
  /// Returns {store-writing pass, disk pass}; both check the replay digests.
  std::pair<PassStats, PassStats> disk_passes(std::uint64_t index) {
    disk_ = true;
    std::filesystem::remove_all(store_);
    std::filesystem::create_directories(store_);
    PassStats write = pass(index, /*warmup=*/true);
    store_bytes_ = 0;
    for (const auto& e : std::filesystem::directory_iterator(store_)) {
      if (e.is_regular_file()) store_bytes_ += e.file_size();
    }
    tr_.set_on(true);
    PassStats load = pass(index + 1, /*warmup=*/false);
    tr_.set_on(false);
    disk_ = false;
    return {std::move(write), std::move(load)};
  }

 private:
  /// Anti-vacuity: the disk pass must be served entirely by the disk tier,
  /// or the run stops instead of timing recapture.
  void check_cache(const PassStats& ps, bool writing) const {
    const tracecache::CacheStats& c = ps.cache;
    const auto fail = [&](const std::string& what) {
      std::ostringstream os;
      os << (writing ? "store-writing" : "disk") << " pass: " << what << " (launches="
         << ps.launches << " memo_hits=" << c.memo_hits << " disk_hits=" << c.disk_hits
         << " misses=" << c.misses << " disk_rejects=" << c.disk_rejects
         << " disk_stores=" << c.disk_stores << ")";
      throw BenchAbort(os.str());
    };
    if (writing) {
      if (c.misses != ps.launches || c.disk_stores != ps.launches) {
        fail("disk store not written");
      }
    } else if (c.disk_hits != ps.launches || c.disk_rejects != 0 || c.misses != 0 ||
               c.memo_hits != 0) {
      fail("launches not served by the disk tier");
    }
  }

  void run_op(std::size_t kernel, PassStats& ps) {
    const int id = next_op_++;
    const std::string& name = kernels_[kernel];
    const std::string_view span = tr_.on() ? tr_.intern("bench.op/" + name) : "bench.op";
    const auto t0 = Clock::now();
    std::uint64_t digest = perfbench::kFnvOffset;
    bool ok = false;
    {
      Scope s(tr_, span, id);
      try {
        ok = kind_ == Kind::kDseLattice ? lattice_op(name, id, ps, digest)
                                        : timing_op(name, id, ps, digest);
      } catch (const std::exception& e) {
        std::cerr << "perfbench: " << name << ": " << e.what() << "\n";
      }
    }
    ps.op_ms[kernel] = seconds_since(t0) * 1e3;
    const std::string key = (kind_ == Kind::kDseLattice ? "lattice/" : "replay/") + name;
    ok = digests_.check(key, digest) && ok;
    ++ps.attempted;
    if (!ok) ++ps.failed;
  }

  /// The steps of serve::run_kernel on the ST2 chip: prepare, capture (or
  /// disk-tier provide), replay each launch, serialize its report, validate
  /// against the host.
  bool timing_op(const std::string& name, int id, PassStats& ps, std::uint64_t& digest) {
    workloads::PreparedCase pc;
    {
      Scope s(tr_, "workloads.prepare", id);
      pc = workloads::prepare_case(name, kTimingScale);
    }
    sim::EngineOptions eo;
    eo.jobs = 1;
    sim::ExecutionEngine eng(cfg_, eo);
    bool ok = true;
    for (std::size_t li = 0; li < pc.launches.size(); ++li) {
      const sim::LaunchConfig& lc = pc.launches[li];
      sim::GridCapture cap;
      if (!disk_) {
        Scope s(tr_, "sim.capture", id);
        cap = sim::capture_grid(cfg_, pc.kernel, lc, *pc.mem);
      } else {
        Scope s(tr_, "tracecache.disk_load", id);
        cap = pass_cache_->provide(cfg_, pc.kernel, lc, *pc.mem);
      }
      ++ps.launches;
      sim::RunReport r;
      {
        Scope s(tr_, "sim.replay", id);
        r = eng.replay(pc.kernel, cap);
      }
      std::string json;
      {
        Scope s(tr_, "report.to_json", id);
        json = r.to_json(name, static_cast<int>(li));
      }
      digest = perfbench::fnv1a(digest, json);
      ps.winstr += r.chip.warp_instructions;
      if (r.aborted()) ok = false;
    }
    Scope s(tr_, "workloads.validate", id);
    return pc.validate(*pc.mem) && ok;
  }

  /// One kernel of the Figure 5 sweep, fed as bench/fig5_dse feeds it: a
  /// trace_run pass whose observer hands each record to all 13 lattice
  /// harnesses in turn, traced or not. Traced, the observer also reads the
  /// clock between the harnesses' feeds of every kLatticeSample-th adder
  /// record (a span per record would cost more than a feed) and adds each
  /// harness's time, less one clock read and scaled by kLatticeSample, to
  /// ps.lattice_ns; per_layer() moves it out of the enclosing sim.trace_run
  /// spans.
  bool lattice_op(const std::string& name, int id, PassStats& ps, std::uint64_t& digest) {
    workloads::PreparedCase pc;
    {
      Scope s(tr_, "workloads.prepare", id);
      pc = workloads::prepare_case(name, kLatticeScale);
    }
    std::vector<sim::SpeculationHarness> hs;
    hs.reserve(lattice_.size());
    for (const auto& c : lattice_) hs.emplace_back(c);
    const bool timed = tr_.on();
    if (timed) {
      ps.lattice_ns.resize(hs.size());
      if (clock_ns_ < 0) clock_ns_ = clock_read_ns(tr_);
    }
    std::uint64_t adder_records = 0;
    const sim::TraceObserver obs = [&](const sim::ExecRecord& rec) {
      if (!timed || !rec.has_adder_op || ++adder_records % kLatticeSample != 0) {
        for (auto& h : hs) h.feed(rec);
        return;
      }
      std::int64_t t = tr_.now_ns();
      for (std::size_t j = 0; j < hs.size(); ++j) {
        hs[j].feed(rec);
        const std::int64_t u = tr_.now_ns();
        ps.lattice_ns[j] += std::max<std::int64_t>(u - t - clock_ns_, 0) *
                            static_cast<std::int64_t>(kLatticeSample);
        t = u;
      }
    };
    for (const auto& lc : pc.launches) {
      Scope s(tr_, "sim.trace_run", id);
      ps.winstr += sim::trace_run(pc.kernel, lc, *pc.mem, obs).counters.warp_instructions;
      ++ps.launches;
    }
    for (std::size_t j = 0; j < hs.size(); ++j) {
      // The "spec.lattice/" prefix is part of the digests in digests.tsv.
      digest = perfbench::fnv1a(digest, "spec.lattice/" + lattice_names_[j]);
      digest = perfbench::fnv1a(digest, std::to_string(hs[j].ops()) + " " +
                                            std::to_string(hs[j].mispredicted_ops()));
      ps.adds += hs[j].ops();
    }
    Scope s(tr_, "workloads.validate", id);
    return pc.validate(*pc.mem);
  }

  Kind kind_;
  std::uint64_t seed_;
  Digests& digests_;
  Tracer& tr_;
  const sim::GpuConfig cfg_ = sim::GpuConfig::st2();
  std::vector<std::string> kernels_;
  std::vector<spec::SpeculationConfig> lattice_;
  std::vector<std::string> lattice_names_;
  std::filesystem::path store_;
  std::uint64_t store_bytes_ = 0;
  bool disk_ = false;  ///< launches come from pass_cache_, not capture_grid
  std::int64_t clock_ns_ = -1;  ///< clock_read_ns(), measured when first needed
  std::unique_ptr<tracecache::TraceCache> pass_cache_;  ///< disk passes only
  int next_op_ = 0;
};

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the metric table and the final result line.
void emit(const std::vector<Metric>& ms, bool correct, int attempted, int failed) {
  for (const Metric& m : ms) {
    std::cout << "  " << std::left << std::setw(40) << m.name << std::right
              << std::setw(16) << num(m.value) << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
              << num(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

/// The time of a pass at the best speed each operation reached, in seconds.
double best_pass_s(const std::vector<PassStats>& passes) {
  std::vector<std::vector<double>> op_ms;
  for (const PassStats& p : passes) op_ms.push_back(p.op_ms);
  return perfbench::sum_of_bests(op_ms) / 1e3;
}

/// End-to-end metrics: the median set-up, and the throughput of a pass at
/// each operation's best latency over the timed passes. The host's speed
/// switches between two levels with other tenants' load, and a median over
/// passes flips between them (README.md, "Steadiness").
std::vector<Metric> end_to_end(const std::vector<double>& setups,
                               const std::vector<PassStats>& passes) {
  std::vector<double> tput;
  for (const PassStats& p : passes) tput.push_back(static_cast<double>(p.winstr) / p.seconds);
  const perfbench::Quartiles q = perfbench::quartiles(tput);
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  std::cout << "timed passes: " << passes.size() << "; per-pass throughput q1 " << num(q.q1)
            << ", median " << num(q.q2) << ", q3 " << num(q.q3) << " winstr/s\n"
            << "set-ups (s):";
  for (const double s : setups) std::cout << " " << num(s);
  std::cout << "\n";
  return {{"setup_s", perfbench::median(setups), "s"},
          {"sim_winstr_per_s", static_cast<double>(passes[0].winstr) / best_pass_s(passes),
           "1/s"},
          {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"}};
}

/// Per-layer metrics from the traced passes: the mean over traced passes
/// of each layer's self time (means add up, so the layers plus
/// bench.unattributed_s account for bench.traced_pass_s exactly). The
/// reference passes give sim.functional_s and, when `disk` is set (the
/// disk pass of run-all-cold), the tracecache.disk_* metrics.
std::vector<Metric> per_layer(const Tracer& tr, const std::vector<PassStats>& traced,
                              const std::vector<PassStats>& untraced,
                              const std::vector<std::string>& lattice_names,
                              const PassStats* disk, std::uint64_t store_bytes) {
  const std::vector<perfbench::Span>& spans = tr.spans();
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  std::map<std::string, double> sum;  // seconds over all traced passes
  double ref_functional = 0, disk_load = 0, pass_total = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string_view root = spans[perfbench::root_of(spans, i)].name;
    const double s = static_cast<double>(self[i]) / 1e9;
    const std::string_view n = spans[i].name;
    if (root == "bench.reference") {
      if (n == "sim.functional") ref_functional += s;
      continue;
    }
    if (root == "bench.disk") {
      if (n == "tracecache.disk_load") disk_load += s;
      continue;
    }
    if (n == "bench.pass") {
      pass_total += static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e9;
    }
    if (n.substr(0, 6) == "bench.") {
      sum["bench.unattributed_s"] += s;
      continue;
    }
    sum[std::string(n) + "_s"] += s;
  }
  // The harness feeds timed inside the sim.trace_run spans are the
  // lattice's self time, not trace_run's.
  for (const PassStats& p : traced) {
    for (std::size_t j = 0; j < p.lattice_ns.size(); ++j) {
      const double s = static_cast<double>(p.lattice_ns[j]) / 1e9;
      sum["spec.lattice_s." + lattice_names[j]] += s;
      sum["spec.lattice_s"] += s;
      sum["sim.trace_run_s"] -= s;
    }
  }
  const double np = static_cast<double>(traced.size());
  const auto mean = [&](const std::string& k) {
    const auto it = sum.find(k);
    return it == sum.end() ? 0.0 : it->second / np;
  };
  double winstr = 0, adds = 0;
  for (const PassStats& p : traced) {
    winstr += static_cast<double>(p.winstr) / np;
    adds += static_cast<double>(p.adds) / np;
  }
  std::vector<double> ut, tt;
  for (const PassStats& p : untraced) ut.push_back(p.seconds);
  for (const PassStats& p : traced) tt.push_back(p.seconds);
  const tracecache::CacheStats c = disk != nullptr ? disk->cache : tracecache::CacheStats{};
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  std::vector<Metric> ms = {
      {"bench.traced_pass_s", pass_total / np, "s"},
      {"bench.unattributed_s", mean("bench.unattributed_s"), "s"},
      {"bench.trace_overhead",
       perfbench::median(tt) / perfbench::median(ut) - 1.0, "ratio"},
      {"sim.winstr", winstr, "count"},
      {"workloads.prepare_s", mean("workloads.prepare_s"), "s"},
      {"workloads.validate_s", mean("workloads.validate_s"), "s"},
      {"sim.capture_s", mean("sim.capture_s"), "s"},
      {"sim.capture_ns_per_winstr", ratio(mean("sim.capture_s") * 1e9, winstr), "ns"},
      {"sim.functional_s", ref_functional, "s"},
      {"sim.trace_run_s", mean("sim.trace_run_s"), "s"},
      {"sim.replay_s", mean("sim.replay_s"), "s"},
      {"sim.replay_ns_per_winstr", ratio(mean("sim.replay_s") * 1e9, winstr), "ns"}};
  ms.push_back({"report.to_json_s", mean("report.to_json_s"), "s"});
  ms.push_back({"spec.lattice_s", mean("spec.lattice_s"), "s"});
  for (const std::string& n : lattice_names) {
    ms.push_back({"spec.lattice_s." + n, mean("spec.lattice_s." + n), "s"});
  }
  ms.push_back({"spec.adds", adds, "count"});
  ms.push_back({"spec.ns_per_add", ratio(mean("spec.lattice_s") * 1e9, adds), "ns"});
  ms.push_back({"tracecache.misses", count(c.misses), "count"});
  ms.push_back({"tracecache.disk_load_s", disk_load, "s"});
  ms.push_back({"tracecache.disk_hits", count(c.disk_hits), "count"});
  ms.push_back({"tracecache.disk_rejects", count(c.disk_rejects), "count"});
  ms.push_back({"tracecache.disk_bytes", disk != nullptr ? count(store_bytes) : 0.0, "bytes"});
  // Above 1 the disk tier beats recapturing the same launches.
  ms.push_back({"tracecache.disk_vs_capture", ratio(mean("sim.capture_s"), disk_load),
                "ratio"});

  // Share of the traced pass for every layer self time.
  const double pass = pass_total / np;
  double accounted = mean("bench.unattributed_s");
  std::cout << "per-layer self time, mean of " << traced.size()
            << " traced passes (share of the " << num(pass) << " s pass):\n";
  for (const auto& [k, v] : sum) {
    if (k.find("_s.") != std::string::npos || k == "bench.unattributed_s") continue;
    accounted += v / np;
    std::cout << "  " << std::left << std::setw(28) << k << std::right << std::fixed
              << std::setprecision(4) << std::setw(10) << v / np << " s "
              << std::setprecision(1) << std::setw(6) << 100.0 * v / np / pass << "%\n"
              << std::defaultfloat;
  }
  std::cout << "  layers + bench.unattributed_s = " << num(accounted) << " s of "
            << num(pass) << " s\n";
  if (disk != nullptr) {
    std::cout << "disk pass: " << disk->launches << " launches, " << c.disk_hits
              << " disk hits loading " << store_bytes << " bytes in " << num(disk_load)
              << " s; capture of the same launches " << num(mean("sim.capture_s"))
              << " s\n";
  }
  return ms;
}

int run(const Args& a) {
  Digests digests(a.digests, a.record);
  Tracer tr(false);
  Bench b(a, digests, tr);
  std::filesystem::create_directories(a.out);
  std::cout << "perfbench: workload=" << a.workload << " seed=" << a.seed
            << " seconds=" << a.seconds << " trace=" << (a.trace ? 1 : 0)
            << " build=" << PERFBENCH_BUILD_TYPE << " scale=" << b.scale()
            << " ops/pass=" << b.ops_per_pass() << "\n";

  int attempted = 0, failed = 0;
  const auto tally = [&](const PassStats& p) {
    attempted += p.attempted;
    failed += p.failed;
  };
  // The set-ups are spread over the run: the first comes before the first
  // timed pass, each later one once another 1/kSetups of --seconds has gone
  // to timed passes. Back to back they would last a few seconds and meet
  // one host speed level; spread out, they meet the levels the timed
  // passes meet.
  std::vector<double> setups;
  double timed = 0;  // seconds of timed passes so far
  const auto setup = [&] {
    const auto t0 = Clock::now();
    const PassStats ps = b.setup();
    setups.push_back(seconds_since(t0));
    tally(ps);
  };
  const auto setup_if_due = [&] {
    if (setups.size() < kSetups &&
        timed >= a.seconds * static_cast<double>(setups.size()) / kSetups) {
      setup();
    }
  };
  std::vector<PassStats> untraced, traced;
  std::optional<PassStats> disk;
  std::uint64_t index = 1;
  const auto timed_pass = [&](std::vector<PassStats>& into) {
    into.push_back(b.pass(index++, false));
    tally(into.back());
    timed += into.back().seconds;
  };
  if (!a.trace) {
    while (untraced.empty() || timed < a.seconds) {
      setup_if_due();
      timed_pass(untraced);
    }
  } else {
    // Untraced and traced passes alternate, so the trace overhead compares
    // passes run under the same machine conditions.
    while (traced.empty() || timed < a.seconds) {
      setup_if_due();
      timed_pass(untraced);
      tr.set_on(true);
      timed_pass(traced);
      tr.set_on(false);
    }
    tr.set_on(true);
    b.reference_pass();
    tr.set_on(false);
    if (a.kind == Kind::kRunAllCold) {
      auto [write, load] = b.disk_passes(index);
      tally(write);
      tally(load);
      disk = std::move(load);
    }
  }
  while (setups.size() < kSetups) setup();
  digests.save();

  const bool correct = failed == 0;
  std::cout << "error_rate: " << num(static_cast<double>(failed) / attempted) << " ("
            << failed << " failed of " << attempted << " operations)\n";
  if (!a.trace) {
    emit(end_to_end(setups, untraced), correct, attempted, failed);
    return 0;
  }
  const std::string path = (std::filesystem::path(a.out) /
                            ("trace-" + a.workload + "-seed" + std::to_string(a.seed) + ".json"))
                               .string();
  if (!tr.write_chrome(path)) throw BenchAbort("cannot write " + path);
  std::cout << "chrome trace: " << path << " (" << tr.spans().size() << " spans)\n";
  emit(per_layer(tr, traced, untraced, b.lattice_names(), disk ? &*disk : nullptr,
                 b.store_bytes()),
       correct, attempted, failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 3;
  }
}

#include "src/orch/supervisor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "src/common/json.hpp"
#include "src/orch/fragment.hpp"
#include "src/orch/journal.hpp"
#include "src/orch/spec.hpp"
#include "src/sim/error.hpp"
#include "src/snapshot/crc32.hpp"
#include "src/snapshot/snapshot.hpp"

namespace st2::orch {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int kPollMs = 25;

[[noreturn]] void bad(const std::string& context, const std::string& what) {
  throw sim::SimError(sim::SimErrorKind::kBadArguments, context, what);
}

[[noreturn]] void io_fail(const std::string& context, const std::string& what,
                          int saved_errno) {
  std::string msg = what;
  if (saved_errno != 0) {
    msg += " (";
    msg += std::strerror(saved_errno);
    msg += ")";
  }
  throw sim::SimError(sim::SimErrorKind::kIo, context, msg);
}

std::string read_file(const std::string& path, bool* ok = nullptr) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    if (ok != nullptr) *ok = false;
    return {};
  }
  std::string s(std::istreambuf_iterator<char>(is),
                std::istreambuf_iterator<char>{});
  if (ok != nullptr) *ok = !is.bad();
  return s;
}

std::string scale_dir_token(const std::string& scale) {
  std::string t = "s" + scale;
  for (char& c : t) {
    if (c == '.') c = '_';
  }
  return t;
}

enum class ShardState { kPending, kRunning, kDone, kQuarantined };

struct ShardRun {
  Shard shard;
  ShardState state = ShardState::kPending;
  int attempts = 0;               ///< failed attempts so far
  Clock::time_point retry_at{};   ///< earliest next spawn (backoff)
  pid_t pid = -1;
  Clock::time_point spawned{};
  Clock::time_point last_beat{};
  std::string hb_content;         ///< last observed heartbeat bytes
  std::string kill_cause;         ///< set when the supervisor SIGKILLs it
  std::string last_cause;         ///< most recent failure cause
  std::uint64_t elapsed_ms = 0;   ///< wall time of the successful attempt
};

/// All the resolved paths of one sweep's state directory.
struct Layout {
  fs::path out, journal, lock, spec_copy, frags, logs, hb, merged,
      quarantine, report;
  explicit Layout(const fs::path& o)
      : out(o),
        journal(o / "journal.st2j"),
        lock(o / "lock"),
        spec_copy(o / "spec.json"),
        frags(o / "frags"),
        logs(o / "logs"),
        hb(o / "hb"),
        merged(o / "merged"),
        quarantine(o / "quarantine.json"),
        report(o / "sweep_report.json") {}

  fs::path frag_dir(const ShardRun& r) const { return frags / r.shard.id; }
  fs::path hb_file(const ShardRun& r) const { return hb / r.shard.id; }
  fs::path log_file(const ShardRun& r, int attempt) const {
    return logs / (r.shard.id + ".attempt" + std::to_string(attempt) +
                   ".log");
  }
};

/// Parses + cross-checks one shard's fragment for `stem`; returns the
/// fragment or throws kSnapshotInvalid with the path as context.
Fragment load_fragment(const Layout& lay, const ShardRun& r,
                       const char* stem) {
  const std::string path = (lay.frag_dir(r) / (std::string(stem) + ".frag"))
                               .string();
  bool ok = true;
  const std::string text = read_file(path, &ok);
  if (!ok) {
    throw sim::SimError(sim::SimErrorKind::kSnapshotInvalid, path,
                        "fragment missing or unreadable");
  }
  Fragment f = parse_fragment(text, path);
  if (f.stem != stem || f.shard_index != r.shard.index ||
      f.shard_count != r.shard.count || f.scale != r.shard.scale) {
    throw sim::SimError(sim::SimErrorKind::kSnapshotInvalid, path,
                        "fragment identity does not match shard " +
                            r.shard.id);
  }
  return f;
}

/// "" when every stem fragment is present and valid, else the cause.
std::string check_fragments(const Layout& lay, const ShardRun& r) {
  try {
    for (const char* stem : r.shard.stems) load_fragment(lay, r, stem);
  } catch (const sim::SimError& e) {
    return e.what();
  }
  return "";
}

class Supervisor {
 public:
  Supervisor(const SweepOptions& opts, SweepSpec spec, const Layout& lay)
      : opts_(opts), spec_(std::move(spec)), lay_(lay) {}

  /// Rebuilds shard state from the recovered journal records.
  void replay(const std::vector<Record>& records) {
    for (const Record& rec : records) {
      ShardRun* r = find(rec.shard);
      if (r == nullptr) continue;  // kBegin (fingerprint checked upstream)
      switch (rec.type) {
        case RecordType::kDone: r->state = ShardState::kDone; break;
        case RecordType::kFail:
          ++r->attempts;
          r->last_cause = rec.detail;
          break;
        case RecordType::kQuarantine:
          r->state = ShardState::kQuarantined;
          break;
        default: break;  // claims without completion simply re-run
      }
    }
    for (ShardRun& r : runs_) {
      if (r.state == ShardState::kDone) {
        const std::string cause = check_fragments(lay_, r);
        if (!cause.empty()) {
          std::cout << "sweep[" << r.shard.id
                    << "]: journaled done but fragments invalid — re-running ("
                    << cause << ")\n";
          r.state = ShardState::kPending;
        }
      } else if (r.state == ShardState::kQuarantined) {
        std::cout << "sweep[" << r.shard.id
                  << "]: previously quarantined — retrying from scratch\n";
        r.state = ShardState::kPending;
        r.attempts = 0;
      }
    }
  }

  void add_shards(const std::vector<Shard>& shards) {
    for (const Shard& s : shards) {
      ShardRun r;
      r.shard = s;
      runs_.push_back(std::move(r));
    }
  }

  int run(Journal& journal) {
    journal_ = &journal;
    std::size_t done = 0, quarantined = 0;
    for (const ShardRun& r : runs_) {
      done += r.state == ShardState::kDone;
      quarantined += r.state == ShardState::kQuarantined;
    }
    std::cout << "sweep: '" << spec_.name << "' — " << runs_.size()
              << " shards (" << done << " already done), " << opts_.workers
              << " worker" << (opts_.workers == 1 ? "" : "s") << ", out="
              << lay_.out.string() << "\n";

    while (!finished()) {
      if (opts_.cancel != nullptr &&
          opts_.cancel->load(std::memory_order_relaxed)) {
        interrupt();
        return sim::kExitInterrupted;
      }
      reap();
      supervise_running();
      spawn_ready();
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
    }

    merge();
    write_reports();
    quarantined = 0;
    for (const ShardRun& r : runs_) {
      quarantined += r.state == ShardState::kQuarantined;
    }
    std::cout << "sweep: complete — " << runs_.size() - quarantined << "/"
              << runs_.size() << " shards done, " << quarantined
              << " quarantined\n";
    if (quarantined > 0) {
      sim::SimError e(sim::SimErrorKind::kShardFailed, spec_.name,
                      std::to_string(quarantined) +
                          " shard(s) quarantined after " +
                          std::to_string(opts_.max_retries + 1) +
                          " attempts each; see " +
                          lay_.quarantine.string());
      std::cerr << e.structured() << "\n";
      return sim::kExitShardFailed;
    }
    return sim::kExitOk;
  }

 private:
  ShardRun* find(const std::string& id) {
    for (ShardRun& r : runs_) {
      if (r.shard.id == id) return &r;
    }
    return nullptr;
  }

  bool finished() const {
    for (const ShardRun& r : runs_) {
      if (r.state == ShardState::kPending ||
          r.state == ShardState::kRunning) {
        return false;
      }
    }
    return true;
  }

  void spawn_ready() {
    int running = 0;
    for (const ShardRun& r : runs_) {
      running += r.state == ShardState::kRunning;
    }
    const Clock::time_point now = Clock::now();
    for (ShardRun& r : runs_) {
      if (running >= opts_.workers) break;
      if (r.state != ShardState::kPending || r.retry_at > now) continue;
      if (spawn(r)) ++running;
    }
  }

  bool spawn(ShardRun& r) {
    const int attempt = r.attempts + 1;
    std::error_code ec;
    fs::create_directories(lay_.frag_dir(r), ec);
    // A fresh heartbeat file per attempt: content-change detection must not
    // confuse the previous attempt's counter with progress.
    fs::remove(lay_.hb_file(r), ec);

    const std::string bin =
        (fs::path(opts_.bench_dir) / r.shard.bench).string();
    const std::string log = lay_.log_file(r, attempt).string();
    const std::string shard_env = std::to_string(r.shard.index) + "/" +
                                  std::to_string(r.shard.count);
    const std::string frag_dir = lay_.frag_dir(r).string();
    const std::string hb_file = lay_.hb_file(r).string();

    const pid_t pid = ::fork();
    if (pid < 0) {
      // Transient resource exhaustion: try again after one backoff step
      // without burning an attempt.
      r.retry_at = Clock::now() +
                   std::chrono::milliseconds(opts_.retry_backoff_ms);
      return false;
    }
    if (pid == 0) {
      ::setpgid(0, 0);  // own process group: SIGKILL reaps grandchildren too
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        if (fd > 2) ::close(fd);
      }
      ::setenv("BENCH_SCALE", r.shard.scale.c_str(), 1);
      ::setenv("BENCH_SHARD", shard_env.c_str(), 1);
      ::setenv("BENCH_SHARD_OUT", frag_dir.c_str(), 1);
      ::setenv("BENCH_HEARTBEAT", hb_file.c_str(), 1);
      ::setenv("BENCH_TRACE_CACHE", trace_cache_env_.c_str(), 1);
      ::execl(bin.c_str(), bin.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::setpgid(pid, pid);  // both sides set it: no race window

    r.state = ShardState::kRunning;
    r.pid = pid;
    r.spawned = r.last_beat = Clock::now();
    r.hb_content.clear();
    r.kill_cause.clear();
    Record rec;
    rec.type = RecordType::kClaim;
    rec.shard = r.shard.id;
    rec.attempt = static_cast<std::uint32_t>(attempt);
    rec.code = static_cast<std::int32_t>(pid);
    journal_->append(rec);
    std::cout << "sweep[" << r.shard.id << "]: start attempt " << attempt
              << " (pid " << pid << ")\n";
    return true;
  }

  void reap() {
    int status = 0;
    pid_t pid;
    while ((pid = ::waitpid(-1, &status, WNOHANG)) > 0) {
      ShardRun* r = nullptr;
      for (ShardRun& cand : runs_) {
        if (cand.state == ShardState::kRunning && cand.pid == pid) {
          r = &cand;
          break;
        }
      }
      if (r == nullptr) continue;
      r->pid = -1;
      const std::uint64_t ms =
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  Clock::now() - r->spawned)
                  .count());

      if (!r->kill_cause.empty()) {
        fail(*r, -1, r->kill_cause);
      } else if (WIFSIGNALED(status)) {
        fail(*r, 128 + WTERMSIG(status),
             std::string("killed by signal ") +
                 std::to_string(WTERMSIG(status)));
      } else if (WEXITSTATUS(status) == 127) {
        fail(*r, 127, "worker exec failed (is --bench-dir right?)");
      } else if (WEXITSTATUS(status) != 0) {
        fail(*r, WEXITSTATUS(status),
             "exit " + std::to_string(WEXITSTATUS(status)));
      } else {
        const std::string cause = check_fragments(lay_, *r);
        if (!cause.empty()) {
          fail(*r, 0, "exit 0 but fragments invalid: " + cause);
        } else {
          r->state = ShardState::kDone;
          r->elapsed_ms = ms;
          Record rec;
          rec.type = RecordType::kDone;
          rec.shard = r->shard.id;
          rec.attempt = static_cast<std::uint32_t>(r->attempts + 1);
          journal_->append(rec);
          std::cout << "sweep[" << r->shard.id << "]: done (" << ms
                    << " ms)\n";
        }
      }
    }
  }

  void fail(ShardRun& r, int code, const std::string& cause) {
    ++r.attempts;
    r.last_cause = cause;
    Record rec;
    rec.shard = r.shard.id;
    rec.attempt = static_cast<std::uint32_t>(r.attempts);
    rec.code = code;
    rec.detail = cause;
    if (r.attempts > opts_.max_retries) {
      rec.type = RecordType::kQuarantine;
      journal_->append(rec);
      r.state = ShardState::kQuarantined;
      std::cout << "sweep[" << r.shard.id << "]: quarantined after "
                << r.attempts << " attempts — " << cause << "\n";
      return;
    }
    rec.type = RecordType::kFail;
    journal_->append(rec);
    const std::uint64_t shift_cap = 20;
    const std::uint64_t backoff = std::min<std::uint64_t>(
        opts_.backoff_cap_ms,
        static_cast<std::uint64_t>(opts_.retry_backoff_ms)
            << std::min<std::uint64_t>(
                   static_cast<std::uint64_t>(r.attempts - 1), shift_cap));
    r.state = ShardState::kPending;
    r.retry_at = Clock::now() + std::chrono::milliseconds(backoff);
    std::cout << "sweep[" << r.shard.id << "]: attempt " << r.attempts
              << " failed — " << cause << "; retry in " << backoff
              << " ms\n";
  }

  void supervise_running() {
    const Clock::time_point now = Clock::now();
    for (ShardRun& r : runs_) {
      if (r.state != ShardState::kRunning || !r.kill_cause.empty()) continue;
      const std::string beat = read_file(lay_.hb_file(r).string());
      if (beat != r.hb_content) {
        r.hb_content = beat;
        r.last_beat = now;
      }
      const auto since_beat =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              now - r.last_beat)
              .count();
      const auto since_spawn =
          std::chrono::duration_cast<std::chrono::milliseconds>(now -
                                                                r.spawned)
              .count();
      const std::uint64_t deadline = r.shard.timeout_ms != 0
                                         ? r.shard.timeout_ms
                                         : opts_.shard_timeout_ms;
      if (opts_.heartbeat_timeout_ms != 0 &&
          static_cast<std::uint64_t>(since_beat) >
              opts_.heartbeat_timeout_ms) {
        r.kill_cause = "hung: no heartbeat for " +
                       std::to_string(since_beat) + " ms";
      } else if (deadline != 0 &&
                 static_cast<std::uint64_t>(since_spawn) > deadline) {
        r.kill_cause = "shard deadline exceeded (" +
                       std::to_string(since_spawn) + " ms > " +
                       std::to_string(deadline) + " ms)";
      }
      if (!r.kill_cause.empty()) {
        ::kill(-r.pid, SIGKILL);  // whole worker process group
      }
    }
  }

  void interrupt() {
    std::cout << "sweep: interrupted — killing workers; state is journaled, "
                 "continue with --resume\n";
    for (ShardRun& r : runs_) {
      if (r.state != ShardState::kRunning) continue;
      ::kill(-r.pid, SIGKILL);
      int status = 0;
      ::waitpid(r.pid, &status, 0);
      r.state = ShardState::kPending;
      r.pid = -1;
    }
  }

  /// Re-assembles fragments into the serial-identical CSV (plus a JSON
  /// rendering) for every (bench, scale) whose shards all completed.
  void merge() {
    for (const std::string& scale : spec_.scales) {
      for (const SpecBench& b : spec_.benches) {
        std::vector<const ShardRun*> members;
        bool all_done = true;
        for (const ShardRun& r : runs_) {
          if (r.shard.bench != b.bench || r.shard.scale != scale) continue;
          members.push_back(&r);
          all_done &= r.state == ShardState::kDone;
        }
        if (members.empty() || !all_done) continue;
        std::sort(members.begin(), members.end(),
                  [](const ShardRun* a, const ShardRun* z) {
                    return a->shard.index < z->shard.index;
                  });
        for (const char* stem : members.front()->shard.stems) {
          merge_stem(scale, b, members, stem);
        }
      }
    }
  }

  void merge_stem(const std::string& scale, const SpecBench& b,
                  const std::vector<const ShardRun*>& members,
                  const char* stem) {
    struct Keyed {
      int unit, seq;
      std::string csv;
    };
    std::vector<Keyed> rows;
    std::string header;
    int rows_total = -1;
    const std::string what = std::string(b.bench) + "/" + stem +
                             " @ scale " + scale;
    for (const ShardRun* r : members) {
      const Fragment f = load_fragment(lay_, *r, stem);
      if (rows_total == -1) {
        header = f.header;
        rows_total = f.rows_total;
      } else if (f.header != header || f.rows_total != rows_total) {
        throw sim::SimError(
            sim::SimErrorKind::kInvariantViolation, what,
            "shards disagree on the table header or row count");
      }
      for (const FragmentRow& row : f.rows) {
        rows.push_back({row.unit, row.seq, row.csv});
      }
    }
    std::sort(rows.begin(), rows.end(), [](const Keyed& a, const Keyed& z) {
      return a.unit != z.unit ? a.unit < z.unit : a.seq < z.seq;
    });
    if (static_cast<int>(rows.size()) != rows_total) {
      throw sim::SimError(sim::SimErrorKind::kInvariantViolation, what,
                          "merged " + std::to_string(rows.size()) +
                              " rows, bench promises " +
                              std::to_string(rows_total));
    }
    for (std::size_t i = 1; i < rows.size(); ++i) {
      if (rows[i].unit == rows[i - 1].unit &&
          rows[i].seq == rows[i - 1].seq) {
        throw sim::SimError(sim::SimErrorKind::kInvariantViolation, what,
                            "duplicate (unit, seq) row across shards");
      }
    }

    const fs::path dir = lay_.merged / scale_dir_token(scale);
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) io_fail(dir.string(), "cannot create merged output dir",
                    ec.value());

    std::string csv = header + "\n";
    for (const Keyed& row : rows) csv += row.csv + "\n";
    snapshot::atomic_write_file((dir / (std::string(stem) + ".csv")).string(),
                                csv);

    std::string json = "{\"bench\":\"" + json_escape(stem) +
                       "\",\"scale\":\"" + json_escape(scale) +
                       "\",\"header\":[";
    const auto cells = [](const std::string& line) {
      std::vector<std::string> out;
      std::size_t pos = 0;
      while (true) {
        const std::size_t c = line.find(',', pos);
        if (c == std::string::npos) {
          out.push_back(line.substr(pos));
          return out;
        }
        out.push_back(line.substr(pos, c - pos));
        pos = c + 1;
      }
    };
    bool first = true;
    for (const std::string& cell : cells(header)) {
      if (!first) json += ",";
      first = false;
      json += "\"" + json_escape(cell) + "\"";
    }
    json += "],\"rows\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i != 0) json += ",";
      json += "[";
      bool f2 = true;
      for (const std::string& cell : cells(rows[i].csv)) {
        if (!f2) json += ",";
        f2 = false;
        json += "\"" + json_escape(cell) + "\"";
      }
      json += "]";
    }
    json += "]}\n";
    snapshot::atomic_write_file(
        (dir / (std::string(stem) + ".json")).string(), json);
    std::cout << "sweep: merged " << stem << " @ scale " << scale << " ("
              << rows.size() << " rows)\n";
  }

  void write_reports() {
    std::string q = "{\"sweep\":\"" + json_escape(spec_.name) +
                    "\",\"quarantined\":[";
    bool any = false;
    for (const ShardRun& r : runs_) {
      if (r.state != ShardState::kQuarantined) continue;
      if (any) q += ",";
      any = true;
      q += "{\"shard\":\"" + json_escape(r.shard.id) +
           "\",\"attempts\":" + std::to_string(r.attempts) +
           ",\"last_cause\":\"" + json_escape(r.last_cause) +
           "\",\"log\":\"" +
           json_escape("logs/" + r.shard.id + ".attempt" +
                       std::to_string(r.attempts) + ".log") +
           "\"}";
    }
    q += "]}\n";
    std::error_code ec;
    if (any) {
      snapshot::atomic_write_file(lay_.quarantine.string(), q);
    } else {
      fs::remove(lay_.quarantine, ec);  // stale from a resumed retry
    }

    std::string rep = "{\"sweep\":\"" + json_escape(spec_.name) +
                      "\",\"shards\":[";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const ShardRun& r = runs_[i];
      if (i != 0) rep += ",";
      const char* state = r.state == ShardState::kDone ? "done"
                          : r.state == ShardState::kQuarantined
                              ? "quarantined"
                              : "pending";
      rep += "{\"id\":\"" + json_escape(r.shard.id) + "\",\"state\":\"" +
             state + "\",\"attempts\":" + std::to_string(r.attempts) +
             ",\"elapsed_ms\":" + std::to_string(r.elapsed_ms) + "}";
    }
    rep += "]}\n";
    snapshot::atomic_write_file(lay_.report.string(), rep);
  }

 public:
  void set_trace_cache_env(std::string v) {
    trace_cache_env_ = std::move(v);
  }

 private:
  const SweepOptions& opts_;
  SweepSpec spec_;
  const Layout& lay_;
  std::vector<ShardRun> runs_;
  Journal* journal_ = nullptr;
  std::string trace_cache_env_;
};

}  // namespace

int run_sweep(const SweepOptions& opts) {
  if (opts.workers < 1) {
    bad("--workers", "worker count must be at least 1");
  }
  if (opts.out_dir.empty()) bad("--out", "sweep output directory required");
  if (opts.bench_dir.empty() || !fs::is_directory(opts.bench_dir)) {
    bad("--bench-dir",
        "'" + opts.bench_dir + "' is not a directory of bench binaries");
  }

  std::error_code ec;
  const fs::path out = fs::absolute(opts.out_dir, ec);
  const Layout lay(out);
  fs::create_directories(lay.frags, ec);
  fs::create_directories(lay.logs, ec);
  fs::create_directories(lay.hb, ec);
  fs::create_directories(lay.merged, ec);
  if (ec) io_fail(out.string(), "cannot create sweep state dirs", ec.value());

  // One supervisor per state dir: concurrent supervisors would double-spawn
  // shards and interleave journal appends.
  const int lock_fd =
      ::open(lay.lock.string().c_str(), O_WRONLY | O_CREAT, 0644);
  if (lock_fd < 0) {
    io_fail(lay.lock.string(), "cannot open supervisor lock", errno);
  }
  if (::flock(lock_fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(lock_fd);
    bad(out.string(),
        "another sweep supervisor is active on this --out directory");
  }

  // Spec: fresh runs read --spec and store a copy; resumes read the stored
  // copy back (and cross-check --spec when it is also given).
  std::string spec_text;
  if (opts.resume) {
    bool ok = true;
    spec_text = read_file(lay.spec_copy.string(), &ok);
    if (!ok) {
      ::close(lock_fd);
      bad(out.string(),
          "--resume but no stored spec.json here (was a sweep started?)");
    }
  } else {
    if (opts.spec_path.empty()) {
      ::close(lock_fd);
      bad("--spec", "a sweep spec file is required (unless --resume)");
    }
    bool ok = true;
    spec_text = read_file(opts.spec_path, &ok);
    if (!ok) {
      ::close(lock_fd);
      io_fail(opts.spec_path, "cannot read sweep spec", errno);
    }
  }

  int rc;
  try {
    SweepSpec spec = parse_spec(
        spec_text, opts.resume ? lay.spec_copy.string() : opts.spec_path);
    if (opts.resume && !opts.spec_path.empty()) {
      bool ok = true;
      const std::string given = read_file(opts.spec_path, &ok);
      if (!ok) io_fail(opts.spec_path, "cannot read sweep spec", errno);
      if (parse_spec(given, opts.spec_path).canonical() !=
          spec.canonical()) {
        throw sim::SimError(
            sim::SimErrorKind::kSnapshotInvalid, opts.spec_path,
            "spec differs from the sweep stored in " + out.string());
      }
    }

    // Every bench named by the spec must exist as a binary up front — a
    // typo'd --bench-dir should not burn a full retry cycle per shard.
    for (const SpecBench& b : spec.benches) {
      const fs::path bin = fs::path(opts.bench_dir) / b.bench;
      if (!fs::exists(bin)) {
        bad(bin.string(), "bench binary not found");
      }
    }

    const bool journal_exists =
        fs::exists(lay.journal) && fs::file_size(lay.journal, ec) > 0;
    if (!opts.resume && journal_exists) {
      bad(out.string(),
          "this directory already holds a sweep journal; pass --resume to "
          "continue it or choose a fresh --out");
    }

    Recovery rec;
    if (opts.resume) {
      rec = recover_journal(lay.journal.string());
      if (rec.dropped_bytes > 0) {
        std::cout << "sweep: journal tail dropped (" << rec.dropped_bytes
                  << " bytes: " << rec.drop_cause << ")\n";
      }
    } else {
      snapshot::atomic_write_file(lay.spec_copy.string(), spec_text);
    }

    if (!rec.records.empty()) {
      const Record& first = rec.records.front();
      if (first.type != RecordType::kBegin ||
          first.detail != spec.canonical()) {
        throw sim::SimError(
            sim::SimErrorKind::kSnapshotInvalid, lay.journal.string(),
            "journal was written for a different sweep spec");
      }
    }

    Journal journal(lay.journal.string());
    journal.set_next_seq(
        static_cast<std::uint32_t>(rec.records.size()));
    const std::vector<Shard> shards = expand_shards(spec);
    if (rec.records.empty()) {
      Record begin;
      begin.type = RecordType::kBegin;
      begin.detail = spec.canonical();
      begin.code = static_cast<std::int32_t>(shards.size());
      journal.append(begin);
    }

    // Shared capture store: every worker points its trace cache's disk tier
    // here, so each workload is captured once sweep-wide.
    std::string cache_env;
    if (opts.trace_cache == "off") {
      cache_env = "off";
    } else {
      fs::path dir = opts.trace_cache.empty()
                         ? lay.out / "tracecache"
                         : fs::absolute(opts.trace_cache, ec);
      fs::create_directories(dir, ec);
      if (ec) {
        io_fail(dir.string(), "cannot create trace-cache dir", ec.value());
      }
      cache_env = dir.string();
    }

    Supervisor sup(opts, std::move(spec), lay);
    sup.set_trace_cache_env(cache_env);
    sup.add_shards(shards);
    sup.replay(rec.records);
    rc = sup.run(journal);
  } catch (...) {
    ::close(lock_fd);
    throw;
  }
  ::close(lock_fd);
  return rc;
}

}  // namespace st2::orch

// Serve-mode stack tests: the wire codec, the isolated request runner, and
// the daemon end to end over a real Unix socket — admission control, malformed
// requests, response framing, concurrent mixed traffic, and graceful drain.
// The load-level version of these checks (thousands of requests against a
// spawned st2sim process) lives in scripts/serve_load.sh.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json.hpp"
#include "src/serve/codec.hpp"
#include "src/serve/runner.hpp"
#include "src/serve/server.hpp"
#include "src/sim/error.hpp"
#include "src/spec/policy.hpp"
#include "src/tracecache/tracecache.hpp"

namespace st2 {
namespace {

using serve::RunRequest;
using serve::RunResult;

// ---------------------------------------------------------------------------
// codec

TEST(ServeCodec, RequestDefaultsMirrorTheCli) {
  const RunRequest r = serve::parse_request(R"({"kernel": "pathfinder"})");
  EXPECT_EQ(r.spec.kernel, "pathfinder");
  EXPECT_TRUE(r.id.empty());
  EXPECT_DOUBLE_EQ(r.spec.scale, 0.5);
  EXPECT_FALSE(r.spec.st2);
  EXPECT_FALSE(r.spec.lrr);
  EXPECT_EQ(r.spec.sms, 20);
  EXPECT_EQ(r.spec.jobs, 1);
  EXPECT_EQ(r.spec.max_warps, 0);
  EXPECT_FALSE(r.spec.inject.enabled());
  EXPECT_EQ(r.spec.watchdog_cycles, 0u);
  EXPECT_EQ(r.spec.watchdog_ms, 0u);
}

TEST(ServeCodec, FullRequestParses) {
  const RunRequest r = serve::parse_request(
      R"({"id": "r1", "kernel": "sad_K1", "scale": 0.25, "st2": true,)"
      R"( "lrr": true, "sms": 4, "jobs": 1, "max_warps": 8,)"
      R"( "inject": "crf:1e-3", "inject_seed": 7,)"
      R"( "watchdog_cycles": 100, "watchdog_ms": 2000})");
  EXPECT_EQ(r.id, "r1");
  EXPECT_EQ(r.spec.kernel, "sad_K1");
  EXPECT_DOUBLE_EQ(r.spec.scale, 0.25);
  EXPECT_TRUE(r.spec.st2);
  EXPECT_TRUE(r.spec.lrr);
  EXPECT_EQ(r.spec.sms, 4);
  EXPECT_EQ(r.spec.max_warps, 8);
  EXPECT_TRUE(r.spec.inject.enabled());
  EXPECT_EQ(r.spec.inject.seed, 7u);
  EXPECT_EQ(r.spec.watchdog_cycles, 100u);
  EXPECT_EQ(r.spec.watchdog_ms, 2000u);
}

TEST(ServeCodec, SpecPolicyFieldParses) {
  EXPECT_EQ(serve::parse_request(R"({"kernel": "x"})").spec.spec_policy,
            spec::PredictorConfig{})
      << "default is the paper's CRF";
  const RunRequest r = serve::parse_request(
      R"({"kernel": "x", "st2": true,)"
      R"( "spec_policy": "tage,tables=2,entries=64,minhist=4"})");
  EXPECT_EQ(r.spec.spec_policy,
            spec::PredictorConfig::parse("tage,tables=2,entries=64,minhist=4"));
  EXPECT_EQ(serve::parse_request(
                R"({"kernel": "x", "st2": true, "spec_policy": "mru"})")
                .spec.spec_policy.kind,
            spec::PredictorKind::kMru);
}

TEST(ServeCodec, NumericIdIsAccepted) {
  const RunRequest r =
      serve::parse_request(R"({"id": 42, "kernel": "pathfinder"})");
  EXPECT_EQ(r.id, "42");
}

TEST(ServeCodec, StringEscapesDecode) {
  const RunRequest r = serve::parse_request(
      "{\"id\": \"a\\\"b\\\\c\\u0041\", \"kernel\": \"pathfinder\"}");
  EXPECT_EQ(r.id, "a\"b\\cA");

  // Every control byte survives json_escape -> decode unchanged.
  std::string controls;
  for (int c = 0; c < 0x20; ++c) controls += static_cast<char>(c);
  const RunRequest rc = serve::parse_request("{\"id\": \"" +
                                             json_escape(controls) +
                                             "\", \"kernel\": \"pathfinder\"}");
  EXPECT_EQ(rc.id, controls);
}

// Every malformed line must be rejected through the taxonomy — a typo'd
// field silently falling back to a default would corrupt a sweep. A line
// that decodes but breaks an option rule is rejected by RunSpec::validate,
// which runs before a request executes.
TEST(ServeCodec, MalformedRequestsThrowBadArguments) {
  const char* cases[] = {
      "",                                        // empty
      "not json",                                // bare token
      "[1, 2]",                                  // not an object
      R"({"kernel": "x")",                       // truncated
      R"({"scale": 0.5})",                       // kernel missing
      R"({"kernel": ""})",                       // kernel empty
      R"({"kernel": 5})",                        // wrong type
      R"({"kernel": "x", "bogus": 1})",          // unknown field
      R"({"kernel": "x", "kernel": "y"})",       // duplicate key
      R"({"kernel": "x", "inject": {"a": 1}})",  // nested value
      R"({"kernel": "x"} trailing)",             // trailing bytes
      R"({"kernel": "x", "scale": 0})",          // out-of-range scale
      R"({"kernel": "x", "scale": 99})",         // out-of-range scale
      R"({"kernel": "x", "sms": 0})",            // out-of-range sms
      R"({"kernel": "x", "max_warps": -1})",     // negative warp cap
      R"({"kernel": "x", "sms": 1.5})",          // non-integral count
      R"({"kernel": "x", "watchdog_ms": -1})",   // negative u64
      R"({"kernel": "x", "inject": "crf:nope"})",  // bad fault spec
      R"({"kernel": "x", "spec_policy": "bogus"})",       // unknown policy
      R"({"kernel": "x", "spec_policy": 5})",             // wrong type
      R"({"kernel": "x", "spec_policy": "crf,bad=1"})",   // bad key
  };
  for (const char* line : cases) {
    try {
      serve::parse_request(line).spec.validate();
      FAIL() << "accepted malformed request: " << line;
    } catch (const sim::SimError& e) {
      EXPECT_EQ(e.kind(), sim::SimErrorKind::kBadArguments) << line;
    }
  }
}

TEST(ServeCodec, EnvelopeRoundTrips) {
  const std::string line =
      serve::envelope_line("r\"1", 0, "", "", 12.5, 345);
  std::string id, kind, msg;
  int code = -1;
  std::size_t body = 0;
  ASSERT_TRUE(serve::parse_envelope(line, &id, &code, &kind, &msg, &body))
      << line;
  EXPECT_EQ(id, "r\"1");
  EXPECT_EQ(code, 0);
  EXPECT_TRUE(kind.empty());
  EXPECT_EQ(body, 345u);

  const std::string err =
      serve::envelope_line("r2", 9, "busy", "queue full", 0.01, 0);
  ASSERT_TRUE(serve::parse_envelope(err, &id, &code, &kind, &msg, &body));
  EXPECT_EQ(id, "r2");
  EXPECT_EQ(code, 9);
  EXPECT_EQ(kind, "busy");
  EXPECT_EQ(msg, "queue full");
  EXPECT_EQ(body, 0u);

  EXPECT_FALSE(
      serve::parse_envelope("{\"nope\": 1}", &id, &code, &kind, &msg, &body));
  EXPECT_FALSE(
      serve::parse_envelope("garbage", &id, &code, &kind, &msg, &body));
}

// ---------------------------------------------------------------------------
// runner

RunRequest small_request(const std::string& kernel, bool st2 = false) {
  RunRequest req;
  req.spec.kernel = kernel;
  req.spec.scale = 0.15;
  req.spec.sms = 4;
  req.spec.st2 = st2;
  return req;
}

TEST(ServeRunner, ReportIsByteStableAcrossCacheAndRepeats) {
  const RunRequest req = small_request("pathfinder", true);
  const RunResult cold = serve::execute_request(req, nullptr, 0);
  ASSERT_EQ(cold.exit_code, sim::kExitOk) << cold.error_message;
  EXPECT_TRUE(cold.error_kind.empty());
  ASSERT_FALSE(cold.report.empty());
  EXPECT_EQ(cold.report.substr(0, 2), "[\n");
  EXPECT_EQ(cold.report.substr(cold.report.size() - 3), "\n]\n");

  tracecache::TraceCache cache;
  const RunResult miss = serve::execute_request(req, &cache, 0);
  const RunResult hit = serve::execute_request(req, &cache, 0);
  EXPECT_EQ(cold.report, miss.report);   // cache contract: same bytes
  EXPECT_EQ(cold.report, hit.report);    // ... also on the memo-hit path
  EXPECT_GT(cache.stats().memo_hits, 0u);
}

TEST(ServeRunner, SpecPolicySelectsThePredictorEndToEnd) {
  const RunRequest def = small_request("pathfinder", true);
  RunRequest crf = def;
  crf.spec.spec_policy = spec::PredictorConfig::parse("crf");
  RunRequest mru = def;
  mru.spec.spec_policy = spec::PredictorConfig::parse("mru");
  const RunResult rd = serve::execute_request(def, nullptr, 0);
  const RunResult rc = serve::execute_request(crf, nullptr, 0);
  const RunResult rm = serve::execute_request(mru, nullptr, 0);
  ASSERT_EQ(rd.exit_code, sim::kExitOk) << rd.error_message;
  ASSERT_EQ(rm.exit_code, sim::kExitOk) << rm.error_message;
  // Selecting the paper's predictor explicitly is byte-identical to the
  // default; a different policy genuinely changes the speculation stream.
  EXPECT_EQ(rd.report, rc.report);
  EXPECT_NE(rd.report, rm.report);
}

TEST(ServeRunner, RequestFailuresAreClassifiedNotThrown) {
  RunRequest unknown = small_request("no_such_kernel");
  const RunResult r1 = serve::execute_request(unknown, nullptr, 0);
  EXPECT_EQ(r1.exit_code, sim::kExitBadArguments);
  EXPECT_EQ(r1.error_kind, "bad-arguments");
  EXPECT_TRUE(r1.report.empty());

  RunRequest inject = small_request("pathfinder");  // inject without st2
  inject.spec.inject = fault::FaultConfig::parse("crf:1e-3");
  const RunResult r2 = serve::execute_request(inject, nullptr, 0);
  EXPECT_EQ(r2.exit_code, sim::kExitBadArguments);
  EXPECT_EQ(r2.error_kind, "bad-arguments");

  RunRequest zoo = small_request("pathfinder");  // policy without st2
  zoo.spec.spec_policy = spec::PredictorConfig::parse("mru");
  const RunResult rz = serve::execute_request(zoo, nullptr, 0);
  EXPECT_EQ(rz.exit_code, sim::kExitBadArguments);
  EXPECT_EQ(rz.error_kind, "bad-arguments");

  RunRequest jobs0 = small_request("pathfinder");
  jobs0.spec.jobs = 0;  // the CLI's --jobs contract, enforced per request
  const RunResult r3 = serve::execute_request(jobs0, nullptr, 0);
  EXPECT_EQ(r3.exit_code, sim::kExitBadArguments);

  RunRequest tight = small_request("sad_K1", true);
  tight.spec.watchdog_cycles = 10;
  const RunResult r4 = serve::execute_request(tight, nullptr, 0);
  EXPECT_EQ(r4.exit_code, sim::kExitWatchdogAborted);
  EXPECT_NE(r4.report.find("\"status\": \"aborted\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// server, end to end over a Unix socket

struct Frame {
  std::string request_id;
  int exit_code = -1;
  std::string error_kind;
  std::string message;
  std::string body;
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0)
      << path << ": " << std::strerror(errno);
  return fd;
}

void send_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::send(fd, s.data() + off, s.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// Reads framed responses from one fd. The receive buffer lives as long as
/// the reader, so bytes of a later frame that arrive in the same read() as
/// an earlier one are kept for the next call, not dropped.
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  /// Reads exactly `n` framed responses (or fewer if EOF comes first).
  std::vector<Frame> read(std::size_t n) {
    std::vector<Frame> out;
    while (out.size() < n) {
      const std::size_t nl = acc_.find('\n');
      if (nl == std::string::npos) {
        if (!fill()) break;
        continue;
      }
      Frame f;
      std::size_t body_bytes = 0;
      EXPECT_TRUE(serve::parse_envelope(acc_.substr(0, nl), &f.request_id,
                                        &f.exit_code, &f.error_kind,
                                        &f.message, &body_bytes))
          << acc_.substr(0, nl);
      while (acc_.size() - (nl + 1) < body_bytes) {
        if (!fill()) {
          ADD_FAILURE() << "EOF mid-body for request " << f.request_id;
          return out;
        }
      }
      f.body = acc_.substr(nl + 1, body_bytes);
      acc_.erase(0, nl + 1 + body_bytes);
      out.push_back(std::move(f));
    }
    return out;
  }

 private:
  /// Appends one read() to the buffer; false on EOF or error.
  bool fill() {
    char buf[16384];
    const ssize_t r = ::read(fd_, buf, sizeof(buf));
    if (r <= 0) return false;
    acc_.append(buf, static_cast<std::size_t>(r));
    return true;
  }

  int fd_;
  std::string acc_;
};

/// Reads exactly `n` framed responses (or fewer if EOF comes first) from a
/// fd that is read only once.
std::vector<Frame> read_frames(int fd, std::size_t n) {
  return FrameReader(fd).read(n);
}

std::string test_socket(const char* name) {
  return std::string(::testing::TempDir()) + "st2_serve_" + name + "_" +
         std::to_string(::getpid()) + ".sock";
}

class ServerFixture {
 public:
  explicit ServerFixture(serve::ServerOptions opts) : server_(opts) {
    server_.start();
    loop_ = std::thread([this] { server_.serve_forever(); });
  }
  ~ServerFixture() { stop(); }
  void stop() {
    if (loop_.joinable()) {
      server_.request_stop();
      loop_.join();
    }
  }
  serve::Server& server() { return server_; }

 private:
  serve::Server server_;
  std::thread loop_;
};

TEST(ServeServer, MixedTrafficIsIsolatedAndByteIdentical) {
  const std::string base_ref =
      serve::execute_request(small_request("pathfinder"), nullptr, 0).report;
  const std::string st2_ref =
      serve::execute_request(small_request("pathfinder", true), nullptr, 0)
          .report;

  serve::ServerOptions so;
  so.socket_path = test_socket("mixed");
  so.workers = 2;
  ServerFixture fx(so);
  const int fd = connect_unix(so.socket_path);
  send_all(
      fd,
      "{\"id\": \"base\", \"kernel\": \"pathfinder\", \"scale\": 0.15, "
      "\"sms\": 4}\n"
      "this is not json\n"
      "{\"id\": \"st2\", \"kernel\": \"pathfinder\", \"scale\": 0.15, "
      "\"sms\": 4, \"st2\": true}\n"
      "{\"id\": \"bad\", \"kernel\": \"no_such_kernel\"}\n"
      "{\"id\": \"base2\", \"kernel\": \"pathfinder\", \"scale\": 0.15, "
      "\"sms\": 4}\n");
  const std::vector<Frame> frames = read_frames(fd, 5);
  ::close(fd);
  ASSERT_EQ(frames.size(), 5u);
  int ok = 0, parse_err = 0, run_err = 0;
  for (const Frame& f : frames) {
    if (f.request_id == "base" || f.request_id == "base2") {
      EXPECT_EQ(f.exit_code, 0);
      EXPECT_EQ(f.body, base_ref);  // bit-identity under concurrency
      ++ok;
    } else if (f.request_id == "st2") {
      EXPECT_EQ(f.exit_code, 0);
      EXPECT_EQ(f.body, st2_ref);
      ++ok;
    } else if (f.request_id == "bad") {
      EXPECT_EQ(f.error_kind, "bad-arguments");
      EXPECT_TRUE(f.body.empty());
      ++run_err;
    } else {
      // the malformed line: server-assigned id, classified, daemon alive
      EXPECT_EQ(f.error_kind, "bad-arguments");
      ++parse_err;
    }
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(parse_err, 1);
  EXPECT_EQ(run_err, 1);
  fx.stop();
  const serve::ServerStats st = fx.server().stats();
  EXPECT_EQ(st.connections, 1u);
  EXPECT_EQ(st.requests + st.busy_rejects, 5u);
}

TEST(ServeServer, AdmissionControlShedsWithBusy) {
  serve::ServerOptions so;
  so.socket_path = test_socket("busy");
  so.workers = 1;
  so.queue_depth = 1;
  ServerFixture fx(so);
  const int fd = connect_unix(so.socket_path);
  // One slow request to occupy the worker, then a burst: with depth 1, at
  // most 1 of the burst is queued behind it — the rest must shed as busy,
  // immediately, from the reader thread.
  std::string burst =
      "{\"id\": \"slow\", \"kernel\": \"sad_K1\", \"scale\": 0.25, "
      "\"st2\": true, \"sms\": 2}\n";
  constexpr int kBurst = 12;
  for (int i = 0; i < kBurst; ++i) {
    burst += "{\"id\": \"b" + std::to_string(i) +
             "\", \"kernel\": \"pathfinder\", \"scale\": 0.15, \"sms\": "
             "4}\n";
  }
  send_all(fd, burst);
  const std::vector<Frame> frames = read_frames(fd, kBurst + 1);
  ::close(fd);
  ASSERT_EQ(frames.size(), static_cast<std::size_t>(kBurst) + 1);
  int done = 0, busy = 0;
  for (const Frame& f : frames) {
    if (f.error_kind.empty()) {
      EXPECT_EQ(f.exit_code, 0);
      ++done;
    } else {
      EXPECT_EQ(f.error_kind, "busy");
      EXPECT_EQ(f.exit_code, sim::kExitBusy);
      EXPECT_TRUE(f.body.empty());
      ++busy;
    }
  }
  EXPECT_EQ(done + busy, kBurst + 1);
  EXPECT_GE(busy, 1);
  EXPECT_GE(done, 1);  // at minimum the slow request itself completes
  fx.stop();
  EXPECT_EQ(fx.server().stats().busy_rejects,
            static_cast<std::uint64_t>(busy));
}

TEST(ServeServer, DrainFinishesAdmittedRequestsWhole) {
  serve::ServerOptions so;
  so.socket_path = test_socket("drain");
  so.workers = 1;
  ServerFixture fx(so);
  const int fd = connect_unix(so.socket_path);
  send_all(fd,
           "{\"id\": \"d1\", \"kernel\": \"pathfinder\", \"scale\": 0.15, "
           "\"sms\": 4}\n"
           "{\"id\": \"d2\", \"kernel\": \"pathfinder\", \"scale\": 0.15, "
           "\"sms\": 4, \"st2\": true}\n");
  // Give the reader a moment to admit both, then stop mid-flight: both
  // admitted responses must still arrive complete before EOF.
  FrameReader reader(fd);
  std::vector<Frame> frames = reader.read(1);  // wait for admission+run
  fx.server().request_stop();
  for (Frame& f : reader.read(1)) frames.push_back(std::move(f));
  fx.stop();
  char c;
  EXPECT_EQ(::read(fd, &c, 1), 0);  // EOF after drain, no partial bytes
  ::close(fd);
  ASSERT_EQ(frames.size(), 2u);
  for (const Frame& f : frames) {
    EXPECT_TRUE(f.error_kind.empty()) << f.message;
    EXPECT_FALSE(f.body.empty());
  }
}

TEST(ServeServer, TwoConnectionsHammerConcurrently) {
  const std::string base_ref =
      serve::execute_request(small_request("pathfinder"), nullptr, 0).report;
  const std::string st2_ref =
      serve::execute_request(small_request("pathfinder", true), nullptr, 0)
          .report;
  serve::ServerOptions so;
  so.socket_path = test_socket("hammer");
  so.workers = 2;
  so.queue_depth = 256;  // this test exercises isolation, not shedding
  ServerFixture fx(so);
  constexpr int kPerConn = 8;
  auto pump = [&](bool st2, const std::string& want) {
    const int fd = connect_unix(so.socket_path);
    std::string lines;
    for (int i = 0; i < kPerConn; ++i) {
      lines += "{\"id\": \"h" + std::to_string(i) +
               "\", \"kernel\": \"pathfinder\", \"scale\": 0.15, \"sms\": 4" +
               (st2 ? ", \"st2\": true" : "") + "}\n";
    }
    send_all(fd, lines);
    const std::vector<Frame> frames = read_frames(fd, kPerConn);
    ::close(fd);
    ASSERT_EQ(frames.size(), static_cast<std::size_t>(kPerConn));
    for (const Frame& f : frames) {
      EXPECT_TRUE(f.error_kind.empty()) << f.message;
      // Interleaved baseline and ST² traffic on one shared cache: every
      // response must still be the exact one-shot document for *its* config.
      EXPECT_EQ(f.body, want) << f.request_id;
    }
  };
  std::thread t1(pump, false, base_ref);
  std::thread t2(pump, true, st2_ref);
  t1.join();
  t2.join();
  fx.stop();
  EXPECT_EQ(fx.server().stats().requests, 2u * kPerConn);
}

}  // namespace
}  // namespace st2

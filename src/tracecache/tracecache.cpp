#include "src/tracecache/tracecache.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "src/common/bitutils.hpp"
#include "src/sim/adder_ops.hpp"
#include "src/sim/error.hpp"
#include "src/snapshot/crc32.hpp"
#include "src/snapshot/serial.hpp"
#include "src/snapshot/snapshot.hpp"
#include "src/spec/predictor.hpp"

namespace st2::tracecache {

namespace {

/// Capture bytes depend on exactly two config fields: `line_bytes` (memory
/// coalescing) and the payload flag — which the canonical form pins to
/// "on". Everything else (SM count, latencies, scheduler, ST² on/off at
/// replay time) re-times the same streams.
sim::GpuConfig canonical_config(const sim::GpuConfig& cfg) {
  sim::GpuConfig c = cfg;
  c.num_sms = 1;
  c.st2_enabled = true;  // always capture adder payloads; baseline ignores
  return c;
}

/// Memo accounting: the resident footprint of an entry's vectors.
std::size_t entry_bytes(const CanonicalCapture& cap) {
  std::size_t n = cap.final_mem.size();
  for (const sim::BlockWork& bw : cap.blocks) {
    n += sizeof(sim::BlockWork);
    for (const sim::WarpStream& ws : bw.warps) {
      n += sizeof(sim::WarpStream);
      n += ws.ops.size() * sizeof(sim::TraceOp);
      n += ws.lines.size() * sizeof(std::uint64_t);
      n += ws.adder_lanes.size() * sizeof(spec::WarpLanes);
    }
  }
  return n;
}

/// Distributes canonical blocks round-robin over `num_sms` SMs — the same
/// `b % num_sms` partitioning `capture_grid` applies at capture time, so a
/// rebound capture is indistinguishable from a direct one.
sim::GridCapture rebind(const CanonicalCapture& cap, int num_sms) {
  sim::GridCapture out;
  out.per_sm.resize(static_cast<std::size_t>(num_sms));
  for (std::size_t b = 0; b < cap.blocks.size(); ++b) {
    out.per_sm[b % static_cast<std::size_t>(num_sms)].blocks.push_back(
        cap.blocks[b]);
  }
  return out;
}

/// Moves a fresh single-SM capture into canonical form (blocks are already
/// in flat order on SM 0) and snapshots the post-launch memory image.
CanonicalCapture canonicalize(sim::GridCapture&& cap,
                              const sim::GlobalMemory& gmem) {
  CanonicalCapture c;
  c.blocks = std::move(cap.per_sm.at(0).blocks);
  const std::span<const std::uint8_t> mem = gmem.bytes();
  c.final_mem.assign(mem.begin(), mem.end());
  return c;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

/// FNV-1a folded over 8-byte words (byte-wise tail). The pre-launch memory
/// image is hashed on *every* provide() call — hits included — and the
/// byte-at-a-time loop dominated warm-hit latency on memory-heavy
/// workloads. Keys are machine-local, so the exact constant only needs to
/// be stable, not portable across endianness.
std::uint64_t hash_image(const std::uint8_t* p, std::size_t n) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * kPrime;
  }
  for (; n != 0; ++p, --n) h = (h ^ *p) * kPrime;
  return h;
}

/// Whether `lanes` are planes capture could have written for an op with
/// `active` lanes and relevant mask `relevant`: each active lane's Peek mask
/// and true carries lie under `relevant`, and every inactive lane's bytes
/// are 0.
bool valid_lanes(const spec::WarpLanes& lanes, std::uint32_t active,
                 std::uint8_t relevant) {
  const std::uint64_t rel = relevant * 0x0101010101010101ULL;
  for (int w = 0; w < spec::kWarpLanes / 8; ++w) {
    const auto at = static_cast<std::size_t>(8 * w);
    const std::uint64_t live = byte_mask_from_bits(active >> (8 * w));
    const std::uint64_t pm =
        spec::load_byte_lanes(lanes.peek_mask.data() + at);
    const std::uint64_t act = spec::load_byte_lanes(lanes.actual.data() + at);
    if (((pm | act) & ~(rel & live)) != 0) return false;
  }
  return true;
}

}  // namespace

std::string capture_key(const sim::GpuConfig& cfg, const isa::Kernel& kernel,
                        const sim::LaunchConfig& launch,
                        const sim::GlobalMemory& gmem) {
  // The kernel is fingerprinted through its disassembly (covers every
  // instruction field the functional core interprets) plus the header
  // fields that shape execution and admission.
  std::uint64_t khash = snapshot::fnv1a64(kernel.disassemble());
  khash = snapshot::fnv1a64(kernel.name.data(), kernel.name.size(),
                            khash ^ 0x9e3779b97f4a7c15ULL);
  std::string key = "st2cap-v4 kernel=" + kernel.name +
                    " khash=" + hex16(khash) +
                    " shared=" + std::to_string(kernel.shared_bytes) +
                    " regs=" + std::to_string(kernel.regs_used) +
                    " grid=" + std::to_string(launch.grid_x) + "," +
                    std::to_string(launch.grid_y) +
                    " block=" + std::to_string(launch.block_x) + "," +
                    std::to_string(launch.block_y) + " args=";
  for (std::size_t i = 0; i < launch.args.size(); ++i) {
    if (i) key += ",";
    key += hex16(launch.args[i]);
  }
  const std::span<const std::uint8_t> mem = gmem.bytes();
  key += " line_bytes=" + std::to_string(cfg.line_bytes) + " payload=1" +
         " memsize=" + std::to_string(mem.size()) +
         " memhash=" + hex16(hash_image(mem.data(), mem.size()));
  return key;
}

std::string serialize_capture(const CanonicalCapture& cap,
                              std::string_view key) {
  snapshot::Writer w;
  w.str(key);
  w.u32(static_cast<std::uint32_t>(cap.blocks.size()));
  for (const sim::BlockWork& bw : cap.blocks) {
    w.u32(static_cast<std::uint32_t>(bw.warps.size()));
    for (const sim::WarpStream& ws : bw.warps) {
      w.u32(static_cast<std::uint32_t>(ws.ops.size()));
      for (const sim::TraceOp& op : ws.ops) {
        w.u32(op.pc);
        w.u32(op.active_mask);
        w.u16(op.mem_lines);
        w.u32(op.payload);
      }
      w.u32(static_cast<std::uint32_t>(ws.lines.size()));
      for (const std::uint64_t line : ws.lines) w.u64(line);
      // The lane pool is by far the largest stream for adder-heavy kernels;
      // a WarpLanes is two byte planes, so a bulk raw write produces
      // exactly the bytes a per-field loop would (and the matching bulk
      // read makes warm hits cheap).
      w.u32(static_cast<std::uint32_t>(ws.adder_lanes.size()));
      w.raw(std::string_view(
          reinterpret_cast<const char*>(ws.adder_lanes.data()),
          ws.adder_lanes.size() * sizeof(spec::WarpLanes)));
    }
  }
  w.u64(cap.final_mem.size());
  w.raw(std::string_view(
      reinterpret_cast<const char*>(cap.final_mem.data()),
      cap.final_mem.size()));
  return w.take();
}

CanonicalCapture deserialize_capture(std::string_view payload,
                                     std::string_view expected_key,
                                     const isa::Kernel& kernel,
                                     const std::string& context) {
  snapshot::Reader r(payload, context);
  r.require(r.str() == expected_key,
            "embedded capture key differs from the requested one");
  CanonicalCapture cap;
  const std::uint32_t num_blocks = r.u32();
  r.require(num_blocks >= 1, "capture has no blocks");
  cap.blocks.resize(num_blocks);
  for (std::uint32_t b = 0; b < num_blocks; ++b) {
    sim::BlockWork& bw = cap.blocks[b];
    bw.block_flat = static_cast<int>(b);  // canonical form: flat order
    const std::uint32_t num_warps = r.u32();
    r.require(num_warps >= 1 && num_warps <= 32,
              "per-block warp count out of range");
    bw.warps.resize(num_warps);
    for (std::uint32_t wi = 0; wi < num_warps; ++wi) {
      sim::WarpStream& ws = bw.warps[wi];
      const std::uint32_t num_ops = r.u32();
      r.require(num_ops <= payload.size(),
                "op count overruns the payload");  // cheap pre-size sanity
      ws.ops.resize(num_ops);
      for (std::uint32_t oi = 0; oi < num_ops; ++oi) {
        sim::TraceOp& op = ws.ops[oi];
        op.pc = r.u32();
        op.active_mask = r.u32();
        op.mem_lines = r.u16();
        op.payload = r.u32();
        r.require(op.active_mask != 0, "trace op with no active lanes");
        // Replay indexes its per-PC tables by op.pc, and takes the op's
        // kind from the opcode there.
        r.require(op.pc < kernel.code.size(),
                  "trace op pc outside the kernel");
      }
      const std::uint32_t num_lines = r.u32();
      r.require(num_lines <= payload.size(),
                "line count overruns the payload");
      ws.lines.resize(num_lines);
      for (std::uint32_t li = 0; li < num_lines; ++li) ws.lines[li] = r.u64();
      const std::uint32_t num_adder = r.u32();
      r.require(num_adder <= payload.size() / sizeof(spec::WarpLanes),
                "adder-lane count overruns the payload");
      ws.adder_lanes.resize(num_adder);
      const std::string_view lanes =
          r.raw(num_adder * sizeof(spec::WarpLanes));
      std::memcpy(ws.adder_lanes.data(), lanes.data(), lanes.size());
      // Semantic bounds: every index replay will follow must land inside
      // the pools just read, so corrupt streams surface here as a typed
      // rejection instead of out-of-range access in SmCore.
      for (const sim::TraceOp& op : ws.ops) {
        const isa::Opcode opcode = kernel.code[op.pc].op;
        if (const int slices = sim::adder_slices(opcode); slices != 0) {
          r.require(op.payload < ws.adder_lanes.size(),
                    "adder op references lanes outside the pool");
          r.require(valid_lanes(ws.adder_lanes[op.payload], op.active_mask,
                                spec::relevant_mask(slices)),
                    "adder lane planes are malformed");
        } else if (isa::unit_class(opcode) == isa::UnitClass::kMem &&
                   !isa::is_shared(opcode)) {
          r.require(op.mem_lines <= sim::kWarpSize,
                    "coalesced line count exceeds the warp width");
          r.require(static_cast<std::size_t>(op.payload) + op.mem_lines <=
                        ws.lines.size(),
                    "memory op references lines outside the pool");
        }
      }
    }
  }
  const std::uint64_t mem_size = r.u64();
  r.require(mem_size == r.remaining(),
            "memory-image size differs from the remaining payload");
  const std::string_view mem = r.raw(static_cast<std::size_t>(mem_size));
  cap.final_mem.assign(mem.begin(), mem.end());
  r.require(r.done(), "trailing bytes after the capture");
  return cap;
}

TraceCache::TraceCache(CacheOptions opts) : opts_(std::move(opts)) {
  if (!opts_.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts_.dir, ec);
    if (ec) {
      throw sim::SimError(sim::SimErrorKind::kIo,
                          "trace-cache directory '" + opts_.dir + "'",
                          ec.message());
    }
  }
}

std::string TraceCache::path_for(std::string_view key) const {
  if (opts_.dir.empty()) return {};
  return opts_.dir + "/cap_" + hex16(snapshot::fnv1a64(key)) + ".st2cap";
}

std::string TraceCache::entry_path(const sim::GpuConfig& cfg,
                                   const isa::Kernel& kernel,
                                   const sim::LaunchConfig& launch,
                                   const sim::GlobalMemory& gmem) const {
  return path_for(capture_key(cfg, kernel, launch, gmem));
}

void TraceCache::memo_insert_locked(const std::string& key,
                                    std::shared_ptr<Entry> entry) {
  if (!opts_.memo || entry->bytes > opts_.memo_max_bytes) return;
  if (memo_.count(key) != 0) return;
  stats_.memo_bytes += entry->bytes;
  memo_.emplace(key, std::move(entry));
  fifo_.push_back(key);
  while (stats_.memo_bytes > opts_.memo_max_bytes && !fifo_.empty()) {
    const auto it = memo_.find(fifo_.front());
    fifo_.pop_front();
    if (it == memo_.end()) continue;
    stats_.memo_bytes -= it->second->bytes;
    memo_.erase(it);
    ++stats_.evictions;
  }
}

std::shared_ptr<TraceCache::Entry> TraceCache::memo_find_locked(
    const std::string& key) {
  const auto it = memo_.find(key);
  return it == memo_.end() ? nullptr : it->second;
}

void TraceCache::disk_store(std::string_view key, const Entry& entry) {
  if (opts_.dir.empty()) return;
  // Unique staging names make concurrent writers — worker threads here,
  // sweep worker *processes* elsewhere — safe without serialization: each
  // stages into its own pid+counter tmp file, and whichever rename lands
  // last wins with complete, identical bytes (captures are deterministic
  // functions of the key).
  try {
    snapshot::write_snapshot(path_for(key), snapshot::fnv1a64(key),
                             serialize_capture(entry.cap, key),
                             /*unique_tmp=*/true);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.disk_stores;
  } catch (const sim::SimError&) {
    // A failed store (unwritable dir, disk full) only costs warmth.
  }
}

sim::GridCapture TraceCache::provide(const sim::GpuConfig& cfg,
                                     const isa::Kernel& kernel,
                                     const sim::LaunchConfig& launch,
                                     sim::GlobalMemory& gmem) {
  const std::string key = capture_key(cfg, kernel, launch, gmem);

  if (opts_.memo) {
    std::shared_ptr<Entry> hit;
    {
      std::lock_guard<std::mutex> lock(mu_);
      hit = memo_find_locked(key);
      if (hit != nullptr) ++stats_.memo_hits;
    }
    if (hit != nullptr) {
      // Entries are immutable after insert, so the capture is safe to read
      // outside the lock for as long as this shared_ptr lives.
      gmem.restore_bytes(hit->cap.final_mem);
      return rebind(hit->cap, cfg.num_sms);
    }
  }

  std::error_code ec;  // a cold cache is a plain miss, not a "reject"
  if (!opts_.dir.empty() &&
      std::filesystem::exists(path_for(key), ec) && !ec) {
    try {
      const std::string payload =
          snapshot::read_snapshot(path_for(key), snapshot::fnv1a64(key));
      CanonicalCapture cap =
          deserialize_capture(payload, key, kernel, "trace-cache entry");
      // The embedded key matches, so these can only fail on a key-string
      // collision crafted to pass the CRC — reject rather than trust.
      if (cap.final_mem.size() != gmem.size() ||
          cap.blocks.size() !=
              static_cast<std::size_t>(launch.num_blocks()) ||
          cap.blocks.front().warps.size() !=
              static_cast<std::size_t>(launch.warps_per_block())) {
        throw sim::SimError(sim::SimErrorKind::kSnapshotInvalid,
                            "trace-cache entry",
                            "capture shape differs from the launch");
      }
      gmem.restore_bytes(cap.final_mem);
      auto entry = std::make_shared<Entry>();
      entry->bytes = entry_bytes(cap);
      entry->cap = std::move(cap);
      sim::GridCapture out = rebind(entry->cap, cfg.num_sms);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.disk_hits;
        memo_insert_locked(key, std::move(entry));
      }
      return out;
    } catch (const sim::SimError& e) {
      if (e.kind() != sim::SimErrorKind::kSnapshotInvalid) throw;
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.disk_rejects;  // corrupt/mismatched file: clean miss
    }
  }

  // Miss: the canonical capture runs outside the lock (it can take seconds
  // and only touches the caller's gmem). Concurrent misses on one key each
  // capture; the losing insert below is a no-op.
  auto entry = std::make_shared<Entry>();
  entry->cap = canonicalize(
      sim::capture_grid(canonical_config(cfg), kernel, launch, gmem), gmem);
  entry->bytes = entry_bytes(entry->cap);
  disk_store(key, *entry);
  sim::GridCapture out = rebind(entry->cap, cfg.num_sms);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    memo_insert_locked(key, std::move(entry));
  }
  return out;
}

void TraceCache::populate(const sim::GpuConfig& cfg,
                          const isa::Kernel& kernel,
                          const sim::LaunchConfig& launch,
                          sim::GlobalMemory& gmem,
                          const sim::TraceObserver& observer,
                          bool record_lane_values) {
  const std::string key = capture_key(cfg, kernel, launch, gmem);
  // The observer needs every ExecRecord, so this path always executes; the
  // capture falls out of the same pass for free.
  CanonicalCapture cap = canonicalize(
      sim::capture_grid(canonical_config(cfg), kernel, launch, gmem,
                        observer, record_lane_values),
      gmem);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (opts_.memo && memo_.count(key) != 0) return;  // already cached
  }
  auto entry = std::make_shared<Entry>();
  entry->bytes = entry_bytes(cap);
  entry->cap = std::move(cap);
  disk_store(key, *entry);
  std::lock_guard<std::mutex> lock(mu_);
  memo_insert_locked(key, std::move(entry));
}

std::string TraceCache::stats_line() const {
  const CacheStats s = stats();
  return "trace-cache: memo-hits=" + std::to_string(s.memo_hits) +
         " disk-hits=" + std::to_string(s.disk_hits) +
         " misses=" + std::to_string(s.misses) +
         " disk-stores=" + std::to_string(s.disk_stores) +
         " disk-rejects=" + std::to_string(s.disk_rejects) +
         " evictions=" + std::to_string(s.evictions);
}

std::string TraceCache::stats_json() const {
  const CacheStats s = stats();
  return std::string("{\"trace_cache\": {") +
         "\"memo_hits\": " + std::to_string(s.memo_hits) +
         ", \"disk_hits\": " + std::to_string(s.disk_hits) +
         ", \"misses\": " + std::to_string(s.misses) +
         ", \"disk_stores\": " + std::to_string(s.disk_stores) +
         ", \"disk_rejects\": " + std::to_string(s.disk_rejects) +
         ", \"evictions\": " + std::to_string(s.evictions) + "}}";
}

}  // namespace st2::tracecache

// Device memory model: a flat byte-addressable global memory for functional
// execution, plus set-associative L1/L2 cache models used by the timing
// simulator for latency and energy accounting. Functional data always comes
// from the flat memory — the caches carry tags only, so they can never
// corrupt results, only mis-time them.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/common/contracts.hpp"

namespace st2::sim {

/// True when the `size` bytes at `addr` lie inside a buffer of `n` bytes.
/// Written without a sum, which would wrap: `addr + size <= n` accepts
/// addr = 2^64 - 4, size = 8.
constexpr bool in_bounds(std::uint64_t addr, std::uint64_t size,
                         std::uint64_t n) {
  return size <= n && addr <= n - size;
}

class GlobalMemory {
 public:
  explicit GlobalMemory(std::size_t bytes = 0) : data_(bytes, 0) {}

  /// Allocates `bytes` (8-byte aligned) and returns the device address.
  std::uint64_t alloc(std::size_t bytes);

  std::size_t size() const { return data_.size(); }

  /// Whole device memory, read-only — the self-check mode diffs two runs'
  /// architectural state byte-for-byte through this view.
  std::span<const std::uint8_t> bytes() const { return data_; }

  /// Replaces the whole device image with a previously captured one (the
  /// trace cache's warm-hit path: a launch's architectural side effects are
  /// applied by restoring the post-launch image instead of re-executing).
  /// The image must be for this exact memory layout — same byte count.
  void restore_bytes(std::span<const std::uint8_t> image) {
    ST2_EXPECTS(image.size() == data_.size());
    std::memcpy(data_.data(), image.data(), image.size());
  }

  /// A 1-, 4- or 8-byte access, zero-extended. The functional step resolves
  /// the width once per instruction and uses read_one / write_one instead.
  std::uint64_t load(std::uint64_t addr, int size) const {
    ST2_EXPECTS(size == 1 || size == 4 || size == 8);
    ST2_EXPECTS(in_bounds(addr, static_cast<std::uint64_t>(size), data_.size()));
    std::uint64_t v = 0;
    std::memcpy(&v, data_.data() + addr, static_cast<std::size_t>(size));
    return v;
  }
  void store(std::uint64_t addr, std::uint64_t value, int size) {
    ST2_EXPECTS(size == 1 || size == 4 || size == 8);
    ST2_EXPECTS(in_bounds(addr, static_cast<std::uint64_t>(size), data_.size()));
    std::memcpy(data_.data() + addr, &value, static_cast<std::size_t>(size));
  }

  // Typed accessors for workload setup/validation; read_one and write_one
  // are also the functional step's per-lane loads and stores, inline.
  template <typename T>
  void write(std::uint64_t addr, std::span<const T> values) {
    ST2_EXPECTS(in_bounds(addr, values.size_bytes(), data_.size()));
    std::memcpy(data_.data() + addr, values.data(), values.size_bytes());
  }
  template <typename T>
  void read(std::uint64_t addr, std::span<T> out) const {
    ST2_EXPECTS(in_bounds(addr, out.size_bytes(), data_.size()));
    std::memcpy(out.data(), data_.data() + addr, out.size_bytes());
  }
  template <typename T>
  T read_one(std::uint64_t addr) const {
    T v;
    ST2_EXPECTS(in_bounds(addr, sizeof(T), data_.size()));
    std::memcpy(&v, data_.data() + addr, sizeof(T));
    return v;
  }
  template <typename T>
  void write_one(std::uint64_t addr, T v) {
    ST2_EXPECTS(in_bounds(addr, sizeof(T), data_.size()));
    std::memcpy(data_.data() + addr, &v, sizeof(T));
  }

 private:
  std::vector<std::uint8_t> data_;
};

/// Tag-only set-associative cache with LRU replacement. Tracks hits/misses;
/// writes are modeled write-through no-allocate (typical for GPU L1 global
/// stores).
class Cache {
 public:
  Cache(int size_kb, int ways, int line_bytes);

  /// Looks up `addr`; on a read miss the line is allocated. Returns hit.
  bool access(std::uint64_t addr, bool is_write);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t accesses() const { return hits_ + misses_; }

 private:
  struct Line {
    std::uint64_t tag = ~std::uint64_t{0};
    std::uint64_t lru = 0;
  };

  /// Allocates the full tag array (all lines invalid). See the constructor
  /// for why this is deferred to first use.
  void materialize();

  int ways_;
  int line_bytes_;
  int num_sets_;
  std::vector<Line> lines_;  // sets * ways
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace st2::sim

#include "src/sim/memory.hpp"

#include <bit>

namespace st2::sim {

std::uint64_t GlobalMemory::alloc(std::size_t bytes) {
  const std::size_t addr = (data_.size() + 7) & ~std::size_t{7};
  data_.resize(addr + ((bytes + 7) & ~std::size_t{7}), 0);
  // Address 0 is reserved so null-pointer bugs in kernels trap in tests.
  if (addr == 0) {
    data_.resize(64, 0);
    return alloc(bytes);
  }
  return addr;
}

Cache::Cache(int size_kb, int ways, int line_bytes)
    : ways_(ways), line_bytes_(line_bytes) {
  const int total_lines = size_kb * 1024 / line_bytes;
  num_sets_ = total_lines / ways;
  ST2_EXPECTS(num_sets_ >= 1 && std::has_single_bit(unsigned(num_sets_)));
  // The tag array materializes on first access: every SM owns a private L2
  // tag array (~512 KB of lines), and zeroing one per SM per launch costs
  // more than the small workloads' entire replay when most SMs never touch
  // memory. An unallocated array behaves exactly like an all-invalid one.
}

void Cache::materialize() {
  lines_.resize(static_cast<std::size_t>(num_sets_) * ways_);
}

bool Cache::access(std::uint64_t addr, bool is_write) {
  if (lines_.empty()) [[unlikely]] materialize();
  ++tick_;
  const std::uint64_t line_addr = addr / static_cast<unsigned>(line_bytes_);
  const auto set = static_cast<std::size_t>(line_addr &
                                            unsigned(num_sets_ - 1));
  const std::uint64_t tag = line_addr >> std::countr_zero(unsigned(num_sets_));
  Line* base = &lines_[set * static_cast<std::size_t>(ways_)];
  for (int w = 0; w < ways_; ++w) {
    if (base[w].tag == tag) {
      base[w].lru = tick_;
      ++hits_;
      return true;
    }
  }
  ++misses_;
  if (!is_write) {  // write-through no-allocate
    Line* victim = base;
    for (int w = 1; w < ways_; ++w) {
      if (base[w].lru < victim->lru) victim = &base[w];
    }
    victim->tag = tag;
    victim->lru = tick_;
  }
  return false;
}

}  // namespace st2::sim

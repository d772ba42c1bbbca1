#include <gtest/gtest.h>

#include "src/isa/builder.hpp"
#include "src/sim/memory.hpp"
#include "src/sim/trace_run.hpp"

namespace st2::sim {
namespace {

TEST(GlobalMemoryTest, AllocReservesNullPage) {
  GlobalMemory m;
  const std::uint64_t a = m.alloc(16);
  EXPECT_GE(a, 64u);  // address 0 is a trap page
}

TEST(GlobalMemoryTest, LoadStoreWidths) {
  GlobalMemory m;
  const std::uint64_t a = m.alloc(64);
  m.store(a, 0x1122334455667788ull, 8);
  EXPECT_EQ(m.load(a, 8), 0x1122334455667788ull);
  EXPECT_EQ(m.load(a, 4), 0x55667788ull);  // little-endian low word
  EXPECT_EQ(m.load(a, 1), 0x88ull);
  m.store(a + 4, 0xAB, 1);
  EXPECT_EQ(m.load(a + 4, 1), 0xABull);
}

TEST(GlobalMemoryTest, TypedHostAccessors) {
  GlobalMemory m;
  const std::uint64_t a = m.alloc(8 * sizeof(float));
  const std::vector<float> xs{1.5f, -2.0f, 3.25f};
  m.write<float>(a, xs);
  std::vector<float> got(3);
  m.read<float>(a, got);
  EXPECT_EQ(got, xs);
  m.write_one<float>(a + 4, 7.0f);
  EXPECT_EQ(m.read_one<float>(a + 4), 7.0f);
}

// A bounds check written `addr + size <= n` wraps for addresses near 2^64
// and would let such an access through to host memory outside the array.
TEST(GlobalMemoryDeathTest, LoadNearTheTopOfTheAddressSpaceAborts) {
  GlobalMemory m(64);
  EXPECT_DEATH((void)m.load(~0ull - 3, 8), "Precondition");
  EXPECT_DEATH((void)m.read_one<std::uint64_t>(~0ull - 3), "Precondition");
  EXPECT_DEATH(m.write_one<std::uint32_t>(~0ull - 1, 7), "Precondition");
}

TEST(GlobalMemoryDeathTest, SharedStoreAtANegativeAddressAborts) {
  isa::KernelBuilder kb("neg");
  kb.alloc_shared(64);
  kb.st_shared(kb.imm(-8), kb.imm(1), 0, 8);
  kb.exit();
  const isa::Kernel k = kb.build();
  GlobalMemory mem;
  LaunchConfig lc;
  lc.block_x = 1;
  EXPECT_DEATH(trace_run(k, lc, mem), "Invariant");
}

TEST(GlobalMemoryTest, AccessEndingAtTheLastByteIsInBounds) {
  GlobalMemory m(64);
  m.store(56, 0x0102030405060708ull, 8);
  EXPECT_EQ(m.load(56, 8), 0x0102030405060708ull);
  EXPECT_EQ(m.read_one<std::uint32_t>(60), 0x01020304u);
  EXPECT_TRUE(in_bounds(60, 4, 64));
  EXPECT_FALSE(in_bounds(61, 4, 64));
  EXPECT_FALSE(in_bounds(~0ull - 3, 8, 64));
  EXPECT_FALSE(in_bounds(0, 65, 64));
}

TEST(CacheTest, ColdMissThenHit) {
  Cache c(32, 4, 128);
  EXPECT_FALSE(c.access(0x1000, false));
  EXPECT_TRUE(c.access(0x1000, false));
  EXPECT_TRUE(c.access(0x107F, false));   // same 128B line
  EXPECT_FALSE(c.access(0x1080, false));  // next line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 2u);
}

TEST(CacheTest, LruEvictsOldest) {
  // 1 set when size = ways * line: 4 ways of 128B = 512B cache.
  Cache c(1, 8, 128);  // 1KB, 8 ways -> 1 set
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(c.access(static_cast<std::uint64_t>(i) * 128, false));
  }
  // Touch line 0 so line 1 is the LRU victim.
  EXPECT_TRUE(c.access(0, false));
  EXPECT_FALSE(c.access(8 * 128, false));  // fills, evicting line 1
  EXPECT_TRUE(c.access(0, false));         // line 0 retained
  EXPECT_FALSE(c.access(1 * 128, false));  // line 1 was evicted
}

TEST(CacheTest, WritesDoNotAllocate) {
  Cache c(32, 4, 128);
  EXPECT_FALSE(c.access(0x2000, true));   // write miss
  EXPECT_FALSE(c.access(0x2000, false));  // still not resident
  EXPECT_TRUE(c.access(0x2000, false));   // read allocated it
  EXPECT_TRUE(c.access(0x2000, true));    // write hit on resident line
}

TEST(CacheTest, SetsIsolateConflicts) {
  Cache c(32, 4, 128);  // 64 sets
  // Two addresses in different sets never evict each other.
  for (int i = 0; i < 100; ++i) {
    c.access(0x0, false);
    c.access(128, false);  // set 1
  }
  EXPECT_EQ(c.misses(), 2u);
}

}  // namespace
}  // namespace st2::sim

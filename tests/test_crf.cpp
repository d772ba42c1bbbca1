#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "src/spec/crf.hpp"

namespace st2::spec {
namespace {

/// Commits one cycle of write-backs, in the order given.
void commit(CarryRegisterFile& crf, std::initializer_list<CarryWrite> writes) {
  crf.commit({writes.begin(), writes.size()});
}

TEST(Crf, GeometryMatchesPaper) {
  EXPECT_EQ(CarryRegisterFile::kRows, 16);
  EXPECT_EQ(CarryRegisterFile::kLanes, 32);
  EXPECT_EQ(CarryRegisterFile::kBitsPerLane, 7);
  EXPECT_EQ(CarryRegisterFile::kRowBits, 224);
  EXPECT_EQ(CarryRegisterFile::kTotalBytes, 448);  // paper: 448 B per SM
}

TEST(Crf, WriteThenReadRoundTrip) {
  CarryRegisterFile crf;
  commit(crf, {{/*pc=*/5, /*lane=*/3, 0x55}});
  const auto row = crf.read_row(5);
  EXPECT_EQ(row[3], 0x55);
  EXPECT_EQ(row[4], 0);
}

TEST(Crf, RowIndexIsPcModSixteen) {
  CarryRegisterFile crf;
  commit(crf, {{0x10, 0, 0x11}});  // PC 16 -> row 0
  EXPECT_EQ(crf.read_row(0x00)[0], 0x11);
  EXPECT_EQ(crf.read_row(0x20)[0], 0x11);  // PC 32 aliases too
  EXPECT_EQ(crf.read_row(0x01)[0], 0);     // row 1 untouched
}

TEST(Crf, UncommittedWritesAreInvisible) {
  CarryRegisterFile crf;
  const CarryWrite w{1, 1, 0x7f};
  EXPECT_EQ(crf.read_row(1)[1], 0);
  crf.commit({&w, 1});
  EXPECT_EQ(crf.read_row(1)[1], 0x7f);
}

TEST(Crf, ConflictingWritersPickExactlyOne) {
  CarryRegisterFile crf(/*seed=*/7);
  commit(crf, {{2, 5, 0x01}, {2, 5, 0x02}, {2, 5, 0x03}});
  const std::uint8_t v = crf.read_row(2)[5];
  EXPECT_TRUE(v == 0x01 || v == 0x02 || v == 0x03);
  EXPECT_EQ(crf.lane_writes(), 1u);
  EXPECT_EQ(crf.write_conflicts(), 2u);
}

TEST(Crf, DistinctTargetsDoNotConflict) {
  CarryRegisterFile crf;
  commit(crf, {{2, 5, 0x01},    //
               {2, 6, 0x02},    // different lane
               {3, 5, 0x03}});  // different row
  EXPECT_EQ(crf.read_row(2)[5], 0x01);
  EXPECT_EQ(crf.read_row(2)[6], 0x02);
  EXPECT_EQ(crf.read_row(3)[5], 0x03);
  EXPECT_EQ(crf.write_conflicts(), 0u);
}

TEST(Crf, ArbitrationIsSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    CarryRegisterFile crf(seed);
    std::vector<CarryWrite> writes;
    for (int i = 0; i < 64; ++i) {
      writes.push_back(CarryWrite{4, 9, static_cast<std::uint8_t>(i & 0x7f)});
    }
    crf.commit(writes);
    return crf.read_row(4)[9];
  };
  EXPECT_EQ(run(123), run(123));
}

}  // namespace
}  // namespace st2::spec

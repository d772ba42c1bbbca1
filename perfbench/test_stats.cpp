// Tests of the benchmark's own statistics code (stats.hpp). Expected values
// are worked by hand; the quartile cases match Python's
// statistics.quantiles(v, n=4).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "perfbench/stats.hpp"

namespace perfbench {
namespace {

TEST(Median, OddCountTakesTheMiddleOfTheSortedSamples) {
  EXPECT_DOUBLE_EQ(median({9, 1, 5}), 5);
  EXPECT_DOUBLE_EQ(median({7}), 7);
}

TEST(Median, EvenCountAveragesTheTwoMiddleSamples) {
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Median, NoSamplesThrows) {
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Quartiles, MatchPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  const Quartiles r = quartiles({16, 1, 8, 2, 4});
  EXPECT_DOUBLE_EQ(r.q1, 1.5);
  EXPECT_DOUBLE_EQ(r.q2, 4.0);
  EXPECT_DOUBLE_EQ(r.q3, 12.0);
}

TEST(Quartiles, TwoSamplesExtrapolateLikePython) {
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the position is
  // clamped to the range before the interpolation weight is taken.
  const Quartiles q = quartiles({2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.q2, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);
}

TEST(Quartiles, OneSampleIsEveryQuartile) {
  const Quartiles q = quartiles({3});
  EXPECT_DOUBLE_EQ(q.q1, 3);
  EXPECT_DOUBLE_EQ(q.q3, 3);
}

TEST(SumOfBests, TakesEachOperationsMinimumAcrossRuns) {
  // Operation 0 is best in run 1, operation 1 in run 0, operation 2 in
  // run 2; no single run is best overall.
  EXPECT_DOUBLE_EQ(sum_of_bests({{5, 1, 9}, {2, 4, 9}, {6, 7, 3}}), 2 + 1 + 3);
  EXPECT_DOUBLE_EQ(sum_of_bests({{4, 8}}), 12);
  EXPECT_THROW(sum_of_bests({}), std::invalid_argument);
}

TEST(SelfTimes, SubtractOnlyDirectChildren) {
  // root [0,100) > a [10,60) > b [20,30); root > c [70,90)
  const std::vector<Span> spans = {
      {"root", 0, 100, -1, 0},
      {"a", 10, 60, 0, 0},
      {"b", 20, 30, 1, 0},
      {"c", 70, 90, 0, 0},
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 50 - 20);
  EXPECT_EQ(self[1], 50 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 20);
  // Self times partition the root: they add up to its duration.
  EXPECT_EQ(self[0] + self[1] + self[2] + self[3], 100);
  EXPECT_EQ(root_of(spans, 2), 0u);
  EXPECT_EQ(root_of(spans, 0), 0u);
}

TEST(Digest, MatchesFnv1aWithSeparator) {
  // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c; the separator byte 0xff
  // follows it.
  std::uint64_t expect = 0xaf63dc4c8601ec8cULL;
  expect ^= 0xffu;
  expect *= 0x100000001b3ULL;
  EXPECT_EQ(fnv1a(kFnvOffset, "a"), expect);
}

TEST(Digest, PartBoundariesAndOrderChangeTheDigest) {
  const std::uint64_t ab_c = fnv1a(fnv1a(kFnvOffset, "ab"), "c");
  const std::uint64_t a_bc = fnv1a(fnv1a(kFnvOffset, "a"), "bc");
  const std::uint64_t c_ab = fnv1a(fnv1a(kFnvOffset, "c"), "ab");
  EXPECT_NE(ab_c, a_bc);
  EXPECT_NE(ab_c, c_ab);
  EXPECT_EQ(ab_c, fnv1a(fnv1a(kFnvOffset, "ab"), "c"));
}

}  // namespace
}  // namespace perfbench

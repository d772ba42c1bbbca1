// Statistics and span bookkeeping for the benchmark driver: medians,
// quartiles, sums of per-operation bests, span self times and the result
// digest.
// Header-only and free of simulator dependencies so test_stats.cpp can pin
// each function on its own.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method), so the
/// spreads the driver prints match the ones an outside check computes.
inline Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("quartiles of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 1) return {v[0], v[0], v[0]};
  double q[3];
  const auto m = static_cast<std::int64_t>(n) + 1;
  for (std::int64_t i = 1; i <= 3; ++i) {
    // Position i*(n+1)/4 in 1-based order, clamped to the sample range;
    // `delta` is taken after the clamp, as Python does.
    const std::int64_t j =
        std::clamp<std::int64_t>(i * m / 4, 1, static_cast<std::int64_t>(n) - 1);
    const std::int64_t delta = i * m - j * 4;
    const auto ju = static_cast<std::size_t>(j);
    q[i - 1] = (v[ju - 1] * static_cast<double>(4 - delta) +
                v[ju] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

/// Sum over operations of each one's lowest value across runs, where
/// `runs[r][i]` is operation i's value in run r and every run lists the
/// same operations.
inline double sum_of_bests(const std::vector<std::vector<double>>& runs) {
  if (runs.empty()) throw std::invalid_argument("best of no runs");
  double sum = 0;
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    double best = runs[0][i];
    for (const std::vector<double>& r : runs) best = std::min(best, r.at(i));
    sum += best;
  }
  return sum;
}

/// One recorded span. `parent` indexes the enclosing span in the same
/// vector, or is -1 for a root.
struct Span {
  std::string_view name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int op = -1;  ///< operation (kernel or request) the span belongs to
};

/// Self time of every span: its duration minus the durations of its direct
/// children (grandchildren are already inside the children).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

/// Root span of span `i`.
inline std::size_t root_of(const std::vector<Span>& spans, std::size_t i) {
  while (spans[i].parent >= 0) i = static_cast<std::size_t>(spans[i].parent);
  return i;
}

/// FNV-1a 64 over `bytes`, continuing from `h`. Digests chain: each part is
/// followed by a 0xff separator byte so ("ab","c") and ("a","bc") differ.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  h ^= 0xffu;
  h *= 0x100000001b3ULL;
  return h;
}

}  // namespace perfbench

// Kernel launch geometry and arguments (the CUDA <<<grid, block>>> analog).
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/contracts.hpp"

namespace st2::sim {

inline constexpr int kWarpSize = 32;
/// Active mask of a warp whose every lane runs.
inline constexpr std::uint32_t kFullWarpMask = ~std::uint32_t{0};

struct LaunchConfig {
  int grid_x = 1;
  int grid_y = 1;
  int block_x = 1;
  int block_y = 1;
  std::vector<std::uint64_t> args;  ///< kernel parameters (ld.param)

  int threads_per_block() const { return block_x * block_y; }
  int num_blocks() const { return grid_x * grid_y; }
  int warps_per_block() const {
    return (threads_per_block() + kWarpSize - 1) / kWarpSize;
  }
  long long total_threads() const {
    return static_cast<long long>(threads_per_block()) * num_blocks();
  }

  void validate() const {
    ST2_EXPECTS(grid_x >= 1 && grid_y >= 1);
    ST2_EXPECTS(block_x >= 1 && block_y >= 1);
    ST2_EXPECTS(threads_per_block() <= 1024);
  }
};

/// 1D launch helper.
inline LaunchConfig launch_1d(long long total_threads, int block_size,
                              std::vector<std::uint64_t> args = {}) {
  LaunchConfig lc;
  lc.block_x = block_size;
  lc.grid_x = static_cast<int>((total_threads + block_size - 1) / block_size);
  lc.args = std::move(args);
  lc.validate();
  return lc;
}

}  // namespace st2::sim

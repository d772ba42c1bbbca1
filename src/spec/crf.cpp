#include "src/spec/crf.hpp"

#include <cstring>

#include "src/common/contracts.hpp"

namespace st2::spec {

void CarryRegisterFile::flip_bit(std::uint64_t pc, int lane, int bit) {
  ST2_EXPECTS(lane >= 0 && lane < kLanes);
  ST2_EXPECTS(bit >= 0 && bit < kBitsPerLane);
  rows_[static_cast<std::size_t>(row_of(pc))][static_cast<std::size_t>(lane)] ^=
      static_cast<std::uint8_t>(1u << bit);
}

bool CarryRegisterFile::entries_valid() const {
  // An entry is legal iff its valid bit 7 is clear, so the whole file checks
  // with one MSB mask over the rows folded eight lanes at a time.
  static_assert(kLanes % 8 == 0);
  std::uint64_t msbs = 0;
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); i += 8) {
      std::uint64_t chunk;
      std::memcpy(&chunk, row.data() + i, sizeof(chunk));
      msbs |= chunk;
    }
  }
  return (msbs & 0x8080808080808080ULL) == 0;
}

}  // namespace st2::spec

// Beneš-network geometry for MRR-based optical switches (§3.2).
//
// An N-port Beneš network has 2*ceil(log2 N) - 1 stages of 2x2 crossing
// cells, N/2 cells per stage.  A circuit through the switch occupies one
// cell per stage, which is the `n` of the paper's Eq. (1).  Reference for
// the cell-count dependence on port count: Lee & Dupuis, JLT 2019 [10].
#pragma once

#include <cstdint>
#include <stdexcept>

namespace risa::phot {

/// ceil(log2(n)) for n >= 1.
[[nodiscard]] constexpr std::uint32_t ceil_log2(std::uint32_t n) {
  if (n == 0) throw std::invalid_argument("ceil_log2: zero");
  std::uint32_t bits = 0;
  std::uint32_t v = n - 1;
  while (v > 0) {
    v >>= 1;
    ++bits;
  }
  return bits == 0 ? 1 : bits;  // a 1-port "switch" still has one stage
}

/// Number of cell stages in an N-port Beneš network: 2*ceil(log2 N) - 1.
[[nodiscard]] constexpr std::uint32_t benes_stages(std::uint32_t ports) {
  if (ports < 2) throw std::invalid_argument("benes_stages: ports < 2");
  return 2 * ceil_log2(ports) - 1;
}

/// Cells occupied by one circuit through an N-port Beneš switch (one per
/// stage) -- the `n` of Eq. (1).
[[nodiscard]] constexpr std::uint32_t benes_path_cells(std::uint32_t ports) {
  return benes_stages(ports);
}

}  // namespace risa::phot

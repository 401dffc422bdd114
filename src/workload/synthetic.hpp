// The paper's synthetic random workload (§5.1):
//   * 2500 VMs;
//   * CPU ~ uniform{1..32} cores, RAM ~ uniform{1..32} GB, storage 128 GB;
//   * Poisson arrivals (mean gap 10 tu), lifetime 6300 + 360 * floor(i/100).
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "workload/arrival.hpp"
#include "workload/vm.hpp"

namespace risa::wl {

struct SyntheticConfig {
  std::size_t count = 2500;
  std::int64_t min_cores = 1;
  std::int64_t max_cores = 32;
  double min_ram_gb = 1.0;
  double max_ram_gb = 32.0;
  double storage_gb = 128.0;
  ArrivalModel arrivals{};

  void validate() const {
    if (count == 0) throw std::invalid_argument("SyntheticConfig: zero VMs");
    // VM indices travel as 32 bits, and the engine reserves 0xFFFFFFFF.
    if (count > 0xFFFFFFFFULL) {
      throw std::invalid_argument("SyntheticConfig: more than 2^32 - 1 VMs");
    }
    if (min_cores < 1 || max_cores < min_cores) {
      throw std::invalid_argument("SyntheticConfig: bad core range");
    }
    if (min_ram_gb <= 0 || max_ram_gb < min_ram_gb) {
      throw std::invalid_argument("SyntheticConfig: bad RAM range");
    }
    if (storage_gb <= 0) {
      throw std::invalid_argument("SyntheticConfig: bad storage size");
    }
    arrivals.validate();
  }
};

/// Generate the workload deterministically from `seed`.
[[nodiscard]] Workload generate_synthetic(const SyntheticConfig& config,
                                          std::uint64_t seed);

}  // namespace risa::wl

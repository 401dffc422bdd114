// The paper's arrival/lifetime process (§5.1):
//
//   * arrivals follow a Poisson process with mean inter-arrival 10 tu;
//   * "the VM life cycle begins at 6300 time units, with an increment of
//     360 time units for each set of 100 requests":
//     lifetime(i) = 6300 + 360 * floor(i / 100).
//
// The same process is applied to the Azure-like subsets (the paper does not
// specify a separate one; documented in DESIGN.md §2.2).
#pragma once

#include <cstddef>
#include <stdexcept>

#include "common/units.hpp"

namespace risa::wl {

struct ArrivalModel {
  double mean_interarrival_tu = 10.0;
  double base_lifetime_tu = 6300.0;
  double lifetime_increment_tu = 360.0;
  std::size_t increment_every = 100;

  void validate() const {
    if (mean_interarrival_tu <= 0) {
      throw std::invalid_argument("ArrivalModel: non-positive interarrival");
    }
    if (base_lifetime_tu <= 0 || lifetime_increment_tu < 0) {
      throw std::invalid_argument("ArrivalModel: bad lifetime parameters");
    }
    if (increment_every == 0) {
      throw std::invalid_argument("ArrivalModel: increment_every == 0");
    }
  }

  /// Deterministic lifetime of the i-th request (0-based).
  [[nodiscard]] SimTime lifetime(std::size_t index) const {
    return base_lifetime_tu +
           lifetime_increment_tu *
               static_cast<double>(index / increment_every);
  }
};

}  // namespace risa::wl

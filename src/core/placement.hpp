// Placement record: everything needed to account for and later release one
// scheduled VM (compute slices in three boxes + two network circuits).
#pragma once

#include <array>
#include <cstdint>

#include "common/types.hpp"
#include "common/units.hpp"
#include "network/bandwidth.hpp"
#include "topology/box.hpp"

namespace risa::core {

/// Why a VM was dropped (the paper's scheduling failure modes: compute
/// allocation failure or network allocation failure, §4.1).
enum class DropReason : std::uint8_t {
  NoComputeResources = 0,
  NoNetworkResources = 1,
};

/// Number of DropReason values (dense, so they can index tally arrays).
inline constexpr std::size_t kNumDropReasons = 2;

[[nodiscard]] constexpr std::string_view name(DropReason r) noexcept {
  switch (r) {
    case DropReason::NoComputeResources: return "no-compute";
    case DropReason::NoNetworkResources: return "no-network";
  }
  return "?";
}

struct Placement {
  VmId vm;
  std::array<RackId, kNumResourceTypes> racks;                 ///< by type
  std::array<topo::BoxAllocation, kNumResourceTypes> compute;  ///< by type
  net::BandwidthDemand demand;            ///< circuit bandwidths
  bool inter_rack = false;   ///< any resource pair spans racks
  bool used_fallback = false;///< RISA/RISA-BF: placed via SUPER_RACK + NULB

  [[nodiscard]] BoxId box(ResourceType t) const noexcept {
    return compute[index(t)].box;
  }
  [[nodiscard]] RackId rack(ResourceType t) const noexcept {
    return racks[index(t)];
  }
  /// Demand in allocation units: each type's allocation holds exactly it.
  [[nodiscard]] UnitVector units() const noexcept {
    return {compute[0].units, compute[1].units, compute[2].units};
  }
};

// Every live VM holds one Placement in its engine record (DESIGN.md §13);
// two inline brick slices per box keep it at 136 bytes on LP64.
static_assert(sizeof(Placement) <= 136);

}  // namespace risa::core

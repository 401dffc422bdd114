// Box search primitives shared by NULB and NALB (§4.1).
//
// NULB's compute phase is a first-fit scan in per-type box-id order for the
// most contended resource, then a BFS from the chosen box's rack for the
// remaining types: same-rack boxes first, then boxes of other racks in rack
// id order.  NALB runs the same BFS but "reorders neighbors ... in
// descending order of their available bandwidth" -- here, each tier picks
// the fitting candidate whose path has the most free channels, earliest
// candidate winning ties.
//
// Searches optionally restrict to a per-type rack set (SUPER_RACK): RISA's
// fallback path funnels through the same code with a filter installed.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "common/rack_set.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "network/fabric.hpp"
#include "network/routing.hpp"
#include "topology/cluster.hpp"

namespace risa::core {

/// Per-type rack filter over fixed-width bitmasks.  A disengaged filter
/// means "no restriction"; an engaged one restricts candidate boxes of type
/// t to the racks set in mask(t), making every eligibility check a single
/// bit test (the NULB fallback scans each candidate box once, so a linear
/// rack-list lookup here made the whole path O(boxes x racks)).
class RackFilter {
 public:
  /// No restriction.
  constexpr RackFilter() = default;

  /// Engaged filter from per-type rack lists (tests / cold paths).
  explicit RackFilter(const PerResource<std::vector<RackId>>& racks)
      : engaged_(true) {
    for (ResourceType t : kAllResources) {
      for (RackId r : racks[t]) masks_[t].set(r);
    }
  }

  /// Engaged filter from per-type masks (the SUPER_RACK hot path).
  explicit RackFilter(PerResource<RackSet> masks)
      : engaged_(true), masks_(std::move(masks)) {}

  [[nodiscard]] constexpr bool restricted() const noexcept { return engaged_; }
  [[nodiscard]] constexpr bool allows(ResourceType type, RackId rack) const noexcept {
    return !engaged_ || masks_[type].test(rack);
  }
  [[nodiscard]] const RackSet& mask(ResourceType type) const noexcept {
    return masks_[type];
  }
  [[nodiscard]] const PerResource<RackSet>& masks() const noexcept {
    return masks_;
  }

 private:
  bool engaged_ = false;
  PerResource<RackSet> masks_;
};

/// First box of `type` with at least `units` available, scanning cluster-
/// wide in per-type (rack-major) id order -- NULB's anchor search.
[[nodiscard]] BoxId first_fit_box(const topo::Cluster& cluster,
                                  ResourceType type, Units units,
                                  const RackFilter& filter);

/// Candidate ordering of the BFS second phase.
enum class NeighborOrder : std::uint8_t {
  BoxIdOrder = 0,        ///< NULB: rack-major box-id order
  /// NALB: the candidate whose path has the most free channels; ties go
  /// to the earliest in BoxIdOrder.
  BandwidthDescending = 1,
};

/// How the companion (non-anchor) resources are searched.
///
/// Algorithm 2's prose says "first looks for other requested resources ...
/// in the same rack", but the paper's own measured results (Figures 7/10:
/// up to 52% inter-rack assignments on the Azure subsets) are only
/// reproducible when the companion search scans boxes in global id order
/// without anchoring to the scarce resource's rack -- which is also what
/// §4.1's critique of NULB/NALB describes.  Both readings are implemented;
/// GlobalOrder is the default because it reproduces the published numbers.
/// See DESIGN.md §2 and the search-interpretation ablation bench.
enum class CompanionSearch : std::uint8_t {
  GlobalOrder = 0,      ///< first fit over all boxes in id order (default)
  AnchorRackFirst = 1,  ///< literal Algorithm 2: anchor rack, then the rest
};

/// What a BandwidthDescending bfs_search did, summed over the calls it is
/// passed to (the exactness test and instrumented runs read it; the
/// placement path passes none, and BoxIdOrder searches leave it alone).
struct SearchTally {
  std::uint64_t racks = 0;  ///< racks whose boxes were ranked
};

/// BFS search for `type`: candidates ordered per `companion` tiering and
/// `order` within each tier.  Returns the first candidate with `units`
/// available, or an invalid id.  Allocation-free.
[[nodiscard]] BoxId bfs_search(const topo::Cluster& cluster,
                               const net::Fabric& fabric, RackId anchor_rack,
                               ResourceType type, Units units,
                               NeighborOrder order, CompanionSearch companion,
                               const RackFilter& filter,
                               SearchTally* tally = nullptr);

}  // namespace risa::core

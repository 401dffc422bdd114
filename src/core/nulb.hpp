// NULB: the Network-Unaware Locality-Based baseline of Zervas et al. [20]
// (Algorithm 2).
//
// Compute phase: compute per-type contention ratios (CR); first-fit the most
// contended type in box-id order; BFS the remaining types (same rack first,
// then other racks).  Network phase: first available link per hop.
//
// The box-finding core is exposed standalone because RISA resorts to NULB
// restricted to the SUPER_RACK when its intra-rack pool cannot host a VM
// (Algorithm 1).
#pragma once

#include "core/allocator.hpp"
#include "core/search.hpp"

namespace risa::core {

/// NULB's compute-phase search: CR -> anchor first-fit -> BFS for the rest.
/// `order` selects NULB (BoxIdOrder) or NALB (BandwidthDescending) neighbor
/// ordering; `companion` selects the search-interpretation (see
/// CompanionSearch); `filter` optionally restricts racks per type
/// (SUPER_RACK).
[[nodiscard]] Result<PerResource<BoxId>, DropReason> nulb_find_boxes(
    const topo::Cluster& cluster, const net::Fabric& fabric,
    const UnitVector& units, NeighborOrder order, CompanionSearch companion,
    const RackFilter& filter);

class NulbAllocator : public Allocator {
 public:
  explicit NulbAllocator(AllocContext ctx,
                         CompanionSearch companion = CompanionSearch::GlobalOrder)
      : Allocator(ctx), companion_(companion) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "NULB"; }

  [[nodiscard]] std::optional<DropReason> place(const wl::VmRequest& vm,
                                                Placement& out) override;

 private:
  CompanionSearch companion_;
};

}  // namespace risa::core

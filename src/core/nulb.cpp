#include "core/nulb.hpp"

#include "core/contention.hpp"

namespace risa::core {

Result<PerResource<BoxId>, DropReason> nulb_find_boxes(
    const topo::Cluster& cluster, const net::Fabric& fabric,
    const UnitVector& units, NeighborOrder order, CompanionSearch companion,
    const RackFilter& filter) {
  // CR over the search scope's availability.
  const PerResource<Units> avail =
      filter.restricted() ? restricted_availability(cluster, filter.masks())
                          : cluster_availability(cluster);
  const ResourceType res_max = most_contended(contention_ratios(units, avail));

  // Anchor: first box able to host the most contended demand.
  const BoxId anchor = first_fit_box(cluster, res_max, units[res_max], filter);
  if (!anchor.valid()) {
    return Err{DropReason::NoComputeResources};
  }
  const RackId anchor_rack = cluster.box_unchecked(anchor).rack();

  PerResource<BoxId> boxes{BoxId::invalid(), BoxId::invalid(), BoxId::invalid()};
  boxes[res_max] = anchor;
  for (ResourceType t : kAllResources) {
    if (t == res_max) continue;
    const BoxId found = bfs_search(cluster, fabric, anchor_rack, t, units[t],
                                   order, companion, filter);
    if (!found.valid()) {
      return Err{DropReason::NoComputeResources};
    }
    boxes[t] = found;
  }
  return boxes;
}

std::optional<DropReason> NulbAllocator::place(const wl::VmRequest& vm,
                                              Placement& out) {
  const UnitVector units = demand_units(vm);
  auto boxes = nulb_find_boxes(*ctx().cluster, *ctx().fabric, units,
                               NeighborOrder::BoxIdOrder, companion_,
                               RackFilter{});
  if (!boxes.ok()) return boxes.error();
  return commit(vm, units, boxes.value(), net::LinkSelectPolicy::FirstFit,
                /*used_fallback=*/false, out);
}

}  // namespace risa::core

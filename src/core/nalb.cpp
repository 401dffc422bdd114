#include "core/nalb.hpp"

#include "core/nulb.hpp"

namespace risa::core {

std::optional<DropReason> NalbAllocator::place(const wl::VmRequest& vm,
                                              Placement& out) {
  const UnitVector units = demand_units(vm);
  auto boxes = nulb_find_boxes(*ctx().cluster, *ctx().fabric, units,
                               NeighborOrder::BandwidthDescending, companion_,
                               RackFilter{});
  if (!boxes.ok()) return boxes.error();
  return commit(vm, units, boxes.value(), net::LinkSelectPolicy::MostAvailable,
                /*used_fallback=*/false, out);
}

}  // namespace risa::core

#include "core/nalb.hpp"

#include "core/nulb.hpp"

namespace risa::core {

Result<Placement, DropReason> NalbAllocator::try_place(const wl::VmRequest& vm) {
  const UnitVector units = demand_units(vm);
  auto boxes = nulb_find_boxes(*ctx().cluster, *ctx().fabric, units,
                               NeighborOrder::BandwidthDescending, companion_,
                               std::nullopt);
  if (!boxes.ok()) {
    return Err{boxes.error()};
  }
  return commit(vm, units, boxes.value(), net::LinkSelectPolicy::MostAvailable,
                /*used_fallback=*/false);
}

}  // namespace risa::core

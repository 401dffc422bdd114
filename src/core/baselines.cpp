#include "core/baselines.hpp"

#include <vector>

#include "common/binio.hpp"

namespace risa::core {

namespace {

/// Boxes of `type` able to host `units`, in id order.
[[nodiscard]] std::vector<BoxId> feasible_boxes(const topo::Cluster& cluster,
                                                ResourceType type,
                                                Units units) {
  std::vector<BoxId> out;
  for (BoxId id : cluster.boxes_of_type(type)) {
    if (cluster.box(id).available_units() >= units) out.push_back(id);
  }
  return out;
}

}  // namespace

std::optional<DropReason> RandomAllocator::place(const wl::VmRequest& vm,
                                                 Placement& out) {
  const UnitVector units = demand_units(vm);
  PerResource<BoxId> boxes{BoxId::invalid(), BoxId::invalid(), BoxId::invalid()};
  for (ResourceType t : kAllResources) {
    const auto feasible = feasible_boxes(*ctx().cluster, t, units[t]);
    if (feasible.empty()) {
      return DropReason::NoComputeResources;
    }
    boxes[t] = feasible[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(feasible.size()) - 1))];
  }
  return commit(vm, units, boxes, net::LinkSelectPolicy::FirstFit,
                /*used_fallback=*/false, out);
}

void RandomAllocator::save_state(std::ostream& os) const {
  for (std::uint64_t word : rng_.generator().state()) bin::put_u64(os, word);
}

void RandomAllocator::restore_state(std::istream& is) {
  Xoshiro256::State s;
  for (auto& word : s) word = bin::get_u64(is);
  rng_.generator().set_state(s);
}

std::optional<DropReason> FirstFitAllocator::place(const wl::VmRequest& vm,
                                                   Placement& out) {
  const UnitVector units = demand_units(vm);
  PerResource<BoxId> boxes{BoxId::invalid(), BoxId::invalid(), BoxId::invalid()};
  for (ResourceType t : kAllResources) {
    BoxId found = BoxId::invalid();
    for (BoxId id : ctx().cluster->boxes_of_type(t)) {
      if (ctx().cluster->box(id).available_units() >= units[t]) {
        found = id;
        break;
      }
    }
    if (!found.valid()) {
      return DropReason::NoComputeResources;
    }
    boxes[t] = found;
  }
  return commit(vm, units, boxes, net::LinkSelectPolicy::FirstFit,
                /*used_fallback=*/false, out);
}

std::optional<DropReason> WorstFitAllocator::place(const wl::VmRequest& vm,
                                                   Placement& out) {
  const UnitVector units = demand_units(vm);
  PerResource<BoxId> boxes{BoxId::invalid(), BoxId::invalid(), BoxId::invalid()};
  for (ResourceType t : kAllResources) {
    BoxId best = BoxId::invalid();
    Units best_avail = -1;
    for (BoxId id : ctx().cluster->boxes_of_type(t)) {
      const Units avail = ctx().cluster->box(id).available_units();
      if (avail >= units[t] && avail > best_avail) {
        best = id;
        best_avail = avail;
      }
    }
    if (!best.valid()) {
      return DropReason::NoComputeResources;
    }
    boxes[t] = best;
  }
  return commit(vm, units, boxes, net::LinkSelectPolicy::FirstFit,
                /*used_fallback=*/false, out);
}

}  // namespace risa::core

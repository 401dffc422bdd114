#include "network/routing.hpp"

namespace risa::net {

LinkId Router::select_link(std::span<const LinkId> group, MbitsPerSec bw,
                           LinkSelectPolicy policy) const noexcept {
  if (group.empty()) return LinkId::invalid();
  switch (policy) {
    case LinkSelectPolicy::FirstFit: return fabric_->first_fit(group, bw);
    case LinkSelectPolicy::MostAvailable:
      return select_cached(fabric_->most_available(group), bw);
  }
  return LinkId::invalid();
}

LinkId Router::select_cached(LinkId most_available,
                             MbitsPerSec bw) const noexcept {
  return fabric_->available_unchecked(most_available) >= bw
             ? most_available
             : LinkId::invalid();
}

bool Router::find_path(BoxId src, RackId src_rack, BoxId dst, RackId dst_rack,
                       MbitsPerSec bw, LinkSelectPolicy policy,
                       CircuitPath& out) const {
  if (src == dst) return false;

  // MostAvailable reads each box/rack group's maintained best link -- the
  // same link select_link would find by scanning the group.
  const bool cached = policy == LinkSelectPolicy::MostAvailable;
  auto box_hop = [&](BoxId box) {
    return cached ? select_cached(fabric_->best_box_uplink(box), bw)
                  : select_link(fabric_->box_uplinks(box), bw, policy);
  };
  auto rack_hop = [&](RackId rack) {
    return cached ? select_cached(fabric_->best_rack_uplink(rack), bw)
                  : select_link(fabric_->rack_uplinks(rack), bw, policy);
  };

  // The path is built on the stack and copied out once every hop is
  // found, so a refusal leaves `out` as it was.
  const LinkId src_up = box_hop(src);
  if (!src_up.valid()) return false;
  const LinkId dst_up = box_hop(dst);
  if (!dst_up.valid()) return false;

  CircuitPath path;
  path.inter_rack = src_rack != dst_rack;
  path.push_link(src_up);

  if (path.inter_rack) {
    const LinkId up_a = rack_hop(src_rack);
    if (!up_a.valid()) return false;
    const LinkId up_b = rack_hop(dst_rack);
    if (!up_b.valid()) return false;
    path.push_link(up_a);

    // Two-tier (the paper's topology): rack -> core -> rack, and
    // three-tier within a pod: rack -> pod -> rack.  Across pods the route
    // climbs to the core: rack -> pod -> core -> pod -> rack.
    if (fabric_->num_pods() > 0 && !fabric_->same_pod(src_rack, dst_rack)) {
      const std::uint32_t pod_a = fabric_->pod_of_rack(src_rack);
      const std::uint32_t pod_b = fabric_->pod_of_rack(dst_rack);
      const LinkId pod_up_a =
          select_link(fabric_->pod_uplinks(pod_a), bw, policy);
      if (!pod_up_a.valid()) return false;
      const LinkId pod_up_b =
          select_link(fabric_->pod_uplinks(pod_b), bw, policy);
      if (!pod_up_b.valid()) return false;
      path.push_link(pod_up_a);
      path.push_link(pod_up_b);
    }

    path.push_link(up_b);
  }

  path.push_link(dst_up);
  out = path;
  return true;
}

bool Router::reserve(const CircuitPath& path, MbitsPerSec bw) {
  const std::span<const LinkId> links = path.links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (!fabric_->allocate(links[i], bw)) {
      // Roll back the hops reserved so far; the fabric must be unchanged
      // after a failed reservation.
      for (std::size_t j = 0; j < i; ++j) {
        fabric_->release(links[j], bw);
      }
      return false;
    }
  }
  return true;
}

void Router::release(const CircuitPath& path, MbitsPerSec bw) {
  for (LinkId id : path.links()) {
    fabric_->release(id, bw);
  }
}

}  // namespace risa::net

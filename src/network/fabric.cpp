#include "network/fabric.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/simd.hpp"

namespace risa::net {

Fabric::Fabric(const topo::ClusterConfig& cluster, FabricConfig config)
    : config_(config) {
  config_.validate();
  cluster.validate();
  channel_divisor_ = Divisor(static_cast<std::uint64_t>(config_.channel_rate));

  const std::uint32_t racks = cluster.racks;
  const std::uint32_t boxes_per_rack = cluster.total_boxes_per_rack();
  const std::uint32_t total_boxes = cluster.total_boxes();
  const std::uint32_t pods =
      config_.racks_per_pod > 0
          ? (racks + config_.racks_per_pod - 1) / config_.racks_per_pod
          : 0;

  // Every table's final size follows from the shape, so each one is
  // allocated once and each entry written once: no growth, no re-copy.
  const std::uint64_t box_links =
      std::uint64_t{total_boxes} * config_.links_per_box;
  const std::uint64_t inter_links =
      std::uint64_t{racks} * config_.links_per_rack +
      std::uint64_t{pods} * config_.links_per_pod;
  const std::uint64_t num_links = box_links + inter_links;
  if (num_links >= LinkId::kInvalid) {
    throw std::invalid_argument("Fabric: link count exceeds the u32 id space");
  }
  switches_.reserve(std::size_t{racks} * (1 + boxes_per_rack) + pods + 1);
  links_.reserve(num_links);
  link_ids_.reserve(num_links);
  free_.assign(num_links, config_.link_capacity);
  box_switches_.reserve(total_boxes);
  box_first_.reserve(total_boxes);
  box_best_.reserve(total_boxes);
  rack_switches_.reserve(racks);
  rack_first_.reserve(racks);
  rack_best_.reserve(racks);
  pod_switches_.reserve(pods);
  pod_first_.reserve(pods);

  auto add_switch = [&](SwitchKind kind, std::uint32_t ports, RackId rack,
                        BoxId box) {
    const SwitchId id{static_cast<std::uint32_t>(switches_.size())};
    switches_.push_back(SwitchNode{id, kind, ports, rack, box});
    return id;
  };
  // `n` parallel idle links from `a` up to `b`, on the next run of ids.
  auto add_links = [&](std::uint32_t n, LinkKind kind, SwitchId a, SwitchId b,
                       RackId rack, BoxId box) {
    const auto first = static_cast<std::uint32_t>(links_.size());
    for (std::uint32_t l = 0; l < n; ++l) {
      const LinkId id{first + l};
      links_.emplace_back(id, kind, a, b, rack, box, config_.link_capacity);
      link_ids_.push_back(id);
    }
    return first;
  };

  // Switches: each rack's switch followed by its box switches (box ids are
  // assigned by the Cluster in rack-major order; mirror that), then the
  // optional pod tier (three-tier extension), then the core.
  for (std::uint32_t r = 0; r < racks; ++r) {
    const RackId rack_id{r};
    rack_switches_.push_back(add_switch(SwitchKind::RackSwitch,
                                        config_.rack_switch_ports, rack_id,
                                        BoxId::invalid()));
    for (std::uint32_t b = 0; b < boxes_per_rack; ++b) {
      box_switches_.push_back(add_switch(SwitchKind::BoxSwitch,
                                         config_.box_switch_ports, rack_id,
                                         BoxId{r * boxes_per_rack + b}));
    }
  }
  for (std::uint32_t p = 0; p < pods; ++p) {
    pod_switches_.push_back(add_switch(SwitchKind::PodSwitch,
                                       config_.pod_switch_ports,
                                       RackId::invalid(), BoxId::invalid()));
  }
  core_switch_ = add_switch(SwitchKind::InterRackSwitch,
                            config_.inter_rack_switch_ports, RackId::invalid(),
                            BoxId::invalid());

  // Links: per rack, its boxes' uplinks (intra tier) then its own uplinks
  // (to the pod switch in three-tier mode, to the core otherwise); the pod
  // uplinks come last.  Every cached best uplink starts on its group's
  // first link, the first argmax of an idle group.
  for (std::uint32_t r = 0; r < racks; ++r) {
    const RackId rack_id{r};
    for (std::uint32_t b = 0; b < boxes_per_rack; ++b) {
      const BoxId box_id{r * boxes_per_rack + b};
      const std::uint32_t first =
          add_links(config_.links_per_box, LinkKind::BoxUplink,
                    box_switches_[box_id.value()], rack_switches_[r], rack_id,
                    box_id);
      box_first_.push_back(first);
      box_best_.push_back(LinkId{first});
    }
    const SwitchId rack_parent =
        pods == 0 ? core_switch_ : pod_switches_[r / config_.racks_per_pod];
    const std::uint32_t first =
        add_links(config_.links_per_rack, LinkKind::RackUplink,
                  rack_switches_[r], rack_parent, rack_id, BoxId::invalid());
    rack_first_.push_back(first);
    rack_best_.push_back(LinkId{first});
  }
  for (std::uint32_t p = 0; p < pods; ++p) {
    pod_first_.push_back(add_links(config_.links_per_pod, LinkKind::PodUplink,
                                   pod_switches_[p], core_switch_,
                                   RackId::invalid(), BoxId::invalid()));
  }

  const MbitsPerSec cap = config_.link_capacity;
  intra_capacity_ = static_cast<MbitsPerSec>(box_links) * cap;
  inter_capacity_ = static_cast<MbitsPerSec>(inter_links) * cap;
  rack_intra_available_.assign(
      racks, MbitsPerSec{boxes_per_rack} * config_.links_per_box * cap);
  const std::size_t padded =
      std::size_t{(racks + kShardRacks - 1) / kShardRacks} * kShardRacks;
  rack_headroom_.reserve(padded);
  for (std::uint32_t r = 0; r < racks; ++r) {
    rack_headroom_.push_back(headroom_lane(r));
  }
  rack_headroom_.resize(padded, 0);
}

void Fabric::throw_bad_id(const char* what) {
  throw std::out_of_range(std::string("Fabric: bad ") + what + " id");
}

std::uint32_t Fabric::pod_of_rack(RackId rack) const {
  if (pod_switches_.empty()) {
    throw std::logic_error("Fabric: pod_of_rack on a two-tier fabric");
  }
  if (!rack.valid() || rack.value() >= rack_switches_.size()) {
    throw std::out_of_range("Fabric: bad rack id");
  }
  return rack.value() / config_.racks_per_pod;
}

bool Fabric::same_pod(RackId a, RackId b) const {
  if (pod_switches_.empty()) return true;
  return pod_of_rack(a) == pod_of_rack(b);
}

SwitchId Fabric::pod_switch(std::uint32_t pod) const {
  if (pod >= pod_switches_.size()) {
    throw std::out_of_range("Fabric: bad pod index");
  }
  return pod_switches_[pod];
}

std::span<const LinkId> Fabric::pod_uplinks(std::uint32_t pod) const {
  if (pod >= pod_first_.size()) {
    throw std::out_of_range("Fabric: bad pod index");
  }
  return id_run(pod_first_[pod], config_.links_per_pod);
}

const SwitchNode& Fabric::switch_node(SwitchId id) const {
  if (!id.valid() || id.value() >= switches_.size()) {
    throw std::out_of_range("Fabric: bad switch id");
  }
  return switches_[id.value()];
}

SwitchId Fabric::box_switch(BoxId box) const {
  if (!box.valid() || box.value() >= box_switches_.size()) {
    throw std::out_of_range("Fabric: bad box id");
  }
  return box_switches_[box.value()];
}

SwitchId Fabric::rack_switch(RackId rack) const {
  if (!rack.valid() || rack.value() >= rack_switches_.size()) {
    throw std::out_of_range("Fabric: bad rack id");
  }
  return rack_switches_[rack.value()];
}

const Link& Fabric::link(LinkId id) const {
  if (!id.valid() || id.value() >= links_.size()) {
    throw std::out_of_range("Fabric: bad link id");
  }
  return links_[id.value()];
}

Link& Fabric::mutable_link(LinkId id) {
  return const_cast<Link&>(std::as_const(*this).link(id));
}

std::span<const LinkId> Fabric::box_uplinks(BoxId box) const {
  if (!box.valid() || box.value() >= box_first_.size()) {
    throw std::out_of_range("Fabric: bad box id");
  }
  return box_group(box.value());
}

std::span<const LinkId> Fabric::rack_uplinks(RackId rack) const {
  if (!rack.valid() || rack.value() >= rack_first_.size()) {
    throw std::out_of_range("Fabric: bad rack id");
  }
  return rack_group(rack.value());
}

LinkId* Fabric::best_slot(const Link& l) noexcept {
  switch (l.kind()) {
    case LinkKind::BoxUplink: return &box_best_[l.box().value()];
    case LinkKind::RackUplink: return &rack_best_[l.rack().value()];
    case LinkKind::PodUplink: break;
  }
  return nullptr;
}

std::span<const LinkId> Fabric::group_of(const Link& l) const noexcept {
  switch (l.kind()) {
    case LinkKind::BoxUplink: return box_group(l.box().value());
    case LinkKind::RackUplink: return rack_group(l.rack().value());
    case LinkKind::PodUplink: break;
  }
  return {};
}

std::uint16_t Fabric::headroom_lane(std::size_t rack) const noexcept {
  constexpr std::uint64_t kLaneMax = std::numeric_limits<std::uint16_t>::max();
  // Free bandwidth is never negative: a failed link reads 0.
  const auto free = static_cast<std::uint64_t>(free_[rack_best_[rack].value()]);
  return static_cast<std::uint16_t>(
      std::min(channel_divisor_.quotient(free), kLaneMax));
}

// Both run after the caller has written `l`'s new availability into the
// free lane.  The cached link is the group's first argmax of the lane.
// Links before it hold strictly less, links after it at most as much.  A
// link other than the cached one losing bandwidth keeps both facts true;
// the cached one losing bandwidth may not, so its group is rescanned.  A
// rack's headroom lane reads only its cached link, so it is refreshed after
// that rescan here and in on_increase when the rising link is the cached
// one.
void Fabric::on_decrease(const Link& l) noexcept {
  LinkId* best = best_slot(l);
  if (best != nullptr && *best == l.id()) {
    *best = most_available(group_of(l));
    if (l.kind() == LinkKind::RackUplink) {
      rack_headroom_[l.rack().value()] = headroom_lane(l.rack().value());
    }
  }
}

// A link gaining bandwidth can only displace the cached link by beating
// it, or by tying it from an earlier position in the group (lower id).
// Either way the cached link is then `l`, whose rack headroom lane (for a
// rack uplink) is refreshed.
void Fabric::on_increase(const Link& l) noexcept {
  LinkId* best = best_slot(l);
  if (best == nullptr) return;
  const MbitsPerSec avail = free_[l.id().value()];
  const MbitsPerSec best_avail = free_[best->value()];
  if (avail > best_avail ||
      (avail == best_avail && l.id().value() < best->value())) {
    *best = l.id();
  }
  if (*best == l.id() && l.kind() == LinkKind::RackUplink) {
    rack_headroom_[l.rack().value()] = headroom_lane(l.rack().value());
  }
}

void Fabric::reset_best_caches() noexcept {
  for (std::size_t b = 0; b < box_best_.size(); ++b) {
    box_best_[b] = LinkId{box_first_[b]};
  }
  for (std::size_t r = 0; r < rack_best_.size(); ++r) {
    rack_best_[r] = LinkId{rack_first_[r]};
    rack_headroom_[r] = headroom_lane(r);
  }
}

std::uint64_t Fabric::rack_headroom_word(std::uint32_t shard,
                                         MbitsPerSec need) const {
  const std::size_t begin = std::size_t{shard} * kShardRacks;
  if (begin >= rack_best_.size()) [[unlikely]] throw_bad_id("rack shard");
  const std::size_t racks = std::min<std::size_t>(kShardRacks,
                                                  rack_best_.size() - begin);
  const std::uint64_t live = racks == kShardRacks
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << racks) - 1;
  const MbitsPerSec q = config_.channel_rate;
  const MbitsPerSec channels = need > 0 ? (need + q - 1) / q : 0;
  if (channels <= std::numeric_limits<std::uint16_t>::max()) {
    // A saturated lane under-reports only above the u16 range, so for a
    // threshold inside it, lane >= channels iff the exact count is.
    return simd::ge_mask64(&rack_headroom_[begin],
                           static_cast<std::uint16_t>(channels)) &
           live;
  }
  // Channel counts past the lane range (channel rates of a few Mb/s):
  // exact scan, the RackAvailabilityIndex saturation rule (DESIGN.md §10.1).
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < racks; ++i) {
    const MbitsPerSec free = free_[rack_best_[begin + i].value()] / q;
    word |= std::uint64_t{free >= channels} << i;
  }
  return word;
}

bool Fabric::allocate(LinkId id, MbitsPerSec bw) {
  Link& l = mutable_link(id);
  if (!l.allocate(bw)) return false;
  free_[id.value()] = l.available();
  if (l.kind() == LinkKind::BoxUplink) {
    intra_allocated_ += bw;
    rack_intra_available_[l.rack().value()] -= bw;
  } else {
    inter_allocated_ += bw;
  }
  on_decrease(l);
  return true;
}

void Fabric::release(LinkId id, MbitsPerSec bw) {
  Link& l = mutable_link(id);
  l.release(bw);
  free_[id.value()] = l.available();
  if (l.kind() == LinkKind::BoxUplink) {
    intra_allocated_ -= bw;
    // Bandwidth released on a failed link is not available until repair.
    if (!l.failed()) {
      rack_intra_available_[l.rack().value()] += bw;
    }
  } else {
    inter_allocated_ -= bw;
  }
  on_increase(l);
}

void Fabric::set_link_failed(LinkId id, bool failed) {
  Link& l = mutable_link(id);
  if (l.failed() == failed) return;
  if (failed) {
    ++failed_links_;
  } else {
    --failed_links_;
  }
  if (l.kind() == LinkKind::BoxUplink) {
    if (failed) {
      rack_intra_available_[l.rack().value()] -= l.available();
      l.set_failed(true);
    } else {
      l.set_failed(false);
      rack_intra_available_[l.rack().value()] += l.available();
    }
  } else {
    l.set_failed(failed);
  }
  free_[id.value()] = l.available();
  if (failed) {
    on_decrease(l);
  } else {
    on_increase(l);
  }
}

MbitsPerSec Fabric::rack_intra_available(RackId rack) const {
  if (!rack.valid() || rack.value() >= rack_intra_available_.size()) {
    throw std::out_of_range("Fabric: bad rack id");
  }
  return rack_intra_available_[rack.value()];
}

void Fabric::reset() {
  intra_allocated_ = 0;
  inter_allocated_ = 0;
  failed_links_ = 0;
  std::fill(rack_intra_available_.begin(), rack_intra_available_.end(), 0);
  for (Link& l : links_) {
    l.reset();
    free_[l.id().value()] = l.capacity();
    if (l.kind() == LinkKind::BoxUplink) {
      rack_intra_available_[l.rack().value()] += l.capacity();
    }
  }
  reset_best_caches();
}

void Fabric::check_invariants() const {
  MbitsPerSec intra_cap = 0, intra_alloc = 0, inter_cap = 0, inter_alloc = 0;
  std::uint32_t failed = 0;
  std::vector<MbitsPerSec> rack_avail(rack_intra_available_.size(), 0);
  for (const Link& l : links_) {
    if (l.allocated() < 0 || l.allocated() > l.capacity()) {
      throw std::logic_error("Fabric invariant: link allocation out of range");
    }
    if (l.failed()) ++failed;
    if (free_[l.id().value()] != l.available()) {
      throw std::logic_error("Fabric invariant: free lane mismatch");
    }
    if (l.kind() == LinkKind::BoxUplink) {
      intra_cap += l.capacity();
      intra_alloc += l.allocated();
      rack_avail[l.rack().value()] += l.available();  // 0 while failed
    } else {
      inter_cap += l.capacity();
      inter_alloc += l.allocated();
    }
  }
  if (intra_cap != intra_capacity_ || intra_alloc != intra_allocated_ ||
      inter_cap != inter_capacity_ || inter_alloc != inter_allocated_) {
    throw std::logic_error("Fabric invariant: tier aggregate mismatch");
  }
  if (failed != failed_links_) {
    throw std::logic_error("Fabric invariant: failed-link count mismatch");
  }
  for (std::size_t r = 0; r < rack_avail.size(); ++r) {
    if (rack_avail[r] != rack_intra_available_[r]) {
      throw std::logic_error("Fabric invariant: rack intra aggregate mismatch");
    }
  }
  for (std::size_t b = 0; b < box_best_.size(); ++b) {
    if (box_best_[b] != most_available(box_group(b))) {
      throw std::logic_error("Fabric invariant: box best-uplink cache mismatch");
    }
  }
  for (std::size_t r = 0; r < rack_best_.size(); ++r) {
    if (rack_best_[r] != most_available(rack_group(r))) {
      throw std::logic_error("Fabric invariant: rack best-uplink cache mismatch");
    }
  }
  for (std::size_t r = 0; r < rack_headroom_.size(); ++r) {
    const std::uint16_t lane = r < rack_best_.size() ? headroom_lane(r) : 0;
    if (rack_headroom_[r] != lane) {
      throw std::logic_error("Fabric invariant: rack headroom lane mismatch");
    }
  }
}

}  // namespace risa::net

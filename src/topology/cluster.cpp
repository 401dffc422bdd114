#include "topology/cluster.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/simd.hpp"

namespace risa::topo {

namespace {

/// Distribute `total` units across `bricks` bricks as evenly as possible
/// (earlier bricks get the remainder), so a 16-unit box with 2 bricks has
/// 8+8 and a 10-unit box with 3 bricks has 4+3+3.
std::vector<Units> distribute_units(Units total, std::uint32_t bricks) {
  std::vector<Units> out(bricks, total / bricks);
  Units rem = total % bricks;
  for (std::uint32_t b = 0; b < bricks && rem > 0; ++b, --rem) {
    ++out[b];
  }
  return out;
}

}  // namespace

namespace {

/// Lane image of an exact availability value (see kLaneMax saturation note
/// in the class comment).
[[nodiscard]] constexpr std::uint16_t saturate_lane(Units value) noexcept {
  return static_cast<std::uint16_t>(
      std::min(value, RackAvailabilityIndex::kLaneMax));
}

}  // namespace

RackAvailabilityIndex::RackAvailabilityIndex(std::uint32_t racks)
    : racks_(racks), shards_((racks + kShardRacks - 1) / kShardRacks) {
  for (ResourceType t : kAllResources) {
    lanes_[t].assign(static_cast<std::size_t>(shards_) * kShardRacks, 0);
  }
  exact_.assign(racks_, PerResource<Units>{0, 0, 0});
  shard_max_.assign(shards_, PerResource<Units>{0, 0, 0});
}

void RackAvailabilityIndex::update(RackId rack, ResourceType type,
                                   Units maximum) {
  const std::uint32_t r = rack.value();
  const Units previous = exact_[r][type];
  if (previous == maximum) return;  // index already current
  exact_[r][type] = maximum;
  lanes_[type][r] = saturate_lane(maximum);

  const std::uint32_t shard = r / kShardRacks;
  Units& smax = shard_max_[shard][type];
  if (maximum > smax) {
    smax = maximum;
  } else if (previous == smax) {
    // The shard's maximal rack shrank: rescan its 64 exact leaves.
    const std::uint32_t begin = shard * kShardRacks;
    const std::uint32_t end = std::min(racks_, begin + kShardRacks);
    Units rescanned = 0;
    for (std::uint32_t i = begin; i < end; ++i) {
      rescanned = std::max(rescanned, exact_[i][type]);
    }
    smax = rescanned;
  } else {
    return;  // shard maximum unchanged => cluster maximum unchanged
  }

  Units& cmax = cluster_max_[type];
  if (smax > cmax) {
    cmax = smax;
  } else {
    Units rescanned = 0;
    for (const PerResource<Units>& sm : shard_max_) {
      rescanned = std::max(rescanned, sm[type]);
    }
    cmax = rescanned;
  }
}

std::uint64_t RackAvailabilityIndex::lane_word(std::uint32_t shard,
                                               ResourceType type,
                                               Units demand) const {
  if (demand <= kLaneMax) {
    return simd::ge_mask64(&lanes_[type][shard * kShardRacks],
                           static_cast<std::uint16_t>(demand));
  }
  // Demands beyond the lane range are exact-path only (never hit by the
  // paper's configurations, whose boxes top out well under kLaneMax).
  const std::uint32_t begin = shard * kShardRacks;
  const std::uint32_t end = std::min(racks_, begin + kShardRacks);
  std::uint64_t word = 0;
  for (std::uint32_t r = begin; r < end; ++r) {
    word |= std::uint64_t{exact_[r][type] >= demand} << (r - begin);
  }
  return word;
}

std::uint64_t RackAvailabilityIndex::pool_word(std::uint32_t shard,
                                               const UnitVector& demand) const {
  const PerResource<Units>& smax = shard_max_[shard];
  if (smax.cpu() < demand.cpu() || smax.ram() < demand.ram() ||
      smax.storage() < demand.storage()) {
    return 0;  // whole shard pruned by its maxima
  }
  std::uint64_t word = lane_word(shard, ResourceType::Cpu, demand.cpu());
  if (word != 0) word &= lane_word(shard, ResourceType::Ram, demand.ram());
  if (word != 0) word &= lane_word(shard, ResourceType::Storage, demand.storage());
  // Phantom padding lanes are zero; they only survive the >= test when a
  // component demand is zero, so mask them off explicitly.
  return word & shard_live_mask(shard);
}

std::uint64_t RackAvailabilityIndex::type_word(std::uint32_t shard,
                                               ResourceType type,
                                               Units demand) const {
  if (shard_max_[shard][type] < demand) return 0;
  return lane_word(shard, type, demand) & shard_live_mask(shard);
}

void RackAvailabilityIndex::pool_mask(const UnitVector& demand,
                                      RackSet& out) const {
  out.clear();
  for (std::uint32_t s = 0; s < shards_; ++s) {
    out.set_word(s, pool_word(s, demand));
  }
}

void RackAvailabilityIndex::type_mask(ResourceType type, Units demand,
                                      RackSet& out) const {
  out.clear();
  for (std::uint32_t s = 0; s < shards_; ++s) {
    out.set_word(s, type_word(s, type, demand));
  }
}

void RackAvailabilityIndex::check_invariants() const {
  PerResource<Units> cluster{0, 0, 0};
  for (std::uint32_t s = 0; s < shards_; ++s) {
    PerResource<Units> shard{0, 0, 0};
    const std::uint32_t begin = s * kShardRacks;
    const std::uint32_t end = std::min(racks_, begin + kShardRacks);
    for (std::uint32_t r = begin; r < end; ++r) {
      for (ResourceType t : kAllResources) {
        if (lanes_[t][r] != saturate_lane(exact_[r][t])) {
          throw std::logic_error(
              "RackAvailabilityIndex invariant: lane != saturated leaf");
        }
        shard[t] = std::max(shard[t], exact_[r][t]);
      }
    }
    for (ResourceType t : kAllResources) {
      for (std::uint32_t r = end; r < begin + kShardRacks; ++r) {
        if (lanes_[t][r] != 0) {
          throw std::logic_error(
              "RackAvailabilityIndex invariant: phantom lane non-zero");
        }
      }
      if (shard[t] != shard_max_[s][t]) {
        throw std::logic_error(
            "RackAvailabilityIndex invariant: shard maximum mismatch");
      }
      cluster[t] = std::max(cluster[t], shard[t]);
    }
  }
  if (cluster != cluster_max_) {
    throw std::logic_error(
        "RackAvailabilityIndex invariant: cluster maximum mismatch");
  }
}

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)), index_(config_.racks) {
  config_.validate();
  if (config_.racks > RackSet::kMaxRacks) {
    throw std::invalid_argument("Cluster: rack count exceeds RackSet::kMaxRacks");
  }

  const std::uint32_t total_boxes = config_.total_boxes();
  boxes_.reserve(total_boxes);
  box_ids_.reserve(total_boxes);
  racks_.reserve(config_.racks);
  // Every box of a type has the same brick split: one table per type.
  PerResource<std::vector<Units>> bricks;
  for (ResourceType t : kAllResources) {
    by_type_[t].reserve(std::size_t{config_.racks} * config_.boxes_per_rack[t]);
    bricks[t] = distribute_units(config_.box_units(t), config_.bricks_per_box);
    total_capacity_[t] = config_.total_units(t);
  }
  total_available_ = total_capacity_;

  for (std::uint32_t r = 0; r < config_.racks; ++r) {
    const RackId rack_id{r};
    // Rack layout: all CPU boxes, then RAM, then storage, so each type's
    // boxes in a rack are one run of ids.  The per-type "id" of Table 3 is
    // (rack, local index) in this order.
    PerResource<std::uint32_t> first{0, 0, 0};
    for (ResourceType t : kAllResources) {
      first[t] = static_cast<std::uint32_t>(boxes_.size());
      for (std::uint32_t b = 0; b < config_.boxes_per_rack[t]; ++b) {
        const BoxId box_id{static_cast<std::uint32_t>(boxes_.size())};
        boxes_.emplace_back(box_id, rack_id, t,
                            static_cast<std::uint32_t>(by_type_[t].size()),
                            bricks[t]);
        box_ids_.push_back(box_id);
        by_type_[t].push_back(box_id);
      }
    }
    racks_.push_back(
        Rack(rack_id, box_ids_.data(), first, config_.boxes_per_rack));
  }

  for (std::uint32_t r = 0; r < config_.racks; ++r) {
    for (ResourceType t : kAllResources) {
      refresh_rack_aggregates(RackId{r}, t);
    }
  }
}

Box& Cluster::box(BoxId id) {
  if (!id.valid() || id.value() >= boxes_.size()) {
    throw std::out_of_range("Cluster: bad box id");
  }
  return boxes_[id.value()];
}

const Box& Cluster::box(BoxId id) const {
  if (!id.valid() || id.value() >= boxes_.size()) {
    throw std::out_of_range("Cluster: bad box id");
  }
  return boxes_[id.value()];
}

const Rack& Cluster::rack(RackId id) const {
  if (!id.valid() || id.value() >= racks_.size()) {
    throw std::out_of_range("Cluster: bad rack id");
  }
  return racks_[id.value()];
}

std::span<const BoxId> Cluster::boxes_of_type_in_rack(RackId rack_id,
                                                      ResourceType t) const {
  return rack(rack_id).boxes(t);
}

// Incremental aggregate maintenance.  A successful allocation only ever
// *lowers* one box's availability, so the rack maximum can change only if
// that box held it (old availability == rack max) -- one O(boxes-in-rack)
// rescan in that case, O(1) otherwise.  A release only *raises* it, so the
// new maximum is max(old, new availability) with no rescan ever: if the
// raised value stays below the old maximum, some other box still holds the
// maximum (the raised box was below it before, a fortiori).  Totals are
// exact integer sums either way.  Offline boxes report zero availability
// throughout, so releasing onto one leaves every aggregate untouched.

bool Cluster::allocate_into(BoxId box_id, Units units, BoxAllocation& out) {
  Box& b = box(box_id);
  if (!b.allocate_into(units, out)) return false;
  const ResourceType t = b.type();
  total_available_[t] -= units;
  Rack& rk = racks_[b.rack().value()];
  rk.total_available_[t] -= units;
  if (b.available_units() + units == rk.max_available_[t]) {
    recompute_rack_max(rk, b.rack(), t);
  }
  return true;
}

void Cluster::release(const BoxAllocation& allocation) {
  Box& b = box(allocation.box);
  b.release(allocation);
  // Units released on an offline box are not available until repair: its
  // available_units() stays zero, so no aggregate moves.
  if (b.offline()) return;
  const ResourceType t = b.type();
  total_available_[t] += allocation.units;
  Rack& rk = racks_[b.rack().value()];
  rk.total_available_[t] += allocation.units;
  const Units avail = b.available_units();
  if (avail > rk.max_available_[t]) {
    rk.max_available_[t] = avail;
    index_.update(b.rack(), t, avail);
  }
}

void Cluster::set_box_offline(BoxId box_id, bool offline) {
  Box& b = box(box_id);
  if (b.offline() == offline) return;
  if (offline) {
    total_available_[b.type()] -= b.available_units();
    b.set_offline(true);
    ++offline_boxes_;
  } else {
    b.set_offline(false);
    total_available_[b.type()] += b.available_units();
    --offline_boxes_;
  }
  refresh_rack_aggregates(b.rack(), b.type());
}

void Cluster::recompute_rack_max(Rack& rk, RackId rack_id, ResourceType t) {
  Units max_avail = 0;
  for (BoxId id : rk.boxes(t)) {
    max_avail = std::max(max_avail, boxes_[id.value()].available_units());
  }
  rk.max_available_[t] = max_avail;
  index_.update(rack_id, t, max_avail);
}

void Cluster::refresh_rack_aggregates(RackId rack_id, ResourceType t) {
  Rack& rk = racks_[rack_id.value()];
  Units max_avail = 0;
  Units total_avail = 0;
  for (BoxId id : rk.boxes(t)) {
    const Units avail = boxes_[id.value()].available_units();
    max_avail = std::max(max_avail, avail);
    total_avail += avail;
  }
  rk.max_available_[t] = max_avail;
  rk.total_available_[t] = total_avail;
  index_.update(rack_id, t, max_avail);
}

void Cluster::reset() {
  for (Box& b : boxes_) b.reset();
  total_available_ = total_capacity_;
  offline_boxes_ = 0;
  for (std::uint32_t r = 0; r < config_.racks; ++r) {
    for (ResourceType t : kAllResources) {
      refresh_rack_aggregates(RackId{r}, t);
    }
  }
}

ClusterSnapshot Cluster::snapshot() const {
  ClusterSnapshot snap;
  snap.brick_available.reserve(boxes_.size());
  for (const Box& b : boxes_) {
    snap.brick_available.push_back(b.available_by_brick());
  }
  return snap;
}

void Cluster::restore(const ClusterSnapshot& snap) {
  if (snap.brick_available.size() != boxes_.size()) {
    throw std::invalid_argument("Cluster::restore: snapshot shape mismatch");
  }
  total_available_ = PerResource<Units>{0, 0, 0};
  offline_boxes_ = 0;  // snapshots carry occupancy only; rebuilt boxes are online
  for (std::size_t i = 0; i < boxes_.size(); ++i) {
    Box& b = boxes_[i];
    // Direct per-brick restore: replaying first-fit allocate_into() calls here
    // would compact hole patterns (a later brick's occupancy can land in an
    // earlier brick's free space), silently corrupting snapshots taken
    // after releases.  restore_bricks writes the recorded occupancy.
    b.restore_bricks(snap.brick_available[i]);
    b.set_offline(false);
    total_available_[b.type()] += b.available_units();
  }
  for (std::uint32_t r = 0; r < config_.racks; ++r) {
    for (ResourceType t : kAllResources) {
      refresh_rack_aggregates(RackId{r}, t);
    }
  }
}

void Cluster::check_invariants() const {
  PerResource<Units> cap{0, 0, 0};
  PerResource<Units> avail{0, 0, 0};
  std::uint32_t offline = 0;
  for (const Box& b : boxes_) {
    if (b.offline()) ++offline;
    if (b.raw_available_units() < 0 ||
        b.raw_available_units() > b.capacity_units()) {
      throw std::logic_error("Cluster invariant: box availability out of range");
    }
    Units brick_sum = 0;
    for (std::uint32_t br = 0; br < b.brick_count(); ++br) {
      const Units a = b.brick_available(br);
      if (a < 0 || a > b.brick_capacity(br)) {
        throw std::logic_error("Cluster invariant: brick availability out of range");
      }
      if (br < b.first_free_brick() && a != 0) {
        throw std::logic_error("Cluster invariant: free brick below the walk hint");
      }
      brick_sum += a;
    }
    if (b.first_free_brick() > b.brick_count()) {
      throw std::logic_error("Cluster invariant: walk hint past the last brick");
    }
    // Brick accounting tracks raw occupancy; the offline flag only masks
    // the box from placement.
    if (brick_sum != b.raw_available_units()) {
      throw std::logic_error("Cluster invariant: brick sum != box availability");
    }
    cap[b.type()] += b.capacity_units();
    avail[b.type()] += b.available_units();
  }
  for (ResourceType t : kAllResources) {
    if (cap[t] != total_capacity_[t]) {
      throw std::logic_error("Cluster invariant: capacity aggregate mismatch");
    }
    if (avail[t] != total_available_[t]) {
      throw std::logic_error("Cluster invariant: availability aggregate mismatch");
    }
  }
  if (offline != offline_boxes_) {
    throw std::logic_error("Cluster invariant: offline-box count mismatch");
  }
  for (const Rack& rk : racks_) {
    for (ResourceType t : kAllResources) {
      Units max_avail = 0;
      Units total_avail = 0;
      for (BoxId id : rk.boxes(t)) {
        max_avail = std::max(max_avail, boxes_[id.value()].available_units());
        total_avail += boxes_[id.value()].available_units();
      }
      if (max_avail != rk.max_available(t) ||
          total_avail != rk.total_available(t)) {
        throw std::logic_error("Cluster invariant: rack aggregate mismatch");
      }
    }
  }
  // The index's leaves must mirror the rack maxima exactly, and its inner
  // nodes must be consistent with their children; together those two
  // properties determine the correctness of every pool/type query.
  index_.check_invariants();
  for (const Rack& rk : racks_) {
    for (ResourceType t : kAllResources) {
      if (index_.leaf(rk.id())[t] != rk.max_available(t)) {
        throw std::logic_error("Cluster invariant: index leaf != rack maximum");
      }
    }
  }
}

}  // namespace risa::topo

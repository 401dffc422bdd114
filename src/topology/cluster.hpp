// The disaggregated cluster: owns all boxes, maintains per-rack and
// cluster-wide availability aggregates.
//
// Aggregate maintenance matters for fidelity to the paper's Figure 11/12
// (scheduler execution time): RISA's INTRA_RACK_POOL is built from per-rack
// per-type *maximum available box* values which this class keeps up to date
// incrementally in O(boxes-of-type-in-rack) per mutation, while NULB/NALB
// deliberately rescan boxes per placement, exactly as described in §4.1.
//
// Layout: box ids are assigned rack-major, and within a rack type-major
// (CPU, then RAM, then storage), so each rack's boxes of one type are a
// run of consecutive ids.  A Rack keeps only the first id of each run and
// hands the run out as a span over one cluster-wide id table.  A build
// sizes every table once (one brick split per type, shared by its boxes),
// so its heap-allocation count does not depend on the rack count
// (DESIGN.md §17).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rack_set.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "topology/box.hpp"
#include "topology/config.hpp"

namespace risa::topo {

/// Per-rack aggregates.
class Rack {
 public:
  [[nodiscard]] RackId id() const noexcept { return id_; }

  /// Boxes of one type in this rack, in local order: a run of consecutive
  /// box ids, viewed in the owning cluster's id table.
  [[nodiscard]] std::span<const BoxId> boxes(ResourceType t) const noexcept {
    return {ids_ + first_[t], count_[t]};
  }

  /// Largest per-box availability of the given type in this rack.  This is
  /// the quantity RISA tracks to decide whether a rack can host an entire
  /// VM ("RISA keeps track of the boxes with the maximum amount of each
  /// resource for each rack", §4.2).
  [[nodiscard]] Units max_available(ResourceType t) const noexcept {
    return max_available_[t];
  }

  /// Sum of availabilities of the given type in this rack.
  [[nodiscard]] Units total_available(ResourceType t) const noexcept {
    return total_available_[t];
  }

 private:
  friend class Cluster;

  Rack(RackId id, const BoxId* ids, PerResource<std::uint32_t> first,
       PerResource<std::uint32_t> count) noexcept
      : id_(id), first_(first), count_(count), ids_(ids) {}

  RackId id_;
  PerResource<std::uint32_t> first_;  ///< first box id of each type's run
  PerResource<std::uint32_t> count_;  ///< boxes in each type's run
  const BoxId* ids_;                  ///< the cluster's table: ids_[i] == BoxId{i}
  PerResource<Units> max_available_{0, 0, 0};
  PerResource<Units> total_available_{0, 0, 0};
};

/// Deep-copyable snapshot of cluster occupancy (tests, what-if analyses).
struct ClusterSnapshot {
  std::vector<std::vector<Units>> brick_available;  ///< indexed by box, brick
};

/// Incremental rack-availability index: contiguous per-type u16 lanes over
/// rack ids, sharded into 64-rack groups (one RackSet word per shard).
///
/// This is the structure that preserves RISA's asymptotic advantage end to
/// end.  The Cluster maintains per-rack per-type maxima incrementally; the
/// index stores them twice:
///
///   * `lanes_[t]` -- one saturated u16 per rack, padded to shards x 64, in
///     a single contiguous row per type.  "Which racks of this shard fit
///     demand d" is then one SIMD lane compare (simd::ge_mask64) producing
///     a 64-bit mask that *is* the corresponding RackSet word, with lanes
///     emitted in ascending rack-id order (the round-robin order).
///   * `exact_[r]` -- the exact i64 value, the source of truth: queries
///     whose demand exceeds kLaneMax fall back to it, and invariants and
///     verification hooks read it.
///
/// Saturation at kLaneMax is sound for >=-queries: a saturated lane only
/// ever *under-reports* availability as exactly kLaneMax, so for any demand
/// d <= kLaneMax, lane >= d iff exact >= d.  Demands above kLaneMax take the
/// exact path.
///
/// Per-shard and cluster-wide maxima ride on top: `shard_max` prunes whole
/// 64-rack words before the lane compare runs, and `cluster_max` gives the
/// scheduler an O(1) "no box anywhere fits" reject on the drop path.
class RackAvailabilityIndex {
 public:
  /// Racks per shard; equals the RackSet word width so a shard's query
  /// answer is exactly one membership word.
  static constexpr std::uint32_t kShardRacks = 64;
  /// Largest availability a u16 lane can represent; larger exact values
  /// saturate (see class comment for why that stays correct).
  static constexpr Units kLaneMax = 65535;

  explicit RackAvailabilityIndex(std::uint32_t racks);

  /// Install a rack's new maximum for one type.  O(1) when the value is
  /// unchanged (the common case: allocating from a non-maximal box leaves
  /// the rack maximum alone); O(kShardRacks) only when the shard's previous
  /// maximum shrinks.
  void update(RackId rack, ResourceType type, Units maximum);

  /// Racks whose maxima fit every component of `demand` simultaneously --
  /// the INTRA_RACK_POOL membership mask.  `out` is overwritten.
  void pool_mask(const UnitVector& demand, RackSet& out) const;

  /// Racks whose maxima fit `demand` of one type -- a SUPER_RACK list.
  void type_mask(ResourceType type, Units demand, RackSet& out) const;

  /// Number of 64-rack shards (= number of live RackSet words).
  [[nodiscard]] std::uint32_t num_shards() const noexcept { return shards_; }

  /// One shard's INTRA_RACK_POOL membership word: bit i set iff rack
  /// shard*64+i fits every component of `demand`.  Identical to the
  /// corresponding word of pool_mask's answer.
  [[nodiscard]] std::uint64_t pool_word(std::uint32_t shard,
                                        const UnitVector& demand) const;

  /// One shard's SUPER_RACK membership word for a single type.
  [[nodiscard]] std::uint64_t type_word(std::uint32_t shard, ResourceType type,
                                        Units demand) const;

  /// Largest per-box availability of `type` anywhere in the cluster -- the
  /// O(1) reject: no box can host a component larger than this.
  [[nodiscard]] Units cluster_max(ResourceType type) const noexcept {
    return cluster_max_[type];
  }

  /// Largest per-box availability of `type` within one shard.
  [[nodiscard]] Units shard_max(std::uint32_t shard,
                                ResourceType type) const noexcept {
    return shard_max_[shard][type];
  }

  /// Exact (unsaturated) leaf values for one rack (verification hook).
  [[nodiscard]] const PerResource<Units>& leaf(RackId rack) const {
    return exact_[rack.value()];
  }

  /// Verifies lanes against exact leaves and the shard/cluster maxima
  /// against a rescan; throws std::logic_error on divergence.  Leaf
  /// correctness itself is checked by Cluster.
  void check_invariants() const;

 private:
  /// Membership word of shard `shard` for a single type: the SIMD lane
  /// compare when the demand fits a u16, the exact row otherwise.
  [[nodiscard]] std::uint64_t lane_word(std::uint32_t shard, ResourceType type,
                                        Units demand) const;

  /// Bits of a shard's word that correspond to real (non-phantom) racks.
  [[nodiscard]] std::uint64_t shard_live_mask(std::uint32_t shard) const noexcept {
    return shard + 1 < shards_ || (racks_ & 63) == 0
               ? ~std::uint64_t{0}
               : (std::uint64_t{1} << (racks_ & 63)) - 1;
  }

  std::uint32_t racks_ = 0;
  std::uint32_t shards_ = 0;
  /// Saturated u16 lanes, one contiguous row per type, padded with zero
  /// lanes to shards_ x kShardRacks.
  PerResource<std::vector<std::uint16_t>> lanes_;
  std::vector<PerResource<Units>> exact_;      ///< exact leaf values, size racks_
  std::vector<PerResource<Units>> shard_max_;  ///< per-shard maxima, size shards_
  PerResource<Units> cluster_max_{0, 0, 0};
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  // Racks view the id table by pointer, and a copy would view the
  // original's table, so there is none.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] const ClusterConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint32_t num_racks() const noexcept { return config_.racks; }
  [[nodiscard]] std::size_t num_boxes() const noexcept { return boxes_.size(); }

  [[nodiscard]] Box& box(BoxId id);
  [[nodiscard]] const Box& box(BoxId id) const;

  /// Bounds-unchecked box access for release-build hot loops (the placement
  /// scans touch every candidate box once per VM).  Ids handed out by this
  /// cluster are always valid; API boundaries keep the throwing accessor.
  [[nodiscard]] Box& box_unchecked(BoxId id) noexcept {
    assert(id.value() < boxes_.size());
    return boxes_[id.value()];
  }
  [[nodiscard]] const Box& box_unchecked(BoxId id) const noexcept {
    assert(id.value() < boxes_.size());
    return boxes_[id.value()];
  }

  [[nodiscard]] const Rack& rack(RackId id) const;

  /// Bounds-unchecked rack access for hot loops (same contract as
  /// box_unchecked).
  [[nodiscard]] const Rack& rack_unchecked(RackId id) const noexcept {
    assert(id.value() < racks_.size());
    return racks_[id.value()];
  }

  /// All boxes of a type cluster-wide, ordered by (rack, local position) --
  /// the canonical NULB/NALB search order.
  [[nodiscard]] const std::vector<BoxId>& boxes_of_type(ResourceType t) const noexcept {
    return by_type_[t];
  }

  /// Boxes of a type within one rack, in local order (Rack::boxes).
  [[nodiscard]] std::span<const BoxId> boxes_of_type_in_rack(
      RackId rack, ResourceType t) const;

  /// Cluster-wide capacity / availability per type, maintained incrementally.
  [[nodiscard]] Units total_capacity(ResourceType t) const noexcept {
    return total_capacity_[t];
  }
  [[nodiscard]] Units total_available(ResourceType t) const noexcept {
    return total_available_[t];
  }
  [[nodiscard]] double utilization(ResourceType t) const noexcept {
    const Units cap = total_capacity_[t];
    return cap > 0 ? 1.0 - static_cast<double>(total_available_[t]) /
                               static_cast<double>(cap)
                   : 0.0;
  }

  /// Allocate `units` of the box's type from `box` (Box::allocate_into)
  /// and update every aggregate.  Returns false, leaving `out` and all
  /// state untouched, when the box cannot host `units`.
  [[nodiscard]] bool allocate_into(BoxId box, Units units, BoxAllocation& out);

  /// Return a previous allocation.  Updates all aggregates.
  void release(const BoxAllocation& allocation);

  /// Bracket for same-timestamp departure runs.  A release only raises
  /// availability, so release()'s O(1) aggregate update is exact at every
  /// point and release_batched() is release() itself; the bracket only
  /// asserts (in debug builds) that batches do not nest and that every
  /// batched release sits inside one.  No placement query may run between
  /// begin and end; the engine guarantees this because arrivals always
  /// order before same-time injected events in the (time, seq) contract.
  void begin_release_batch() noexcept { assert(!release_batching_); release_batching_ = true; }
  void release_batched(const BoxAllocation& allocation) {
    assert(release_batching_);
    release(allocation);
  }
  void end_release_batch() noexcept { assert(release_batching_); release_batching_ = false; }

  /// Failure injection: take a box offline (it stops accepting allocations
  /// and its free units leave every availability aggregate) or bring it
  /// back.  Resident allocations stay recorded; the caller decides whether
  /// resident VMs are killed.
  void set_box_offline(BoxId box, bool offline);

  /// Boxes currently offline, maintained incrementally by
  /// set_box_offline/reset -- the engine's degraded-operation signal (the
  /// lifecycle subsystem reads this per event, so it must be O(1)).
  [[nodiscard]] std::uint32_t offline_box_count() const noexcept {
    return offline_boxes_;
  }

  /// The incremental rack-availability index (kept in lock-step with the
  /// per-rack aggregates by every mutation).
  [[nodiscard]] const RackAvailabilityIndex& rack_index() const noexcept {
    return index_;
  }

  /// INTRA_RACK_POOL membership: racks able to host the entire demand.
  void eligible_racks(const UnitVector& demand, RackSet& out) const {
    index_.pool_mask(demand, out);
  }
  /// SUPER_RACK membership for one type.
  void eligible_racks(ResourceType type, Units demand, RackSet& out) const {
    index_.type_mask(type, demand, out);
  }

  [[nodiscard]] ClusterSnapshot snapshot() const;
  void restore(const ClusterSnapshot& snap);

  /// Restore every box to pristine (all units free, online) and rebuild the
  /// aggregates, reusing all existing storage -- the engine-reuse path.
  /// O(boxes) with zero heap allocation, vs. a full reconstruction.
  void reset();

  /// Verifies every aggregate against a from-scratch recomputation; throws
  /// std::logic_error on divergence.  Used by tests and debug builds.
  void check_invariants() const;

 private:
  void refresh_rack_aggregates(RackId rack, ResourceType t);
  /// Rescans only the rack's per-type maximum (the total is maintained
  /// incrementally by allocate_into/release) and pushes it into the index.
  void recompute_rack_max(Rack& rk, RackId rack, ResourceType t);

  ClusterConfig config_;
  std::vector<Box> boxes_;
  /// BoxId{i} at index i: racks return their per-type runs as slices of it.
  std::vector<BoxId> box_ids_;
  std::vector<Rack> racks_;
  PerResource<std::vector<BoxId>> by_type_;
  PerResource<Units> total_capacity_{0, 0, 0};
  PerResource<Units> total_available_{0, 0, 0};
  std::uint32_t offline_boxes_ = 0;
  RackAvailabilityIndex index_;
  /// Inside a begin/end_release_batch bracket (checked by asserts only).
  bool release_batching_ = false;
};

}  // namespace risa::topo

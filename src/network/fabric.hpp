// The two-tier optical circuit-switched fabric of the dReDBox-style DDC
// (§3.1, Figures 2-3).
//
// Topology built per cluster shape:
//   * one box switch per box, one rack switch per rack, one inter-rack
//     (core) switch for the cluster;
//   * `links_per_box` parallel 200 Gb/s links between each box switch and
//     its rack switch (the intra-rack tier);
//   * `links_per_rack` parallel links between each rack switch and the
//     inter-rack switch (the inter-rack tier).
//
// The paper specifies the per-link rate (200 Gb/s) and switch radices
// (64/256/512) but not the uplink multiplicity.  With the defaults here,
// figure_suite measures Azure intra-rack utilization at 7.6 / 10.2 / 13.4%
// against the paper's 30.4 / 35.4 / 42.6% -- an open deviation (see
// DESIGN.md §2.3 and the ROADMAP).  All aggregates (cluster-wide and
// per-rack intra free bandwidth) are maintained incrementally; RISA's
// AVAIL_INTRA_RACK_NET test reads them in O(1).  Every parallel-link group
// (a box's, a rack's or a pod's uplinks) is a run of consecutive link ids,
// and each link's free bandwidth sits in one contiguous lane indexed by
// link id, so a group scan -- first fit, or the first most-available link
// -- reads `lane[first .. first + n)` and nothing else.  Each box's and
// rack's most-available uplink is cached (NALB's search keys and
// most-available routing read it in O(1)), and so is a u16 lane of each
// rack's free uplink channels, which NALB's companion walk compares 64
// racks at a time (DESIGN.md §15).
//
// The constructor writes every table once, at its final size: the switch
// and link counts follow in closed form from the cluster shape, so each
// table is allocated exactly once and the number of heap allocations a
// build makes does not depend on the rack count (DESIGN.md §17).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "common/divisor.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "network/link.hpp"
#include "network/path.hpp"
#include "network/switch_node.hpp"
#include "topology/config.hpp"

namespace risa::net {

struct FabricConfig {
  /// Parallel links from each box switch to its rack switch.
  std::uint32_t links_per_box = 6;
  /// Parallel links from each rack switch to the inter-rack switch.
  std::uint32_t links_per_rack = 18;
  /// Per-link capacity: 8 spatially-multiplexed channels x 25 Gb/s (§3.1).
  MbitsPerSec link_capacity = gbps(200.0);
  /// Rate of one spatial channel.  Optical circuit switching reserves whole
  /// channels, so bandwidth *comparisons* (NALB's "most available
  /// bandwidth" ordering) are made at this granularity.
  MbitsPerSec channel_rate = gbps(25.0);
  /// Beneš radices for the energy model (§5.2).
  std::uint32_t box_switch_ports = 64;
  std::uint32_t rack_switch_ports = 256;
  std::uint32_t inter_rack_switch_ports = 512;

  /// Three-tier extension (the topology family of the RL scheduler [17]
  /// that §2 contrasts against): group racks into pods of this size and
  /// insert a pod-switch tier between rack switches and the core.  0 keeps
  /// the paper's two-tier structure.
  std::uint32_t racks_per_pod = 0;
  /// Parallel links from each pod switch to the inter-rack switch.
  std::uint32_t links_per_pod = 18;
  std::uint32_t pod_switch_ports = 512;

  void validate() const {
    if (links_per_box == 0 || links_per_rack == 0) {
      throw std::invalid_argument("FabricConfig: zero uplink multiplicity");
    }
    if (link_capacity <= 0) {
      throw std::invalid_argument("FabricConfig: non-positive link capacity");
    }
    if (channel_rate <= 0 || channel_rate > link_capacity) {
      throw std::invalid_argument("FabricConfig: bad channel rate");
    }
    for (std::uint32_t p : {box_switch_ports, rack_switch_ports,
                            inter_rack_switch_ports, pod_switch_ports}) {
      if (p < 2) throw std::invalid_argument("FabricConfig: switch ports < 2");
    }
    if (racks_per_pod > 0 && links_per_pod == 0) {
      throw std::invalid_argument("FabricConfig: pods need uplinks");
    }
  }
};

class Fabric {
 public:
  Fabric(const topo::ClusterConfig& cluster, FabricConfig config);

  [[nodiscard]] const FabricConfig& config() const noexcept { return config_; }

  // --- Switches -----------------------------------------------------------
  [[nodiscard]] const SwitchNode& switch_node(SwitchId id) const;
  [[nodiscard]] SwitchId box_switch(BoxId box) const;
  [[nodiscard]] SwitchId rack_switch(RackId rack) const;
  [[nodiscard]] SwitchId core_switch() const noexcept { return core_switch_; }
  [[nodiscard]] std::size_t num_switches() const noexcept { return switches_.size(); }

  // --- Links --------------------------------------------------------------
  /// Links are read-only from outside: every mutation goes through
  /// allocate / release / set_link_failed so the aggregates, the free lane
  /// and the best-uplink caches stay exact.
  [[nodiscard]] const Link& link(LinkId id) const;

  /// Bounds-unchecked link access for hot loops over ids the fabric handed
  /// out (the engine's per-VM link-fault filter).  API boundaries keep the
  /// throwing accessor.
  [[nodiscard]] const Link& link_unchecked(LinkId id) const noexcept {
    assert(id.value() < links_.size());
    return links_[id.value()];
  }
  [[nodiscard]] std::size_t num_links() const noexcept { return links_.size(); }

  /// Call `fn(SwitchId)` for each switch `path` traverses, source to
  /// destination, derived from its links: consecutive hops share one
  /// switch, so the walk starts at the first hop's endpoint the second hop
  /// does not touch (endpoint_a of a one-hop path) and crosses each hop to
  /// its far end.  Returns false, having visited only a prefix, when the
  /// path has no links or a hop does not start where the previous one
  /// ended -- only a corrupt checkpoint holds such a path.  Every link id
  /// must be this fabric's (unchecked, like link_unchecked).  The walk
  /// reads the hops' `Link` records, which the placement path has just
  /// touched when it reserved them.
  template <typename Fn>
  bool for_each_path_switch(const CircuitPath& path, Fn&& fn) const noexcept {
    const std::span<const LinkId> links = path.links();
    if (links.empty()) return false;
    const Link& first = link_unchecked(links[0]);
    SwitchId at = first.endpoint_a();
    if (links.size() > 1) {
      const Link& second = link_unchecked(links[1]);
      if (at == second.endpoint_a() || at == second.endpoint_b()) {
        at = first.endpoint_b();
      }
    }
    fn(at);
    for (const LinkId id : links) {
      const Link& l = link_unchecked(id);
      const SwitchId a = l.endpoint_a();
      const SwitchId b = l.endpoint_b();
      if (at != a && at != b) return false;
      at = SwitchId{a.value() ^ b.value() ^ at.value()};  // the far end
      fn(at);
    }
    return true;
  }

  /// The switches for_each_path_switch visits, as a list; empty when the
  /// links do not chain.
  [[nodiscard]] SwitchList path_switches(const CircuitPath& path) const noexcept {
    SwitchList out;
    if (!for_each_path_switch(path, [&](SwitchId s) { out.push_back(s); })) {
      return SwitchList{};
    }
    return out;
  }

  /// link(id).available() read from the free lane -- 0 while the link is
  /// failed.  Bounds-unchecked, like link_unchecked.
  [[nodiscard]] MbitsPerSec available_unchecked(LinkId id) const noexcept {
    assert(id.value() < free_.size());
    return free_[id.value()];
  }

  /// Parallel uplinks of one box (box switch -> rack switch).  Every
  /// uplink group is a run of consecutive link ids.
  [[nodiscard]] std::span<const LinkId> box_uplinks(BoxId box) const;

  /// Parallel uplinks of one rack (rack switch -> pod switch in three-tier
  /// mode, rack switch -> core otherwise).
  [[nodiscard]] std::span<const LinkId> rack_uplinks(RackId rack) const;

  /// The two group scans over the free lane.  `group` is a nonempty uplink
  /// group of this fabric or a subspan of one (consecutive link ids).
  ///
  /// The first link with the most available() bandwidth: one compare and
  /// two selects per link, ties kept on the earlier link.
  [[nodiscard]] LinkId most_available(std::span<const LinkId> group) const noexcept {
    const std::uint32_t first = group_first(group);
    const MbitsPerSec* lane = free_.data() + first;
    std::uint32_t best = 0;
    MbitsPerSec best_free = lane[0];
    for (std::uint32_t i = 1; i < group.size(); ++i) {
      const bool more = lane[i] > best_free;
      best = more ? i : best;
      best_free = more ? lane[i] : best_free;
    }
    return LinkId{first + best};
  }
  /// The first link with at least `bw` available; invalid when none has.
  /// Branch-free: a select per link, walked from the back of the group so
  /// the last fit written is the first in group order.  The scan's length
  /// does not depend on where the fitting link sits, where an early-exit
  /// loop would stop at a position the branch predictor cannot guess.
  [[nodiscard]] LinkId first_fit(std::span<const LinkId> group,
                                 MbitsPerSec bw) const noexcept {
    const std::uint32_t first = group_first(group);
    const MbitsPerSec* lane = free_.data() + first;
    const auto n = static_cast<std::uint32_t>(group.size());
    std::uint32_t fit = n;  // none fits
    for (std::uint32_t i = n; i-- > 0;) fit = lane[i] >= bw ? i : fit;
    return fit < n ? LinkId{first + fit} : LinkId::invalid();
  }

  /// The first uplink, in group order, with the most available() bandwidth
  /// -- most_available() of the group, and the link
  /// Router::select_link(MostAvailable) picks from it.  Maintained per
  /// mutation (O(1) unless the best link itself loses bandwidth, which
  /// rescans its group), so a read is O(1).
  [[nodiscard]] LinkId best_box_uplink(BoxId box) const {
    if (box.value() >= box_best_.size()) [[unlikely]] throw_bad_id("box");
    return box_best_[box.value()];
  }
  [[nodiscard]] LinkId best_rack_uplink(RackId rack) const {
    if (rack.value() >= rack_best_.size()) [[unlikely]] throw_bad_id("rack");
    return rack_best_[rack.value()];
  }

  /// Racks per rack-headroom shard: the availability index's shard width,
  /// so a search can AND the two words bit for bit.
  static constexpr std::uint32_t kShardRacks = 64;

  /// One shard's rack-headroom word: bit i is set iff rack
  /// shard * kShardRacks + i exists and its best uplink has at least
  /// ceil(need / channel_rate) free channels -- for a `need` that is a
  /// multiple of the channel rate, iff available() >= need.  One SIMD lane
  /// compare while that channel count fits a u16; an exact scan of the
  /// shard's racks beyond it (DESIGN.md §15).
  [[nodiscard]] std::uint64_t rack_headroom_word(std::uint32_t shard,
                                                 MbitsPerSec need) const;

  // --- Three-tier (pod) extension ------------------------------------------
  /// Number of pods (0 = two-tier, the paper's topology).
  [[nodiscard]] std::uint32_t num_pods() const noexcept {
    return static_cast<std::uint32_t>(pod_switches_.size());
  }
  /// Pod index of a rack; only valid when num_pods() > 0.
  [[nodiscard]] std::uint32_t pod_of_rack(RackId rack) const;
  /// True when both racks sit under the same pod switch (always true in
  /// two-tier mode, where the core is the only aggregation point).
  [[nodiscard]] bool same_pod(RackId a, RackId b) const;
  [[nodiscard]] SwitchId pod_switch(std::uint32_t pod) const;
  /// Parallel uplinks of one pod (pod switch -> core).
  [[nodiscard]] std::span<const LinkId> pod_uplinks(std::uint32_t pod) const;

  /// Reserve / return bandwidth, maintaining aggregates.  allocate returns
  /// false, changing nothing, when the link cannot carry `bw`.
  [[nodiscard]] bool allocate(LinkId id, MbitsPerSec bw);
  void release(LinkId id, MbitsPerSec bw);

  /// Failure injection: a failed link admits no new circuits and its free
  /// bandwidth leaves the per-rack availability aggregate until repaired.
  void set_link_failed(LinkId id, bool failed);

  /// Links currently failed, maintained incrementally by set_link_failed /
  /// reset -- the engine's degraded-operation signal for link faults (read
  /// per event, so it must be O(1); mirrors Cluster::offline_box_count).
  [[nodiscard]] std::uint32_t failed_link_count() const noexcept {
    return failed_links_;
  }

  // --- Aggregates ---------------------------------------------------------
  [[nodiscard]] MbitsPerSec intra_capacity() const noexcept { return intra_capacity_; }
  [[nodiscard]] MbitsPerSec intra_allocated() const noexcept { return intra_allocated_; }
  [[nodiscard]] MbitsPerSec inter_capacity() const noexcept { return inter_capacity_; }
  [[nodiscard]] MbitsPerSec inter_allocated() const noexcept { return inter_allocated_; }
  [[nodiscard]] double intra_utilization() const noexcept {
    return intra_capacity_ > 0 ? static_cast<double>(intra_allocated_) /
                                     static_cast<double>(intra_capacity_)
                               : 0.0;
  }
  [[nodiscard]] double inter_utilization() const noexcept {
    return inter_capacity_ > 0 ? static_cast<double>(inter_allocated_) /
                                     static_cast<double>(inter_capacity_)
                               : 0.0;
  }

  /// Free intra-rack bandwidth within one rack (sum over box uplinks of
  /// boxes in that rack).  RISA's AVAIL_INTRA_RACK_NET filter.
  [[nodiscard]] MbitsPerSec rack_intra_available(RackId rack) const;

  /// Restore every link to pristine (no reservations, no failures) and
  /// rebuild the aggregates, reusing all existing storage -- the
  /// engine-reuse path.  O(links) with zero heap allocation.
  void reset();

  /// Verifies aggregates, the free lane and the best-uplink caches against
  /// recomputation; throws on divergence.
  void check_invariants() const;

 private:
  [[noreturn]] static void throw_bad_id(const char* what);
  [[nodiscard]] Link& mutable_link(LinkId id);

  /// First link id of a scan's group, after checking (Debug builds) that
  /// the group is a nonempty run of consecutive ids.
  [[nodiscard]] static std::uint32_t group_first(
      std::span<const LinkId> group) noexcept {
    assert(!group.empty() &&
           group.back().value() - group.front().value() + 1 == group.size());
    return group.front().value();
  }

  /// `n` consecutive link ids from `first`, as a slice of link_ids_.
  [[nodiscard]] std::span<const LinkId> id_run(std::uint32_t first,
                                               std::uint32_t n) const noexcept {
    return {link_ids_.data() + first, n};
  }
  [[nodiscard]] std::span<const LinkId> box_group(std::size_t box) const noexcept {
    return id_run(box_first_[box], config_.links_per_box);
  }
  [[nodiscard]] std::span<const LinkId> rack_group(std::size_t rack) const noexcept {
    return id_run(rack_first_[rack], config_.links_per_rack);
  }

  /// Best-uplink cache slot of the group `l` belongs to and the group
  /// itself; null / empty for pod uplinks, which are not cached.
  [[nodiscard]] LinkId* best_slot(const Link& l) noexcept;
  [[nodiscard]] std::span<const LinkId> group_of(const Link& l) const noexcept;

  /// Cache maintenance after `l.available()` fell / rose.
  void on_decrease(const Link& l) noexcept;
  void on_increase(const Link& l) noexcept;

  /// Point every cache slot at its group's first link (all links idle).
  void reset_best_caches() noexcept;

  /// Free channels of `rack`'s best uplink, saturated to a u16 lane.
  [[nodiscard]] std::uint16_t headroom_lane(std::size_t rack) const noexcept;

  FabricConfig config_;
  /// Divides by config_.channel_rate for headroom_lane.
  Divisor channel_divisor_;
  std::vector<SwitchNode> switches_;
  std::vector<Link> links_;
  std::vector<SwitchId> box_switches_;             // by box id
  std::vector<SwitchId> rack_switches_;            // by rack id
  std::vector<SwitchId> pod_switches_;             // by pod index (3-tier)
  SwitchId core_switch_;
  /// link(id).available() by link id: the lane every group scan reads.
  std::vector<MbitsPerSec> free_;
  /// LinkId{i} at index i: groups are returned as slices of it.
  std::vector<LinkId> link_ids_;
  std::vector<std::uint32_t> box_first_;           // first uplink, by box id
  std::vector<std::uint32_t> rack_first_;          // first uplink, by rack id
  std::vector<std::uint32_t> pod_first_;           // first uplink, by pod
  std::vector<MbitsPerSec> rack_intra_available_;  // by rack id
  std::vector<LinkId> box_best_;                   // by box id
  std::vector<LinkId> rack_best_;                  // by rack id
  /// headroom_lane(r) by rack id, zero-padded to whole kShardRacks shards.
  std::vector<std::uint16_t> rack_headroom_;
  std::uint32_t failed_links_ = 0;
  MbitsPerSec intra_capacity_ = 0;
  MbitsPerSec intra_allocated_ = 0;
  MbitsPerSec inter_capacity_ = 0;
  MbitsPerSec inter_allocated_ = 0;
};

}  // namespace risa::net

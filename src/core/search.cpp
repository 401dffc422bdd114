#include "core/search.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace risa::core {

namespace {

/// Visit candidate racks for a (type, units) first-fit scan in ascending
/// rack-id order: the availability index's per-shard eligibility word --
/// racks whose per-type *maximum* box fits `units` -- ANDed with the
/// filter's membership word.  Racks pruned by the index contain no fitting
/// box at all, so dropping them from any first-fit or rank-then-fit scan
/// cannot change which box is found (DESIGN.md §10).  `fn` returns true to
/// stop the walk.
template <typename F>
void for_each_candidate_rack(const topo::Cluster& cluster, ResourceType type,
                             Units units, const RackFilter& filter, F&& fn) {
  const topo::RackAvailabilityIndex& index = cluster.rack_index();
  for (std::uint32_t s = 0; s < index.num_shards(); ++s) {
    std::uint64_t word = index.type_word(s, type, units);
    if (filter.restricted()) word &= filter.mask(type).word(s);
    while (word != 0) {
      const auto bit = static_cast<std::uint32_t>(std::countr_zero(word));
      word &= word - 1;
      if (fn(RackId{s * topo::RackAvailabilityIndex::kShardRacks + bit})) {
        return;
      }
    }
  }
}

}  // namespace

BoxId first_fit_box(const topo::Cluster& cluster, ResourceType type,
                    Units units, const RackFilter& filter) {
  // Equivalent to the flat scan over boxes_of_type(type) -- that order is
  // rack-major, and the index prunes only racks without a fitting box.
  BoxId hit = BoxId::invalid();
  for_each_candidate_rack(
      cluster, type, units, filter, [&](RackId rack) {
        for (BoxId id : cluster.boxes_of_type_in_rack(rack, type)) {
          if (cluster.box_unchecked(id).available_units() >= units) {
            hit = id;
            return true;
          }
        }
        return false;
      });
  return hit;
}

namespace {

/// NALB's bandwidth keys: the bottleneck free bandwidth of the path that
/// would connect the anchor's rack to each candidate (candidate's best box
/// uplink; for inter-rack candidates additionally the two rack uplinks
/// involved), quantized to whole spatial channels because the OCS reserves
/// channel-granular circuits.  On a lightly loaded fabric every candidate
/// ties, and ties keep the scan order -- which is why the paper's NALB
/// makes the same placements as NULB (Figure 5: 255 = 255) until links
/// genuinely congest.  Every hop's best link comes from the fabric's
/// best-uplink caches, so a key costs O(1) (DESIGN.md §15).
///
/// Headroom is kept in raw bandwidth here; RankedBest quantizes it.  The
/// rack-uplink hops are shared by every candidate of a rack, so they are
/// folded into a per-rack bound once and each box only adds its own hop.
class PathHeadroom {
 public:
  PathHeadroom(const net::Fabric& fabric, RackId anchor_rack)
      : fabric_(&fabric), anchor_rack_(anchor_rack),
        capacity_(fabric.config().link_capacity),
        anchor_uplink_(available(fabric.best_rack_uplink(anchor_rack))) {}

  /// Upper bound on the headroom of every candidate in `rack`: the two
  /// rack-uplink hops of an inter-rack path, or a full link for the anchor
  /// rack, whose paths stay intra-rack.
  [[nodiscard]] MbitsPerSec rack_bound(RackId rack) const {
    if (rack == anchor_rack_) return capacity_;
    return std::min(anchor_uplink_, available(fabric_->best_rack_uplink(rack)));
  }

  /// Headroom of `box`, a candidate of the rack whose bound is `bound`.
  [[nodiscard]] MbitsPerSec of(BoxId box, MbitsPerSec bound) const {
    return std::min(available(fabric_->best_box_uplink(box)), bound);
  }

  [[nodiscard]] RackId anchor_rack() const noexcept { return anchor_rack_; }
  /// Upper bound on any headroom at all, and on any non-anchor-rack one.
  [[nodiscard]] MbitsPerSec capacity() const noexcept { return capacity_; }
  [[nodiscard]] MbitsPerSec anchor_uplink() const noexcept {
    return anchor_uplink_;
  }

 private:
  [[nodiscard]] MbitsPerSec available(LinkId id) const noexcept {
    return fabric_->available_unchecked(id);
  }

  const net::Fabric* fabric_;
  RackId anchor_rack_;
  MbitsPerSec capacity_;
  MbitsPerSec anchor_uplink_;
};

/// First fit over boxes of `type` in per-type id order, restricted to the
/// filter; `skip_rack` carves the AnchorRackFirst second tier without
/// materializing a candidate list.
[[nodiscard]] BoxId scan_in_id_order(const topo::Cluster& cluster,
                                     ResourceType type, Units units,
                                     const RackFilter& filter,
                                     RackId skip_rack = RackId::invalid()) {
  BoxId hit = BoxId::invalid();
  for_each_candidate_rack(
      cluster, type, units, filter, [&](RackId rack) {
        if (rack == skip_rack) return false;
        for (BoxId id : cluster.boxes_of_type_in_rack(rack, type)) {
          if (cluster.box_unchecked(id).available_units() >= units) {
            hit = id;
            return true;
          }
        }
        return false;
      });
  return hit;
}

/// Running argmax for the bandwidth-descending scans: the *fitting*
/// candidate with the most channels of headroom, earliest scan position
/// winning ties (a later candidate replaces the best only with strictly
/// more channels).  The comparison runs in raw bandwidth against `need`,
/// the least headroom worth one more channel than the best, so a key is
/// only divided out when it wins: floor(h / q) > k  <=>  h >= (k + 1) q.
/// `need` is therefore always 0 or a multiple of q, and only grows.
struct RankedBest {
  explicit RankedBest(MbitsPerSec channel_rate) : channel_rate(channel_rate) {}

  void offer(MbitsPerSec headroom, BoxId id) noexcept {
    if (headroom >= need) {
      need = (headroom / channel_rate + 1) * channel_rate;
      box = id;
    }
  }

  /// True once no candidate with headroom <= `bound` can replace the best.
  [[nodiscard]] bool settled(MbitsPerSec bound) const noexcept {
    return need > bound;
  }

  MbitsPerSec channel_rate;
  MbitsPerSec need = 0;  ///< headroom is non-negative: any first fit wins
  BoxId box = BoxId::invalid();
};

/// Offer the fitting boxes of `rack` to `best` in id order, stopping as
/// soon as none of the rest can win.  Callers pass only racks whose bound
/// admits `need`; a rack whose bound is below it could not change `best`.
void rank_rack(const topo::Cluster& cluster, ResourceType type, Units units,
               RackId rack, const PathHeadroom& headroom, RankedBest& best,
               SearchTally* tally) {
  const MbitsPerSec bound = headroom.rack_bound(rack);
  assert(!best.settled(bound));
  if (tally != nullptr) ++tally->racks;
  for (BoxId id : cluster.boxes_of_type_in_rack(rack, type)) {
    if (cluster.box_unchecked(id).available_units() >= units) {
      best.offer(headroom.of(id, bound), id);
      if (best.settled(bound)) return;
    }
  }
}

/// The bandwidth-descending walk over the candidate racks in ascending id
/// order, ranking only the racks whose bound still admits `best.need`.
/// Each shard's candidate word is the index's type word (racks with a
/// fitting box), the filter word and `live`: the anchor rack while `need`
/// fits a full link, and every other rack while `need` fits both the
/// anchor's best rack uplink and its own -- one lane compare of the
/// fabric's rack-headroom lanes per 64 racks.  `need` is a multiple of the
/// channel rate, so the lane compare decides `need <= bound` exactly, and
/// it only grows, so re-masking the rest of the word after a rank raises
/// it drops exactly the racks that became unable to win (DESIGN.md §15).
/// `rank_anchor` false leaves the anchor rack out (AnchorRackFirst's
/// second tier).
[[nodiscard]] BoxId ranked_walk(const topo::Cluster& cluster,
                                const net::Fabric& fabric, ResourceType type,
                                Units units, const RackFilter& filter,
                                const PathHeadroom& headroom, bool rank_anchor,
                                SearchTally* tally) {
  static_assert(net::Fabric::kShardRacks ==
                topo::RackAvailabilityIndex::kShardRacks);
  constexpr std::uint32_t kShardRacks = net::Fabric::kShardRacks;
  const topo::RackAvailabilityIndex& index = cluster.rack_index();
  const std::uint32_t anchor = headroom.anchor_rack().value();
  const std::uint64_t anchor_bit = std::uint64_t{1} << (anchor % kShardRacks);
  RankedBest best(fabric.config().channel_rate);
  auto live = [&](std::uint32_t shard) {
    std::uint64_t word = best.settled(headroom.anchor_uplink())
                             ? 0
                             : fabric.rack_headroom_word(shard, best.need);
    if (shard == anchor / kShardRacks) {
      word &= ~anchor_bit;
      if (rank_anchor && !best.settled(headroom.capacity())) word |= anchor_bit;
    }
    return word;
  };
  for (std::uint32_t s = 0; s < index.num_shards(); ++s) {
    std::uint64_t word = live(s);
    if (word == 0) continue;
    word &= index.type_word(s, type, units);
    if (filter.restricted()) word &= filter.mask(type).word(s);
    while (word != 0) {
      const auto bit = static_cast<std::uint32_t>(std::countr_zero(word));
      word &= word - 1;
      const MbitsPerSec need = best.need;
      rank_rack(cluster, type, units, RackId{s * kShardRacks + bit}, headroom,
                best, tally);
      if (best.need != need) word &= live(s);
    }
  }
  return best.box;
}

}  // namespace

BoxId bfs_search(const topo::Cluster& cluster, const net::Fabric& fabric,
                 RackId anchor_rack, ResourceType type, Units units,
                 NeighborOrder order, CompanionSearch companion,
                 const RackFilter& filter, SearchTally* tally) {
  if (order == NeighborOrder::BoxIdOrder) {
    if (companion == CompanionSearch::GlobalOrder) {
      // Single tier: every eligible box in per-type id order (the ordering
      // that reproduces the paper's measured inter-rack behavior).  A plain
      // scan -- no candidate list needed.
      return scan_in_id_order(cluster, type, units, filter);
    }
    // AnchorRackFirst -- the literal Algorithm 2 tiering.
    if (filter.allows(type, anchor_rack)) {
      for (BoxId id : cluster.boxes_of_type_in_rack(anchor_rack, type)) {
        if (cluster.box_unchecked(id).available_units() >= units) return id;
      }
    }
    return scan_in_id_order(cluster, type, units, filter, anchor_rack);
  }

  // BandwidthDescending: fit-filtered running argmax (RankedBest above)
  // over index-eligible racks -- racks the index excludes contain no
  // fitting box, so pruning them cannot change the winner -- ranking only
  // racks whose bound admits a winner (ranked_walk).
  const PathHeadroom headroom(fabric, anchor_rack);
  if (companion == CompanionSearch::GlobalOrder) {
    return ranked_walk(cluster, fabric, type, units, filter, headroom,
                       /*rank_anchor=*/true, tally);
  }

  // AnchorRackFirst tiers, each ranked independently.
  if (filter.allows(type, anchor_rack)) {
    RankedBest local(fabric.config().channel_rate);
    rank_rack(cluster, type, units, anchor_rack, headroom, local, tally);
    if (local.box.valid()) return local.box;
  }
  return ranked_walk(cluster, fabric, type, units, filter, headroom,
                     /*rank_anchor=*/false, tally);
}

}  // namespace risa::core

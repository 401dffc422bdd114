#include "core/risa.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/binio.hpp"
#include "core/nulb.hpp"
#include "core/shard_walk.hpp"

namespace risa::core {

RisaAllocator::RisaAllocator(AllocContext ctx, RisaOptions options)
    : Allocator(ctx), options_(options) {
  cursors_.assign(this->ctx().cluster->num_racks(),
                  PerResource<std::uint32_t>{0, 0, 0});
}

void RisaAllocator::reset() {
  rr_next_rack_ = 0;
  fallbacks_ = 0;
  std::fill(cursors_.begin(), cursors_.end(),
            PerResource<std::uint32_t>{0, 0, 0});
}

void RisaAllocator::save_state(std::ostream& os) const {
  bin::put_u32(os, rr_next_rack_);
  bin::put_u64(os, fallbacks_);
  bin::put_u64(os, cursors_.size());
  for (const auto& c : cursors_) {
    for (ResourceType t : kAllResources) bin::put_u32(os, c[t]);
  }
}

void RisaAllocator::restore_state(std::istream& is) {
  rr_next_rack_ = bin::get_u32(is);
  // The cursor seeds an unchecked shard walk: fail closed on a corrupt one.
  if (rr_next_rack_ >= ctx().cluster->num_racks()) {
    throw std::runtime_error(
        "RisaAllocator: checkpoint rack cursor out of range");
  }
  fallbacks_ = bin::get_u64(is);
  if (bin::get_u64(is) != cursors_.size()) {
    throw std::runtime_error("RisaAllocator: checkpoint rack count mismatch");
  }
  for (auto& c : cursors_) {
    for (ResourceType t : kAllResources) c[t] = bin::get_u32(is);
  }
}

std::vector<RackId> RisaAllocator::intra_rack_pool(const UnitVector& units) const {
  RackSet mask;
  ctx().cluster->eligible_racks(units, mask);
  std::vector<RackId> pool;
  pool.reserve(mask.count());
  mask.for_each([&](RackId r) { pool.push_back(r); });
  return pool;
}

PerResource<std::vector<RackId>> RisaAllocator::super_rack(
    const UnitVector& units) const {
  PerResource<std::vector<RackId>> lists;
  RackSet mask;
  for (ResourceType t : kAllResources) {
    ctx().cluster->eligible_racks(t, units[t], mask);
    lists[t].reserve(mask.count());
    mask.for_each([&](RackId r) { lists[t].push_back(r); });
  }
  return lists;
}

BoxId RisaAllocator::pick_box_in_rack(RackId rack, ResourceType type,
                                      Units units) {
  const topo::Cluster& cluster = *ctx().cluster;
  const std::span<const BoxId> boxes = cluster.rack_unchecked(rack).boxes(type);
  const auto count = static_cast<std::uint32_t>(boxes.size());
  if (count == 0) return BoxId::invalid();

  switch (options_.packing) {
    case RackPacking::NextFit: {
      // First-fit with a roving pointer: scan from the cursor, wrapping;
      // the cursor stays on the chosen box (Table 4 semantics).  The
      // cursor is below `count` unless a checkpoint says otherwise, so the
      // walk wraps by compare, not by a divide per step.
      auto& cursor = cursors_[rack.value()][type];
      std::uint32_t idx = cursor < count ? cursor : cursor % count;
      for (std::uint32_t k = 0; k < count; ++k) {
        if (cluster.box_unchecked(boxes[idx]).available_units() >= units) {
          cursor = idx;
          return boxes[idx];
        }
        idx = idx + 1 == count ? 0 : idx + 1;
      }
      return BoxId::invalid();
    }
    case RackPacking::BestFit: {
      BoxId best = BoxId::invalid();
      Units best_avail = 0;
      for (BoxId id : boxes) {
        const Units avail = cluster.box_unchecked(id).available_units();
        if (avail < units) continue;
        if (!best.valid() || avail < best_avail) {
          best = id;
          best_avail = avail;
        }
      }
      return best;
    }
  }
  return BoxId::invalid();
}

std::optional<DropReason> RisaAllocator::place(const wl::VmRequest& vm,
                                              Placement& out) {
  const UnitVector units = demand_units(vm);
  const topo::RackAvailabilityIndex& index = ctx().cluster->rack_index();

  // O(1) reject off the cluster-wide maxima: a component no box anywhere
  // can host means the matching SUPER_RACK list below would come up empty,
  // and the intra-rack pool (a subset of every SUPER_RACK list) with it --
  // the same NoComputeResources drop without walking a single shard.  On a
  // saturated cluster this is the common case.
  for (ResourceType t : kAllResources) {
    if (index.cluster_max(t) < units[t]) {
      return DropReason::NoComputeResources;
    }
  }

  const net::BandwidthDemand demand = ctx().bandwidth.demand(units);
  // An intra-rack placement consumes each flow on two box uplinks of the
  // rack (source box -> rack switch -> destination box).
  const MbitsPerSec intra_bw_needed = 2 * demand.cpu_ram + 2 * demand.ram_sto;

  // INTRA_RACK_POOL, sharded: the walk materializes one 64-rack eligibility
  // word of the index at a time, in the exact cyclic ascending order the
  // eager pool bitmask was walked in -- racks the round-robin rotation
  // never reaches are never even queried.  The cursor then moves past the
  // chosen rack.
  {
    ShardedPoolWalk walk(index, units,
                         options_.selection == RackSelection::RoundRobin
                             ? rr_next_rack_
                             : 0);
    for (RackId rack = walk.next(); rack.valid(); rack = walk.next()) {
      if (ctx().fabric->rack_intra_available(rack) < intra_bw_needed) continue;
      PerResource<BoxId> boxes{BoxId::invalid(), BoxId::invalid(),
                               BoxId::invalid()};
      bool found = true;
      for (ResourceType t : kAllResources) {
        boxes[t] = pick_box_in_rack(rack, t, units[t]);
        if (!boxes[t].valid()) {
          found = false;
          break;
        }
      }
      if (found) {
        if (!commit(vm, units, boxes, net::LinkSelectPolicy::FirstFit,
                    /*used_fallback=*/false, out)) {
          if (options_.selection == RackSelection::RoundRobin) {
            const std::uint32_t next = rack.value() + 1;
            rr_next_rack_ = next == ctx().cluster->num_racks() ? 0 : next;
          }
          return std::nullopt;
        }
        // Per-link granularity can reject a rack that passed the aggregate
        // check; commit() rolled back, so the next pool rack can be tried.
      }
    }
  }

  // SUPER_RACK fallback: NULB restricted to racks that can host each
  // resource individually (inter-rack assignment is now unavoidable).
  // The cluster_max gate above already proved every list non-empty.
  PerResource<RackSet> lists;
  for (ResourceType t : kAllResources) {
    ctx().cluster->eligible_racks(t, units[t], lists[t]);
  }
  auto boxes = nulb_find_boxes(*ctx().cluster, *ctx().fabric, units,
                               NeighborOrder::BoxIdOrder,
                               CompanionSearch::GlobalOrder,
                               RackFilter{std::move(lists)});
  if (!boxes.ok()) return boxes.error();
  const auto reason = commit(vm, units, boxes.value(),
                             net::LinkSelectPolicy::FirstFit,
                             /*used_fallback=*/true, out);
  if (!reason) ++fallbacks_;
  return reason;
}

std::unique_ptr<RisaAllocator> make_risa(AllocContext ctx) {
  return std::make_unique<RisaAllocator>(ctx, RisaOptions{});
}

std::unique_ptr<RisaAllocator> make_risa_bf(AllocContext ctx) {
  RisaOptions options;
  options.packing = RackPacking::BestFit;
  return std::make_unique<RisaAllocator>(ctx, options);
}

}  // namespace risa::core

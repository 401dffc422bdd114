// Property test for the incremental rack-availability index: across
// randomized allocate/release/offline sequences, the index-backed
// INTRA_RACK_POOL / SUPER_RACK queries must return byte-identical results
// to a naive rescan of the per-rack aggregates (the pre-index
// implementation), and the cluster invariants (which cross-check the
// index's leaves and inner nodes) must hold throughout.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/risa.hpp"
#include "network/circuit.hpp"
#include "network/fabric.hpp"
#include "network/routing.hpp"
#include "topology/cluster.hpp"
#include "topology/config.hpp"

namespace risa::core {
namespace {

/// The pre-index implementation: rescan every rack per query.
std::vector<RackId> naive_pool(const topo::Cluster& cluster,
                               const UnitVector& units) {
  std::vector<RackId> pool;
  for (std::uint32_t r = 0; r < cluster.num_racks(); ++r) {
    const topo::Rack& rack = cluster.rack(RackId{r});
    bool fits = true;
    for (ResourceType t : kAllResources) {
      if (rack.max_available(t) < units[t]) {
        fits = false;
        break;
      }
    }
    if (fits) pool.push_back(RackId{r});
  }
  return pool;
}

PerResource<std::vector<RackId>> naive_super(const topo::Cluster& cluster,
                                             const UnitVector& units) {
  PerResource<std::vector<RackId>> lists;
  for (std::uint32_t r = 0; r < cluster.num_racks(); ++r) {
    const topo::Rack& rack = cluster.rack(RackId{r});
    for (ResourceType t : kAllResources) {
      if (rack.max_available(t) >= units[t]) {
        lists[t].push_back(RackId{r});
      }
    }
  }
  return lists;
}

std::vector<RackId> mask_to_vector(const RackSet& mask) {
  std::vector<RackId> out;
  mask.for_each([&](RackId r) { out.push_back(r); });
  return out;
}

/// Compare index-backed queries against the naive rescan for a demand.
void expect_queries_match(const topo::Cluster& cluster, const UnitVector& units) {
  RackSet mask;
  cluster.eligible_racks(units, mask);
  EXPECT_EQ(mask_to_vector(mask), naive_pool(cluster, units));

  const auto super = naive_super(cluster, units);
  for (ResourceType t : kAllResources) {
    cluster.eligible_racks(t, units[t], mask);
    EXPECT_EQ(mask_to_vector(mask), super[t]);
  }
}

/// Drive a cluster through a random allocate/release/offline/online churn,
/// cross-checking the index against the naive rescan along the way.
void run_churn(topo::ClusterConfig config, std::uint64_t seed,
               int steps, int queries_per_check) {
  topo::Cluster cluster(config);
  Rng rng(seed);
  std::vector<topo::BoxAllocation> live;
  std::vector<BoxId> offline;

  const auto random_units = [&] {
    UnitVector u{0, 0, 0};
    for (ResourceType t : kAllResources) {
      u[t] = rng.uniform_int(0, config.box_units(t) + 1);  // may exceed any box
    }
    return u;
  };

  for (int step = 0; step < steps; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    if (op < 5) {
      // Allocate a random amount from a random box (may fail: fine).
      const BoxId box{static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cluster.num_boxes()) - 1))};
      const Units want = rng.uniform_int(1, config.box_units(cluster.box(box).type()));
      topo::BoxAllocation alloc;
      if (cluster.allocate_into(box, want, alloc)) live.push_back(alloc);
    } else if (op < 8) {
      if (!live.empty()) {
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        cluster.release(live[i]);
        live[i] = std::move(live.back());
        live.pop_back();
      }
    } else if (op == 8) {
      // Take a random box offline (its availability leaves the maxima).
      const BoxId box{static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cluster.num_boxes()) - 1))};
      if (!cluster.box(box).offline()) {
        cluster.set_box_offline(box, true);
        offline.push_back(box);
      }
    } else {
      if (!offline.empty()) {
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(offline.size()) - 1));
        cluster.set_box_offline(offline[i], false);
        offline[i] = offline.back();
        offline.pop_back();
      }
    }

    if (step % 16 == 0) {
      cluster.check_invariants();
      for (int q = 0; q < queries_per_check; ++q) {
        expect_queries_match(cluster, random_units());
      }
      // Boundary demands: zero (every rack fits) and above-capacity (none).
      expect_queries_match(cluster, UnitVector{0, 0, 0});
      expect_queries_match(
          cluster, UnitVector{config.box_units(ResourceType::Cpu) + 1,
                              config.box_units(ResourceType::Ram) + 1,
                              config.box_units(ResourceType::Storage) + 1});
    }
  }
  cluster.check_invariants();
}

TEST(IndexEquivalence, PaperClusterChurn) {
  run_churn(topo::ClusterConfig{}, 0xA11CE5EEDULL, 2000, 8);
}

TEST(IndexEquivalence, ToyClusterChurn) {
  run_churn(topo::ClusterConfig::toy_example(), 0xB0B5EEDULL, 1500, 8);
}

TEST(IndexEquivalence, UnevenClusterChurn) {
  topo::ClusterConfig cfg;
  cfg.racks = 33;  // non-power-of-two: exercises the phantom leaves padding
                   // the tree to base 64
  cfg.boxes_per_rack = PerResource<std::uint32_t>{3, 1, 2};
  cfg.bricks_per_box = 5;
  run_churn(cfg, 0xC0FFEE5EEDULL, 2000, 8);
}

TEST(IndexEquivalence, LargeClusterSpansMultipleShards) {
  topo::ClusterConfig cfg;
  cfg.racks = 2 * topo::RackAvailabilityIndex::kShardRacks + 17;  // 3 shards,
                                                                  // ragged tail
  run_churn(cfg, 0xD15C0DEULL, 800, 4);
}

// The RisaAllocator surface built on the index must match the naive rescan
// too, including through full placements (which mutate via commit/rollback).
TEST(IndexEquivalence, RisaAllocatorPoolMatchesNaive) {
  topo::ClusterConfig config;
  topo::Cluster cluster(config);
  net::Fabric fabric(config, net::FabricConfig{});
  net::Router router(fabric);
  net::CircuitTable circuits(router);
  AllocContext ctx;
  ctx.cluster = &cluster;
  ctx.fabric = &fabric;
  ctx.router = &router;
  ctx.circuits = &circuits;
  RisaAllocator risa(ctx);

  Rng rng(0xF00D5EEDULL);
  std::vector<Placement> placements;
  for (int i = 0; i < 300; ++i) {
    wl::VmRequest vm;
    vm.id = VmId{static_cast<std::uint32_t>(i)};
    vm.cores = rng.uniform_int(1, 32);
    vm.ram_mb = static_cast<Megabytes>(rng.uniform_int(1, 64)) * 1024;
    vm.storage_mb = static_cast<Megabytes>(128) * 1024;
    vm.lifetime = 100.0;
    auto placed = risa.try_place(vm);
    if (placed.ok()) placements.push_back(std::move(placed.value()));
    if (!placements.empty() && rng.uniform_int(0, 3) == 0) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(placements.size()) - 1));
      risa.release(placements[j]);
      placements[j] = std::move(placements.back());
      placements.pop_back();
    }

    const UnitVector demand{rng.uniform_int(0, 128), rng.uniform_int(0, 128),
                            rng.uniform_int(0, 128)};
    EXPECT_EQ(risa.intra_rack_pool(demand), naive_pool(cluster, demand));
    const auto super = risa.super_rack(demand);
    const auto naive = naive_super(cluster, demand);
    for (ResourceType t : kAllResources) {
      EXPECT_EQ(super[t], naive[t]);
    }
  }
  cluster.check_invariants();
  fabric.check_invariants();
}

}  // namespace
}  // namespace risa::core

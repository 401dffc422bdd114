// Differential suite for the vectorized availability index and the sharded
// pool walk (DESIGN.md §10).  Four properties are pinned:
//
//   1. The dispatched ge_mask64 kernel (AVX2/SSE2/NEON or scalar, whichever
//      the build selected) agrees bit for bit with the always-compiled
//      scalar reference on adversarial lane patterns -- so RISA_ENABLE_SIMD
//      ON and OFF builds are interchangeable.
//   2. Under randomized allocate/release/offline churn, every per-shard
//      membership word (pool_word / type_word) equals a naive per-rack
//      rescan, and equals the corresponding word of the full-mask query --
//      the word-granular contract the sharded scans rely on.
//   3. ShardedPoolWalk's lazily-computed visit sequence is exactly the
//      eager cyclic ascending walk over the materialized pool mask, from
//      any start -- the determinism argument in shard_walk.hpp, tested.
//   4. The RisaAllocator pool queries stay equivalent to the naive rescan
//      while placements run against a fabric with live link failures and
//      repairs (commit/rollback paths under degraded bandwidth).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/rack_set.hpp"
#include "common/simd.hpp"
#include "core/risa.hpp"
#include "core/shard_walk.hpp"
#include "network/circuit.hpp"
#include "network/fabric.hpp"
#include "network/routing.hpp"
#include "topology/cluster.hpp"
#include "topology/config.hpp"

namespace risa::core {
namespace {

using topo::RackAvailabilityIndex;

// ---- 1. kernel differential -------------------------------------------------

using Lanes = std::array<std::uint16_t, 64>;

void expect_kernel_matches(const Lanes& lanes, std::uint16_t threshold) {
  EXPECT_EQ(simd::ge_mask64(lanes.data(), threshold),
            simd::detail::ge_mask64_scalar(lanes.data(), threshold))
      << "threshold=" << threshold << " backend=" << simd::kBackend;
}

TEST(IndexSimdKernel, BoundaryPatterns) {
  const std::uint16_t thresholds[] = {0, 1, 2, 255, 256, 32767,
                                      32768, 65534, 65535};
  Lanes lanes{};

  // All-zero and all-max lanes.
  for (std::uint16_t thr : thresholds) expect_kernel_matches(lanes, thr);
  lanes.fill(65535);
  for (std::uint16_t thr : thresholds) expect_kernel_matches(lanes, thr);

  // Ascending ramp: lanes straddle every threshold from both sides.
  for (unsigned i = 0; i < 64; ++i) {
    lanes[i] = static_cast<std::uint16_t>(i * 1040);  // 0 .. 65520
  }
  for (std::uint16_t thr : thresholds) expect_kernel_matches(lanes, thr);

  // Exact-equality lanes: >= must report lanes *equal* to the threshold.
  for (std::uint16_t thr : thresholds) {
    lanes.fill(thr);
    expect_kernel_matches(lanes, thr);
    const std::uint64_t mask = simd::ge_mask64(lanes.data(), thr);
    EXPECT_EQ(mask, ~std::uint64_t{0}) << "lane == threshold must be set";
  }

  // The sign-flip edge for the saturating-subtract trick: values around
  // 0x8000 behave differently under signed compares; the kernel must not.
  for (unsigned i = 0; i < 64; ++i) {
    lanes[i] = static_cast<std::uint16_t>(0x7FFE + (i % 5));
  }
  for (std::uint16_t thr : {std::uint16_t{0x7FFF}, std::uint16_t{0x8000},
                            std::uint16_t{0x8001}}) {
    expect_kernel_matches(lanes, thr);
  }
}

TEST(IndexSimdKernel, RandomizedLanes) {
  Rng rng(0x51D0F5EEDULL);
  Lanes lanes{};
  for (int trial = 0; trial < 2000; ++trial) {
    const auto thr =
        static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    for (auto& lane : lanes) {
      // Mix uniform lanes with near-threshold lanes so every trial has
      // bits on both sides of (and exactly at) the boundary.
      const int mode = static_cast<int>(rng.uniform_int(0, 3));
      if (mode == 0) {
        lane = thr;
      } else if (mode == 1) {
        lane = static_cast<std::uint16_t>(thr + rng.uniform_int(-1, 1));
      } else {
        lane = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
      }
    }
    expect_kernel_matches(lanes, thr);
  }
}

// ---- shared naive oracles ---------------------------------------------------

/// Naive per-shard INTRA_RACK_POOL word: rescan the rack aggregates.
std::uint64_t naive_pool_word(const topo::Cluster& cluster, std::uint32_t shard,
                              const UnitVector& units) {
  std::uint64_t word = 0;
  const std::uint32_t base = shard * RackAvailabilityIndex::kShardRacks;
  for (std::uint32_t bit = 0; bit < RackAvailabilityIndex::kShardRacks; ++bit) {
    const std::uint32_t r = base + bit;
    if (r >= cluster.num_racks()) break;
    bool fits = true;
    for (ResourceType t : kAllResources) {
      if (cluster.rack(RackId{r}).max_available(t) < units[t]) {
        fits = false;
        break;
      }
    }
    if (fits) word |= std::uint64_t{1} << bit;
  }
  return word;
}

/// Naive per-shard SUPER_RACK word for one type.
std::uint64_t naive_type_word(const topo::Cluster& cluster, std::uint32_t shard,
                              ResourceType type, Units units) {
  std::uint64_t word = 0;
  const std::uint32_t base = shard * RackAvailabilityIndex::kShardRacks;
  for (std::uint32_t bit = 0; bit < RackAvailabilityIndex::kShardRacks; ++bit) {
    const std::uint32_t r = base + bit;
    if (r >= cluster.num_racks()) break;
    if (cluster.rack(RackId{r}).max_available(type) >= units) {
      word |= std::uint64_t{1} << bit;
    }
  }
  return word;
}

/// Word-level check: every shard word against the naive rescan, and against
/// the corresponding word of the materialized full-mask answer.
void expect_words_match(const topo::Cluster& cluster, const UnitVector& units) {
  const RackAvailabilityIndex& index = cluster.rack_index();
  RackSet pool;
  cluster.eligible_racks(units, pool);
  for (std::uint32_t s = 0; s < index.num_shards(); ++s) {
    const std::uint64_t expected = naive_pool_word(cluster, s, units);
    EXPECT_EQ(index.pool_word(s, units), expected) << "shard " << s;
    EXPECT_EQ(pool.word(s), expected) << "pool_mask word " << s;
  }
  for (ResourceType t : kAllResources) {
    RackSet super;
    cluster.eligible_racks(t, units[t], super);
    for (std::uint32_t s = 0; s < index.num_shards(); ++s) {
      const std::uint64_t expected = naive_type_word(cluster, s, t, units[t]);
      EXPECT_EQ(index.type_word(s, t, units[t]), expected)
          << "type " << name(t) << " shard " << s;
      EXPECT_EQ(super.word(s), expected)
          << "type_mask " << name(t) << " word " << s;
    }
  }
}

/// The eager reference walk: materialize the pool mask, then visit it in
/// cyclic ascending order from `start` with RackSet::next.
std::vector<RackId> eager_walk(const topo::Cluster& cluster,
                               const UnitVector& units, std::uint32_t start) {
  RackSet mask;
  cluster.eligible_racks(units, mask);
  std::vector<RackId> out;
  for (RackId r = mask.next(start); r.valid(); r = mask.next(r.value() + 1)) {
    out.push_back(r);
  }
  for (RackId r = mask.next(0); r.valid() && r.value() < start;
       r = mask.next(r.value() + 1)) {
    out.push_back(r);
  }
  return out;
}

std::vector<RackId> sharded_walk(const topo::Cluster& cluster,
                                 const UnitVector& units, std::uint32_t start) {
  ShardedPoolWalk walk(cluster.rack_index(), units, start);
  std::vector<RackId> out;
  for (RackId r = walk.next(); r.valid(); r = walk.next()) out.push_back(r);
  return out;
}

// ---- 2 + 3. churn over words and walks --------------------------------------

/// Random allocate/release/offline churn cross-checking shard words and
/// walk order throughout (mirrors test_core_index_equivalence's churn but
/// at word/sequence granularity).
void run_word_churn(const topo::ClusterConfig& config, std::uint64_t seed,
                    int steps) {
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
      const BoxId box{static_cast<std::uint32_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(cluster.num_boxes()) - 1))};
      const Units want =
          rng.uniform_int(1, config.box_units(cluster.box(box).type()));
      topo::BoxAllocation alloc;
      if (cluster.allocate_into(box, want, alloc)) live.push_back(alloc);
    } else if (op < 8) {
      if (!live.empty()) {
        const auto i = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        cluster.release(live[i]);
        live[i] = std::move(live.back());
        live.pop_back();
      }
    } else if (op == 8) {
      const BoxId box{static_cast<std::uint32_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(cluster.num_boxes()) - 1))};
      if (!cluster.box(box).offline()) {
        cluster.set_box_offline(box, true);
        offline.push_back(box);
      }
    } else {
      if (!offline.empty()) {
        const auto i = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(offline.size()) - 1));
        cluster.set_box_offline(offline[i], false);
        offline[i] = offline.back();
        offline.pop_back();
      }
    }

    if (step % 16 == 0) {
      cluster.check_invariants();
      for (int q = 0; q < 4; ++q) {
        const UnitVector units = random_units();
        expect_words_match(cluster, units);
        // Walk order from boundary starts (shard edges) and a random start.
        const std::uint32_t starts[] = {
            0, 63 % cluster.num_racks(), 64 % cluster.num_racks(),
            cluster.num_racks() - 1,
            static_cast<std::uint32_t>(
                rng.uniform_int(0, cluster.num_racks() - 1))};
        for (std::uint32_t start : starts) {
          EXPECT_EQ(sharded_walk(cluster, units, start),
                    eager_walk(cluster, units, start))
              << "start=" << start;
        }
      }
      expect_words_match(cluster, UnitVector{0, 0, 0});
    }
  }
  cluster.check_invariants();
}

TEST(IndexSimdWords, PaperClusterChurn) {
  run_word_churn(topo::ClusterConfig{}, 0xA5EED001ULL, 1500);
}

TEST(IndexSimdWords, MultiShardChurn) {
  topo::ClusterConfig cfg;
  cfg.racks = 2 * RackAvailabilityIndex::kShardRacks + 17;  // 3 shards, ragged
  run_word_churn(cfg, 0xB5EED002ULL, 800);
}

// Lanes saturate at kLaneMax; demands above it must take the exact-value
// path and still agree with the naive rescan (and the walk order).
TEST(IndexSimdWords, SaturatedLanesChurn) {
  topo::ClusterConfig cfg;
  cfg.racks = RackAvailabilityIndex::kShardRacks + 3;  // 2 shards
  cfg.boxes_per_rack = PerResource<std::uint32_t>{1, 1, 1};
  cfg.bricks_per_box = 1;
  // CPU above the u16 ceiling, RAM exactly at it, storage just past it:
  // every query mixes saturated and representable lanes.
  cfg.box_units_override =
      UnitVector{RackAvailabilityIndex::kLaneMax + 40000,
                 RackAvailabilityIndex::kLaneMax,
                 RackAvailabilityIndex::kLaneMax + 1};
  run_word_churn(cfg, 0xC5EED003ULL, 600);
}

TEST(IndexSimdWords, WalkFromEveryStartOnPartialPool) {
  // Deterministic occupancy, then the walk order is checked from *every*
  // start position (the churn test samples starts; this is exhaustive).
  topo::ClusterConfig cfg;
  cfg.racks = RackAvailabilityIndex::kShardRacks + 21;
  topo::Cluster cluster(cfg);
  Rng rng(0xD5EED004ULL);
  std::vector<topo::BoxAllocation> live;
  for (int i = 0; i < 400; ++i) {
    const BoxId box{static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(cluster.num_boxes()) - 1))};
    const Units want =
        rng.uniform_int(1, cfg.box_units(cluster.box(box).type()));
    topo::BoxAllocation alloc;
    if (cluster.allocate_into(box, want, alloc)) live.push_back(alloc);
  }
  const UnitVector demands[] = {{0, 0, 0},
                                {1, 1, 1},
                                {cfg.box_units(ResourceType::Cpu) / 2,
                                 cfg.box_units(ResourceType::Ram) / 2,
                                 cfg.box_units(ResourceType::Storage) / 2},
                                {cfg.box_units(ResourceType::Cpu),
                                 cfg.box_units(ResourceType::Ram),
                                 cfg.box_units(ResourceType::Storage)}};
  for (const UnitVector& units : demands) {
    for (std::uint32_t start = 0; start < cluster.num_racks(); ++start) {
      ASSERT_EQ(sharded_walk(cluster, units, start),
                eager_walk(cluster, units, start))
          << "start=" << start;
    }
  }
}

// ---- 4. allocator equivalence under link failures ---------------------------

TEST(IndexSimdWords, RisaAllocatorMatchesNaiveUnderLinkFailures) {
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

  Rng rng(0xE5EED005ULL);
  std::vector<Placement> placements;
  std::vector<LinkId> failed;
  for (int i = 0; i < 400; ++i) {
    wl::VmRequest vm;
    vm.id = VmId{static_cast<std::uint32_t>(i)};
    vm.cores = rng.uniform_int(1, 32);
    vm.ram_mb = static_cast<Megabytes>(rng.uniform_int(1, 64)) * 1024;
    vm.storage_mb = static_cast<Megabytes>(128) * 1024;
    vm.lifetime = 100.0;
    auto placed = risa.try_place(vm);
    if (placed.ok()) placements.push_back(std::move(placed.value()));

    if (!placements.empty() && rng.uniform_int(0, 3) == 0) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(placements.size()) - 1));
      risa.release(placements[j]);
      placements[j] = std::move(placements.back());
      placements.pop_back();
    }

    // Fail or repair a random link.  Circuits reserved before a failure
    // remain releasable, so no placement bookkeeping is needed here --
    // only the index/pool answers are under test.
    if (rng.uniform_int(0, 4) == 0) {
      const LinkId link{static_cast<std::uint32_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(fabric.num_links()) - 1))};
      if (rng.uniform_int(0, 1) == 0 || failed.empty()) {
        fabric.set_link_failed(link, true);
        failed.push_back(link);
      } else {
        const auto j = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(failed.size()) - 1));
        fabric.set_link_failed(failed[j], false);
        failed[j] = failed.back();
        failed.pop_back();
      }
    }

    const UnitVector demand{rng.uniform_int(0, 128), rng.uniform_int(0, 128),
                            rng.uniform_int(0, 128)};
    expect_words_match(cluster, demand);
    const std::uint32_t start = static_cast<std::uint32_t>(
        rng.uniform_int(0, cluster.num_racks() - 1));
    EXPECT_EQ(sharded_walk(cluster, demand, start),
              eager_walk(cluster, demand, start));
  }
  cluster.check_invariants();
}

}  // namespace
}  // namespace risa::core

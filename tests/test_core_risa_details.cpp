// RISA fine-grained behaviours: round-robin cursor semantics, next-fit
// cursor wrap/stay rules, pool interaction with the intra-rack network
// check, fallback bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/risa.hpp"
#include "sim/experiments.hpp"

namespace risa::core {
namespace {

using sim::toy_vm;

struct Stack {
  explicit Stack(topo::ClusterConfig cfg = topo::ClusterConfig{})
      : cluster(cfg),
        fabric(cfg, net::FabricConfig{}),
        router(fabric),
        circuits(router) {}
  AllocContext context() {
    AllocContext ctx;
    ctx.cluster = &cluster;
    ctx.fabric = &fabric;
    ctx.router = &router;
    ctx.circuits = &circuits;
    return ctx;
  }
  topo::Cluster cluster;
  net::Fabric fabric;
  net::Router router;
  net::CircuitTable circuits;
};

TEST(RisaRoundRobin, CursorSkipsIneligibleRacks) {
  Stack stack;
  // Make racks 1-3 ineligible for an 8-unit CPU demand.
  topo::BoxAllocation taken;
  for (std::uint32_t r = 1; r <= 3; ++r) {
    for (BoxId id :
         stack.cluster.boxes_of_type_in_rack(RackId{r}, ResourceType::Cpu)) {
      ASSERT_TRUE(stack.cluster.allocate_into(id, 122, taken));  // 6 < 8 left
    }
  }
  RisaAllocator risa(stack.context());
  // Placements walk 0 -> 4 -> 5 ... skipping the hollowed-out racks.
  auto p0 = risa.try_place(toy_vm(0, 32, 16.0, 128.0));  // 8 CPU units
  auto p1 = risa.try_place(toy_vm(1, 32, 16.0, 128.0));
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p0->rack(ResourceType::Cpu), RackId{0});
  EXPECT_EQ(p1->rack(ResourceType::Cpu), RackId{4});
}

TEST(RisaRoundRobin, CursorWrapsPastLastRack) {
  Stack stack;
  RisaAllocator risa(stack.context());
  std::uint32_t last = 0;
  for (std::uint32_t i = 0; i < 20; ++i) {  // 18 racks -> wraps past the end
    auto placed = risa.try_place(toy_vm(i, 8, 8.0, 128.0));
    ASSERT_TRUE(placed.ok());
    last = placed->rack(ResourceType::Cpu).value();
    EXPECT_EQ(last, i % 18) << "placement " << i;
  }
}

TEST(RisaNextFit, CursorStaysOnLastChosenBox) {
  // Reproduce the roving-pointer property in isolation: after box 0 fills,
  // every later VM that fits box 1 goes to box 1 even when box 0 regains
  // space mid-sequence via a release.
  // (Toy scale is 1 core/unit, so CPU-RAM bandwidth is 5 Gb/s per core;
  // requests stay <= 40 cores to fit a single 200 Gb/s link.)
  auto stack = sim::make_table4_stack();
  RisaAllocator risa(stack->context());
  auto a = risa.try_place(toy_vm(0, 40, 1.0, 64.0));  // box 0: 24 left
  ASSERT_TRUE(a.ok());
  auto b = risa.try_place(toy_vm(1, 30, 1.0, 64.0));  // -> box 1 (cursor moves)
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(stack->cluster().box(b->box(ResourceType::Cpu)).index_in_type(),
            3u);
  risa.release(a.value());  // box 0 fully free again
  auto c = risa.try_place(toy_vm(2, 2, 1.0, 64.0));
  ASSERT_TRUE(c.ok());
  // Next-fit keeps packing box 1 (cursor there), not the freed box 0.
  EXPECT_EQ(stack->cluster().box(c->box(ResourceType::Cpu)).index_in_type(),
            3u);
}

TEST(RisaNetworkCheck, PoolRackWithoutBandwidthIsSkipped) {
  Stack stack;
  // Exhaust rack 0's intra bandwidth entirely; compute-wise it stays the
  // first eligible rack, but AVAIL_INTRA_RACK_NET must reject it.
  for (std::uint32_t b = 0; b < stack.cluster.config().total_boxes_per_rack();
       ++b) {
    for (LinkId id : stack.fabric.box_uplinks(BoxId{b})) {
      ASSERT_TRUE(
          stack.fabric.allocate(id, stack.fabric.link(id).available()));
    }
  }
  RisaAllocator risa(stack.context());
  auto placed = risa.try_place(toy_vm(0, 8, 16.0, 128.0));
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed->rack(ResourceType::Cpu), RackId{1});
  EXPECT_FALSE(placed->inter_rack);
  EXPECT_FALSE(placed->used_fallback);
  EXPECT_EQ(risa.fallback_count(), 0u);
}

TEST(RisaNetworkCheck, AllRacksBandwidthStarvedFallsBackThenDrops) {
  Stack stack;
  for (std::uint32_t b = 0; b < stack.cluster.num_boxes(); ++b) {
    for (LinkId id : stack.fabric.box_uplinks(BoxId{b})) {
      ASSERT_TRUE(
          stack.fabric.allocate(id, stack.fabric.link(id).available()));
    }
  }
  RisaAllocator risa(stack.context());
  auto placed = risa.try_place(toy_vm(0, 8, 16.0, 128.0));
  ASSERT_FALSE(placed.ok());
  // The SUPER_RACK fallback found compute but its network phase failed.
  EXPECT_EQ(placed.error(), DropReason::NoNetworkResources);
  EXPECT_EQ(risa.fallback_count(), 0u);  // only successful fallbacks count
  EXPECT_EQ(stack.cluster.total_available(ResourceType::Cpu), 4608);
}

TEST(RisaPool, PoolAndSuperRackAgreeOnEligibility) {
  Stack stack;
  RisaAllocator risa(stack.context());
  const UnitVector demand{8, 4, 2};
  const auto pool = risa.intra_rack_pool(demand);
  const auto super = risa.super_rack(demand);
  // A rack is in the pool iff it appears in every per-type SUPER_RACK list.
  for (std::uint32_t r = 0; r < stack.cluster.num_racks(); ++r) {
    bool in_all = true;
    for (ResourceType t : kAllResources) {
      const auto& list = super[t];
      if (std::find(list.begin(), list.end(), RackId{r}) == list.end()) {
        in_all = false;
      }
    }
    const bool in_pool =
        std::find(pool.begin(), pool.end(), RackId{r}) != pool.end();
    EXPECT_EQ(in_pool, in_all) << "rack " << r;
  }
}

}  // namespace
}  // namespace risa::core

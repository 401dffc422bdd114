// Failure injection: offline boxes and failed links must leave every
// aggregate consistent, steer the schedulers away, and allow clean release
// of resident state.
#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "core/risa.hpp"
#include "network/fabric.hpp"
#include "sim/experiments.hpp"
#include "topology/cluster.hpp"

namespace risa {
namespace {

TEST(BoxFailure, OfflineBoxLeavesAggregates) {
  topo::Cluster cluster((topo::ClusterConfig()));
  const BoxId victim = cluster.boxes_of_type(ResourceType::Cpu)[0];
  topo::BoxAllocation alloc;
  ASSERT_TRUE(cluster.allocate_into(victim, 28, alloc));
  ASSERT_EQ(cluster.total_available(ResourceType::Cpu), 4608 - 28);

  cluster.set_box_offline(victim, true);
  EXPECT_EQ(cluster.box(victim).available_units(), 0);
  EXPECT_EQ(cluster.box(victim).raw_available_units(), 100);
  EXPECT_EQ(cluster.total_available(ResourceType::Cpu), 4608 - 128);
  EXPECT_EQ(cluster.rack(RackId{0}).max_available(ResourceType::Cpu), 128);
  cluster.check_invariants();

  // New allocations on the offline box fail; the resident allocation can
  // still be released but its units stay unavailable.
  topo::BoxAllocation refused;
  EXPECT_FALSE(cluster.allocate_into(victim, 1, refused));
  cluster.release(alloc);
  EXPECT_EQ(cluster.total_available(ResourceType::Cpu), 4608 - 128);
  cluster.check_invariants();

  // Repair restores the full box.
  cluster.set_box_offline(victim, false);
  EXPECT_EQ(cluster.total_available(ResourceType::Cpu), 4608);
  cluster.check_invariants();
}

TEST(BoxFailure, IdempotentTransitions) {
  topo::Cluster cluster((topo::ClusterConfig()));
  const BoxId victim = cluster.boxes_of_type(ResourceType::Ram)[5];
  cluster.set_box_offline(victim, true);
  cluster.set_box_offline(victim, true);  // no double-subtract
  EXPECT_EQ(cluster.total_available(ResourceType::Ram), 4608 - 128);
  cluster.set_box_offline(victim, false);
  cluster.set_box_offline(victim, false);
  EXPECT_EQ(cluster.total_available(ResourceType::Ram), 4608);
  cluster.check_invariants();
}

TEST(BoxFailure, BatchedSameRackReleasesIncludingAnOfflineBox) {
  // A settlement batch releasing several allocations in one rack, one box
  // of which is offline.  Releases only raise availability, so every
  // aggregate and the index must be exact after each batched release, not
  // just when the batch closes.
  topo::Cluster cluster((topo::ClusterConfig()));
  const RackId rack{0};
  const auto& cpu = cluster.rack(rack).boxes(ResourceType::Cpu);
  ASSERT_EQ(cpu.size(), 2u);
  const BoxId down = cpu[0];
  const BoxId up = cpu[1];
  const BoxId ram = cluster.rack(rack).boxes(ResourceType::Ram)[0];
  std::vector<topo::BoxAllocation> held;
  for (const auto& [box, units] : {std::pair{down, 40}, std::pair{up, 50},
                                   std::pair{down, 30}, std::pair{up, 20},
                                   std::pair{ram, 64}}) {
    ASSERT_TRUE(cluster.allocate_into(box, units, held.emplace_back()));
  }
  cluster.set_box_offline(down, true);
  cluster.check_invariants();
  EXPECT_EQ(cluster.rack(rack).max_available(ResourceType::Cpu), 58);

  cluster.begin_release_batch();
  for (const auto& a : held) {
    cluster.release_batched(a);
    cluster.check_invariants();
  }
  cluster.end_release_batch();

  // The offline box's units stay out of every aggregate until repair.
  const auto& index = cluster.rack_index();
  EXPECT_EQ(cluster.total_available(ResourceType::Cpu), 4608 - 128);
  EXPECT_EQ(cluster.rack(rack).max_available(ResourceType::Cpu), 128);
  EXPECT_EQ(cluster.rack(rack).total_available(ResourceType::Cpu), 128);
  EXPECT_EQ(cluster.rack(rack).max_available(ResourceType::Ram),
            cluster.box(ram).capacity_units());
  EXPECT_EQ(index.leaf(rack)[ResourceType::Cpu], 128);
  EXPECT_EQ(index.leaf(rack)[ResourceType::Ram],
            cluster.box(ram).capacity_units());
  cluster.check_invariants();

  cluster.set_box_offline(down, false);
  EXPECT_EQ(cluster.rack(rack).total_available(ResourceType::Cpu), 256);
  EXPECT_EQ(cluster.total_available(ResourceType::Cpu), 4608);
  cluster.check_invariants();
}

TEST(BoxFailure, SchedulersRouteAroundOfflineBoxes) {
  auto stack = sim::make_table3_stack();
  // Take the only RAM box RISA would use in rack 1 (id 2) offline; rack 1
  // still has RAM box id 3 with 16 GB -- enough for a 16 GB VM.
  auto& cluster = stack->cluster();
  cluster.set_box_offline(cluster.boxes_of_type(ResourceType::Ram)[2], true);
  core::RisaAllocator risa(stack->context());
  auto placed = risa.try_place(sim::toy_vm(0, 8, 16.0, 128.0));
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(cluster.box(placed->box(ResourceType::Ram)).index_in_type(), 3u);
  EXPECT_FALSE(placed->inter_rack);
}

TEST(BoxFailure, WholeTypeFailureDropsEverything) {
  topo::Cluster cluster((topo::ClusterConfig()));
  net::Fabric fabric(topo::ClusterConfig{}, net::FabricConfig{});
  net::Router router(fabric);
  net::CircuitTable circuits(router);
  core::AllocContext ctx;
  ctx.cluster = &cluster;
  ctx.fabric = &fabric;
  ctx.router = &router;
  ctx.circuits = &circuits;
  for (BoxId id : cluster.boxes_of_type(ResourceType::Storage)) {
    cluster.set_box_offline(id, true);
  }
  auto risa = core::make_allocator("RISA", ctx);
  auto placed = risa->try_place(sim::toy_vm(0, 4, 8.0, 128.0));
  ASSERT_FALSE(placed.ok());
  EXPECT_EQ(placed.error(), core::DropReason::NoComputeResources);
}

TEST(BoxFailure, OfflineTeardownWithLiveCircuitsReleasesEveryReservation) {
  // Place a batch of VMs, take a box offline, tear down every resident
  // placement (the engine's kill path): afterwards no lane/link holds a
  // reservation for the victims, the circuit table has no trace of them,
  // and the incremental availability index still equals a naive rescan
  // (check_invariants recomputes every aggregate from scratch).
  topo::Cluster cluster((topo::ClusterConfig()));
  net::Fabric fabric(topo::ClusterConfig{}, net::FabricConfig{});
  net::Router router(fabric);
  net::CircuitTable circuits(router);
  core::AllocContext ctx;
  ctx.cluster = &cluster;
  ctx.fabric = &fabric;
  ctx.router = &router;
  ctx.circuits = &circuits;
  auto nulb = core::make_allocator("NULB", ctx);

  std::vector<core::Placement> live;
  for (std::uint32_t i = 0; i < 24; ++i) {
    auto placed = nulb->try_place(sim::toy_vm(i, 16, 24.0, 128.0));
    ASSERT_TRUE(placed.ok());
    live.push_back(std::move(placed.value()));
  }
  ASSERT_EQ(circuits.active_count(), 2 * live.size());
  const MbitsPerSec intra_held = fabric.intra_allocated();
  ASSERT_GT(intra_held, 0);

  // NULB packs box 0 first: it must host residents.
  const BoxId victim = cluster.boxes_of_type(ResourceType::Cpu)[0];
  cluster.set_box_offline(victim, true);
  EXPECT_EQ(cluster.offline_box_count(), 1u);

  std::size_t killed = 0;
  for (std::size_t i = 0; i < live.size();) {
    bool resident = false;
    for (ResourceType t : kAllResources) {
      if (live[i].box(t) == victim) resident = true;
    }
    if (!resident) {
      ++i;
      continue;
    }
    const VmId vm = live[i].vm;
    ASSERT_EQ(circuits.circuit_count_of(vm), 2u);
    nulb->release(live[i]);
    EXPECT_EQ(circuits.circuit_count_of(vm), 0u);
    live[i] = std::move(live.back());
    live.pop_back();
    ++killed;
  }
  ASSERT_GT(killed, 0u);
  EXPECT_EQ(circuits.active_count(), 2 * live.size());
  // Index vs naive rescan (and every other aggregate) after the offline
  // churn: check_invariants throws on any divergence.
  cluster.check_invariants();
  fabric.check_invariants();

  // Release the survivors: every lane/link reservation must return.
  for (auto& p : live) nulb->release(p);
  EXPECT_EQ(circuits.active_count(), 0u);
  EXPECT_EQ(fabric.intra_allocated(), 0);
  EXPECT_EQ(fabric.inter_allocated(), 0);
  for (std::size_t l = 0; l < fabric.num_links(); ++l) {
    EXPECT_EQ(fabric.link(LinkId{static_cast<std::uint32_t>(l)}).allocated(), 0)
        << "link " << l;
  }
  cluster.set_box_offline(victim, false);
  EXPECT_EQ(cluster.offline_box_count(), 0u);
  cluster.check_invariants();
  fabric.check_invariants();
}

TEST(LinkFailure, FailedLinkLeavesRackAggregate) {
  net::Fabric fabric(topo::ClusterConfig{}, net::FabricConfig{});
  const LinkId victim = fabric.box_uplinks(BoxId{0})[0];
  const MbitsPerSec before = fabric.rack_intra_available(RackId{0});

  ASSERT_TRUE(fabric.allocate(victim, gbps(50.0)));
  fabric.set_link_failed(victim, true);
  EXPECT_EQ(fabric.link(victim).available(), 0);
  EXPECT_EQ(fabric.link(victim).raw_available(), gbps(150.0));
  EXPECT_EQ(fabric.rack_intra_available(RackId{0}), before - gbps(200.0));
  EXPECT_FALSE(fabric.allocate(victim, 1));
  fabric.check_invariants();

  // Release while failed: bandwidth returns to the link's books but stays
  // unavailable until repair.
  fabric.release(victim, gbps(50.0));
  EXPECT_EQ(fabric.rack_intra_available(RackId{0}), before - gbps(200.0));
  fabric.check_invariants();

  fabric.set_link_failed(victim, false);
  EXPECT_EQ(fabric.rack_intra_available(RackId{0}), before);
  EXPECT_EQ(fabric.link(victim).available(), gbps(200.0));
  fabric.check_invariants();
}

TEST(LinkFailure, RoutingAvoidsFailedLinks) {
  net::Fabric fabric(topo::ClusterConfig{}, net::FabricConfig{});
  net::Router router(fabric);
  const auto group = fabric.box_uplinks(BoxId{0});
  fabric.set_link_failed(group[0], true);
  EXPECT_EQ(router.select_link(group, gbps(10.0),
                               net::LinkSelectPolicy::FirstFit),
            group[1]);

  // Fail every uplink of the source box: no path can exist.
  for (LinkId id : group) fabric.set_link_failed(id, true);
  net::CircuitPath path;
  EXPECT_FALSE(router.find_path(BoxId{0}, RackId{0}, BoxId{2}, RackId{0},
                                gbps(10.0), net::LinkSelectPolicy::FirstFit,
                                path));
}

TEST(LinkFailure, AllocatorDropsOnIsolatedBoxThenRecovers) {
  topo::Cluster cluster((topo::ClusterConfig()));
  net::Fabric fabric(topo::ClusterConfig{}, net::FabricConfig{});
  net::Router router(fabric);
  net::CircuitTable circuits(router);
  core::AllocContext ctx;
  ctx.cluster = &cluster;
  ctx.fabric = &fabric;
  ctx.router = &router;
  ctx.circuits = &circuits;
  auto nulb = core::make_allocator("NULB", ctx);

  // Isolate every CPU box's uplinks: network phase must fail everywhere.
  for (ResourceType t : {ResourceType::Cpu}) {
    for (BoxId id : cluster.boxes_of_type(t)) {
      for (LinkId l : fabric.box_uplinks(id)) fabric.set_link_failed(l, true);
    }
  }
  auto placed = nulb->try_place(sim::toy_vm(0, 8, 16.0, 128.0));
  ASSERT_FALSE(placed.ok());
  EXPECT_EQ(placed.error(), core::DropReason::NoNetworkResources);
  // Nothing leaked.
  EXPECT_EQ(cluster.total_available(ResourceType::Cpu), 4608);
  EXPECT_EQ(circuits.active_count(), 0u);

  // Repair one CPU box's uplinks: placement works again.
  for (LinkId l : fabric.box_uplinks(cluster.boxes_of_type(ResourceType::Cpu)[0])) {
    fabric.set_link_failed(l, false);
  }
  auto retry = nulb->try_place(sim::toy_vm(1, 8, 16.0, 128.0));
  EXPECT_TRUE(retry.ok());
}

}  // namespace
}  // namespace risa

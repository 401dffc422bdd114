// Network substrate: fabric construction, link accounting, routing policies,
// circuit life cycle, aggregate invariants.
#include <gtest/gtest.h>

#include <span>

#include "common/rng.hpp"
#include "network/bandwidth.hpp"
#include "network/circuit.hpp"
#include "network/fabric.hpp"
#include "network/routing.hpp"
#include "topology/config.hpp"

namespace risa::net {
namespace {

topo::ClusterConfig paper_cluster() { return topo::ClusterConfig{}; }

TEST(Fabric, BuildsTwoTierTopology) {
  const Fabric fabric(paper_cluster(), FabricConfig{});
  const FabricConfig& cfg = fabric.config();
  // 108 box switches + 18 rack switches + 1 core switch.
  EXPECT_EQ(fabric.num_switches(), 108u + 18u + 1u);
  EXPECT_EQ(fabric.num_links(),
            108u * cfg.links_per_box + 18u * cfg.links_per_rack);
  EXPECT_EQ(fabric.intra_capacity(),
            static_cast<MbitsPerSec>(108 * cfg.links_per_box) *
                cfg.link_capacity);
  EXPECT_EQ(fabric.inter_capacity(),
            static_cast<MbitsPerSec>(18 * cfg.links_per_rack) *
                cfg.link_capacity);
  fabric.check_invariants();
}

TEST(Fabric, SwitchRadicesMatchPaper) {
  const Fabric fabric(paper_cluster(), FabricConfig{});
  EXPECT_EQ(fabric.switch_node(fabric.box_switch(BoxId{0})).ports, 64u);
  EXPECT_EQ(fabric.switch_node(fabric.rack_switch(RackId{0})).ports, 256u);
  EXPECT_EQ(fabric.switch_node(fabric.core_switch()).ports, 512u);
}

TEST(Fabric, BoxUplinksBelongToBoxAndRack) {
  const Fabric fabric(paper_cluster(), FabricConfig{});
  const BoxId box{13};  // rack 2 (6 boxes per rack)
  const auto uplinks = fabric.box_uplinks(box);
  EXPECT_EQ(uplinks.size(), fabric.config().links_per_box);
  for (LinkId id : uplinks) {
    const Link& l = fabric.link(id);
    EXPECT_EQ(l.kind(), LinkKind::BoxUplink);
    EXPECT_EQ(l.box(), box);
    EXPECT_EQ(l.rack().value(), 2u);
    EXPECT_EQ(l.capacity(), gbps(200.0));
  }
}

TEST(Fabric, AllocateUpdatesAggregatesAndRackAvailability) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  const LinkId intra_link = fabric.box_uplinks(BoxId{0})[0];
  const LinkId inter_link = fabric.rack_uplinks(RackId{0})[0];
  const MbitsPerSec before_rack0 = fabric.rack_intra_available(RackId{0});

  ASSERT_TRUE(fabric.allocate(intra_link, gbps(40.0)).ok());
  ASSERT_TRUE(fabric.allocate(inter_link, gbps(10.0)).ok());
  EXPECT_EQ(fabric.intra_allocated(), gbps(40.0));
  EXPECT_EQ(fabric.inter_allocated(), gbps(10.0));
  EXPECT_EQ(fabric.rack_intra_available(RackId{0}),
            before_rack0 - gbps(40.0));
  EXPECT_EQ(fabric.rack_intra_available(RackId{1}), before_rack0);
  fabric.check_invariants();

  fabric.release(intra_link, gbps(40.0));
  fabric.release(inter_link, gbps(10.0));
  EXPECT_EQ(fabric.intra_allocated(), 0);
  EXPECT_EQ(fabric.inter_allocated(), 0);
  fabric.check_invariants();
}

TEST(Fabric, LinkNeverOversubscribes) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  const LinkId link = fabric.box_uplinks(BoxId{0})[0];
  ASSERT_TRUE(fabric.allocate(link, gbps(200.0)).ok());
  EXPECT_FALSE(fabric.allocate(link, 1).ok());
  EXPECT_EQ(fabric.link(link).available(), 0);
  EXPECT_THROW(fabric.release(link, gbps(201.0)), std::logic_error);
  fabric.release(link, gbps(200.0));
  EXPECT_THROW(fabric.release(link, 1), std::logic_error);
}

TEST(Router, FirstFitPicksFirstFeasibleLink) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  Router router(fabric);
  const auto group = fabric.box_uplinks(BoxId{0});
  ASSERT_TRUE(fabric.allocate(group[0], gbps(190.0)).ok());  // 10 free
  auto pick = router.select_link(group, gbps(50.0), LinkSelectPolicy::FirstFit);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(pick.value(), group[1]);
}

TEST(Router, MostAvailablePicksLargestHeadroom) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  Router router(fabric);
  const auto group = fabric.box_uplinks(BoxId{0});
  ASSERT_TRUE(fabric.allocate(group[0], gbps(50.0)).ok());   // 150 free
  ASSERT_TRUE(fabric.allocate(group[1], gbps(120.0)).ok());  // 80 free
  auto pick =
      router.select_link(group, gbps(10.0), LinkSelectPolicy::MostAvailable);
  ASSERT_TRUE(pick.ok());
  // Remaining links are untouched (200 free) -> one of them wins.
  EXPECT_EQ(fabric.link(pick.value()).available(), gbps(200.0));
}

TEST(Router, IntraRackPathHasTwoHopsThreeSwitches) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  Router router(fabric);
  // Boxes 0 (CPU) and 2 (RAM) are both in rack 0.
  auto path = router.find_path(BoxId{0}, RackId{0}, BoxId{2}, RackId{0},
                               gbps(5.0), LinkSelectPolicy::FirstFit);
  ASSERT_TRUE(path.ok());
  EXPECT_FALSE(path->inter_rack);
  EXPECT_EQ(path->hop_count(), 2u);
  ASSERT_EQ(path->switches.size(), 3u);  // box -> rack -> box
}

TEST(Router, InterRackPathHasFourHopsFiveSwitches) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  Router router(fabric);
  // Box 0 in rack 0; box 8 lives in rack 1 (6 boxes per rack).
  auto path = router.find_path(BoxId{0}, RackId{0}, BoxId{8}, RackId{1},
                               gbps(5.0), LinkSelectPolicy::FirstFit);
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE(path->inter_rack);
  EXPECT_EQ(path->hop_count(), 4u);
  ASSERT_EQ(path->switches.size(), 5u);  // box, rack, core, rack, box
  EXPECT_EQ(path->switches[2], fabric.core_switch());
}

TEST(Router, SameBoxPathRejected) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  Router router(fabric);
  auto path = router.find_path(BoxId{0}, RackId{0}, BoxId{0}, RackId{0},
                               gbps(1.0), LinkSelectPolicy::FirstFit);
  EXPECT_FALSE(path.ok());
}

TEST(Router, ReserveRollsBackOnPartialFailure) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  Router router(fabric);
  auto path = router.find_path(BoxId{0}, RackId{0}, BoxId{2}, RackId{0},
                               gbps(5.0), LinkSelectPolicy::FirstFit);
  ASSERT_TRUE(path.ok());
  // Exhaust the second hop after the path was found.
  const LinkId second = path->links[1];
  ASSERT_TRUE(fabric.allocate(second, fabric.link(second).available()).ok());
  const MbitsPerSec intra_before = fabric.intra_allocated();
  auto reserved = router.reserve(path.value(), gbps(5.0));
  EXPECT_FALSE(reserved.ok());
  EXPECT_EQ(fabric.intra_allocated(), intra_before);  // rollback complete
  fabric.check_invariants();
}

TEST(Router, GroupAvailabilityHelpers) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  Router router(fabric);
  const auto group = fabric.box_uplinks(BoxId{4});
  const auto n = static_cast<MbitsPerSec>(group.size());
  EXPECT_EQ(router.group_available(group), n * gbps(200.0));
  EXPECT_EQ(router.group_max_available(group), gbps(200.0));
  ASSERT_TRUE(fabric.allocate(group[0], gbps(150.0)).ok());
  EXPECT_EQ(router.group_available(group), n * gbps(200.0) - gbps(150.0));
  EXPECT_EQ(router.group_max_available(group), gbps(200.0));
}

TEST(CircuitTable, EstablishAndTeardownRestoresFabric) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  Router router(fabric);
  CircuitTable table(router);

  auto path = router.find_path(BoxId{0}, RackId{0}, BoxId{2}, RackId{0},
                               gbps(20.0), LinkSelectPolicy::FirstFit);
  ASSERT_TRUE(path.ok());
  auto cid = table.establish(VmId{1}, FlowKind::CpuRam, gbps(20.0),
                             std::move(path.value()));
  ASSERT_TRUE(cid.ok());
  EXPECT_EQ(table.active_count(), 1u);
  EXPECT_EQ(fabric.intra_allocated(), 2 * gbps(20.0));
  EXPECT_EQ(table.circuit_count_of(VmId{1}), 1u);
  EXPECT_EQ(table.circuit_count_of(VmId{2}), 0u);

  EXPECT_EQ(table.teardown_vm(VmId{1}), 1u);
  EXPECT_EQ(table.active_count(), 0u);
  EXPECT_EQ(fabric.intra_allocated(), 0);
  EXPECT_EQ(table.teardown_vm(VmId{1}), 0u);  // idempotent
  fabric.check_invariants();
}

TEST(Bandwidth, Table2Demands) {
  const BandwidthModel model;
  // A VM of 8 cores (2 units), 16 GB (4 units), 128 GB (2 units):
  // CPU-RAM = 5 Gb/s x 2 = 10 Gb/s, RAM-STO = 1 Gb/s x 4 = 4 Gb/s.
  const BandwidthDemand d = model.demand(UnitVector{2, 4, 2});
  EXPECT_EQ(d.cpu_ram, gbps(10.0));
  EXPECT_EQ(d.ram_sto, gbps(4.0));
  EXPECT_EQ(d.total(), gbps(14.0));
}

TEST(Bandwidth, ConfigurableBasis) {
  BandwidthModel model;
  model.ram_sto_basis = BandwidthBasis::StorageUnits;
  const BandwidthDemand d = model.demand(UnitVector{2, 4, 2});
  EXPECT_EQ(d.ram_sto, gbps(2.0));  // follows storage units now
}

TEST(FabricConfig, ValidationRejectsBadShapes) {
  FabricConfig cfg;
  cfg.links_per_box = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = FabricConfig{};
  cfg.link_capacity = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = FabricConfig{};
  cfg.box_switch_ports = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

/// The reference the best-uplink caches must match: a first-argmax rescan.
LinkId naive_best(const Fabric& fabric, std::span<const LinkId> group) {
  LinkId best = group.front();
  for (LinkId id : group) {
    if (fabric.link(id).available() > fabric.link(best).available()) best = id;
  }
  return best;
}

void expect_best_caches_exact(const Fabric& fabric,
                              const topo::ClusterConfig& cluster) {
  for (std::uint32_t b = 0; b < cluster.total_boxes(); ++b) {
    ASSERT_EQ(fabric.best_box_uplink(BoxId{b}),
              naive_best(fabric, fabric.box_uplinks(BoxId{b})))
        << "box " << b;
  }
  for (std::uint32_t r = 0; r < cluster.racks; ++r) {
    ASSERT_EQ(fabric.best_rack_uplink(RackId{r}),
              naive_best(fabric, fabric.rack_uplinks(RackId{r})))
        << "rack " << r;
  }
}

/// Randomized allocate / release / fail / repair / reset; after every
/// operation both caches must equal the rescan, and most-available routing
/// (which reads them) must pick the links select_link finds by scanning.
void churn_best_uplinks(const FabricConfig& config, std::uint64_t seed) {
  const topo::ClusterConfig cluster = paper_cluster();
  Fabric fabric(cluster, config);
  Router router(fabric);
  Rng rng(seed);
  const auto links = static_cast<std::int64_t>(fabric.num_links());
  const std::uint32_t boxes = cluster.total_boxes();
  const std::uint32_t boxes_per_rack = cluster.total_boxes_per_rack();
  const MbitsPerSec channel = config.channel_rate;
  const MbitsPerSec capacity = config.link_capacity;
  for (int step = 0; step < 20000; ++step) {
    // Half the operations hit box 0's or rack 0's group, so the cached link
    // is displaced, restored and tied over and over.
    LinkId id;
    if (rng.uniform_int(0, 1) == 0) {
      const auto group = rng.uniform_int(0, 1) == 0
                             ? fabric.box_uplinks(BoxId{0})
                             : fabric.rack_uplinks(RackId{0});
      id = group[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(group.size()) - 1))];
    } else {
      id = LinkId{static_cast<std::uint32_t>(rng.uniform_int(0, links - 1))};
    }
    const Link& l = fabric.link(id);
    const std::int64_t op = rng.uniform_int(0, 999);
    if (op < 450) {
      // Whole channels tie often; arbitrary amounts break ties.
      const MbitsPerSec bw = rng.uniform_int(0, 1) == 0
                                 ? channel * rng.uniform_int(1, 8)
                                 : rng.uniform_int(1, capacity / 2);
      (void)fabric.allocate(id, bw);  // may be refused; nothing changes then
    } else if (op < 850) {
      if (l.allocated() > 0) fabric.release(id, rng.uniform_int(1, l.allocated()));
    } else if (op < 998) {
      fabric.set_link_failed(id, !l.failed());
    } else {
      fabric.reset();
    }
    expect_best_caches_exact(fabric, cluster);
    if (::testing::Test::HasFatalFailure()) return;
    if (step % 64 == 0) fabric.check_invariants();

    const BoxId src{static_cast<std::uint32_t>(rng.uniform_int(0, boxes - 1))};
    const BoxId dst{static_cast<std::uint32_t>(rng.uniform_int(0, boxes - 1))};
    if (src == dst) continue;
    const RackId src_rack{src.value() / boxes_per_rack};
    const RackId dst_rack{dst.value() / boxes_per_rack};
    const MbitsPerSec bw = channel * rng.uniform_int(0, 8);
    const auto path = router.find_path(src, src_rack, dst, dst_rack, bw,
                                       LinkSelectPolicy::MostAvailable);
    auto scan = [&](std::span<const LinkId> group) {
      return router.select_link(group, bw, LinkSelectPolicy::MostAvailable);
    };
    const auto src_up = scan(fabric.box_uplinks(src));
    const auto dst_up = scan(fabric.box_uplinks(dst));
    bool feasible = src_up.ok() && dst_up.ok();
    if (feasible && src_rack != dst_rack) {
      feasible = scan(fabric.rack_uplinks(src_rack)).ok() &&
                 scan(fabric.rack_uplinks(dst_rack)).ok();
      if (fabric.num_pods() > 0 && !fabric.same_pod(src_rack, dst_rack)) {
        feasible = feasible &&
                   scan(fabric.pod_uplinks(fabric.pod_of_rack(src_rack))).ok() &&
                   scan(fabric.pod_uplinks(fabric.pod_of_rack(dst_rack))).ok();
      }
    }
    ASSERT_EQ(path.ok(), feasible) << "step " << step;
    if (!path.ok()) continue;
    ASSERT_EQ(path->links.front(), src_up.value());
    ASSERT_EQ(path->links.back(), dst_up.value());
    if (src_rack != dst_rack) {
      ASSERT_EQ(path->links[1], scan(fabric.rack_uplinks(src_rack)).value());
      ASSERT_EQ(path->links[path->links.size() - 2],
                scan(fabric.rack_uplinks(dst_rack)).value());
    }
  }
}

TEST(Fabric, BestUplinkCachesMatchRescanUnderChurn) {
  churn_best_uplinks(FabricConfig{}, 20231112);
}

TEST(Fabric, BestUplinkCachesMatchRescanUnderChurnThreeTier) {
  FabricConfig config;
  config.racks_per_pod = 6;
  churn_best_uplinks(config, 7);
}

TEST(Fabric, BestUplinkTiesGoToTheEarliestLink) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  const auto group = fabric.box_uplinks(BoxId{3});
  EXPECT_EQ(fabric.best_box_uplink(BoxId{3}), group[0]);
  ASSERT_TRUE(fabric.allocate(group[0], gbps(25.0)).ok());
  EXPECT_EQ(fabric.best_box_uplink(BoxId{3}), group[1]);
  ASSERT_TRUE(fabric.allocate(group[1], gbps(25.0)).ok());
  EXPECT_EQ(fabric.best_box_uplink(BoxId{3}), group[2]);
  // Released back to a tie with group[2]: the earlier link wins again.
  fabric.release(group[1], gbps(25.0));
  EXPECT_EQ(fabric.best_box_uplink(BoxId{3}), group[1]);
  fabric.set_link_failed(group[1], true);
  EXPECT_EQ(fabric.best_box_uplink(BoxId{3}), group[2]);
  fabric.set_link_failed(group[1], false);
  EXPECT_EQ(fabric.best_box_uplink(BoxId{3}), group[1]);
  fabric.reset();
  EXPECT_EQ(fabric.best_box_uplink(BoxId{3}), group[0]);
  EXPECT_THROW((void)fabric.best_box_uplink(BoxId::invalid()), std::out_of_range);
  EXPECT_THROW((void)fabric.best_rack_uplink(RackId{18}), std::out_of_range);
}

}  // namespace
}  // namespace risa::net

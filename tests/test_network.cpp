// Network substrate: fabric construction, link accounting, routing policies,
// circuit life cycle, aggregate invariants.
#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

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

  // Every box, rack and pod group, on a two-tier and a three-tier fabric
  // (with a partial last pod), is a run of consecutive ids holding exactly
  // the links whose kind and owner place them there: the groups partition
  // the links.
  FabricConfig three_tier;
  three_tier.racks_per_pod = 7;
  for (const FabricConfig& config : {FabricConfig{}, three_tier}) {
    const topo::ClusterConfig cluster = paper_cluster();
    const Fabric f(cluster, config);
    std::vector<int> seen(f.num_links(), 0);
    auto expect_run = [&](std::span<const LinkId> group, std::size_t size,
                          auto&& belongs) {
      ASSERT_EQ(group.size(), size);
      for (std::size_t i = 0; i < group.size(); ++i) {
        EXPECT_EQ(group[i].value(), group[0].value() + i);
        EXPECT_TRUE(belongs(f.link(group[i]))) << "link " << group[i].value();
        ++seen[group[i].value()];
      }
    };
    const std::uint32_t per_rack = cluster.total_boxes_per_rack();
    for (std::uint32_t b = 0; b < cluster.total_boxes(); ++b) {
      expect_run(f.box_uplinks(BoxId{b}), config.links_per_box,
                 [&](const Link& l) {
                   return l.kind() == LinkKind::BoxUplink &&
                          l.box() == BoxId{b} &&
                          l.rack() == RackId{b / per_rack};
                 });
    }
    for (std::uint32_t r = 0; r < cluster.racks; ++r) {
      expect_run(f.rack_uplinks(RackId{r}), config.links_per_rack,
                 [&](const Link& l) {
                   return l.kind() == LinkKind::RackUplink &&
                          l.rack() == RackId{r} && !l.box().valid();
                 });
    }
    for (std::uint32_t p = 0; p < f.num_pods(); ++p) {
      expect_run(f.pod_uplinks(p), config.links_per_pod, [&](const Link& l) {
        return l.kind() == LinkKind::PodUplink && !l.rack().valid() &&
               l.endpoint_a() == f.pod_switch(p);
      });
    }
    EXPECT_EQ(f.num_pods(), config.racks_per_pod > 0 ? 3u : 0u);
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], 1) << "link " << i;
    }
  }
}

TEST(Fabric, AllocateUpdatesAggregatesAndRackAvailability) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  const LinkId intra_link = fabric.box_uplinks(BoxId{0})[0];
  const LinkId inter_link = fabric.rack_uplinks(RackId{0})[0];
  const MbitsPerSec before_rack0 = fabric.rack_intra_available(RackId{0});

  ASSERT_TRUE(fabric.allocate(intra_link, gbps(40.0)));
  ASSERT_TRUE(fabric.allocate(inter_link, gbps(10.0)));
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
  ASSERT_TRUE(fabric.allocate(link, gbps(200.0)));
  EXPECT_FALSE(fabric.allocate(link, 1));
  EXPECT_EQ(fabric.link(link).available(), 0);
  EXPECT_THROW(fabric.release(link, gbps(201.0)), std::logic_error);
  fabric.release(link, gbps(200.0));
  EXPECT_THROW(fabric.release(link, 1), std::logic_error);
}

TEST(Router, FirstFitPicksFirstFeasibleLink) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  Router router(fabric);
  const auto group = fabric.box_uplinks(BoxId{0});
  ASSERT_TRUE(fabric.allocate(group[0], gbps(190.0)));  // 10 free
  const LinkId pick =
      router.select_link(group, gbps(50.0), LinkSelectPolicy::FirstFit);
  EXPECT_EQ(pick, group[1]);
  EXPECT_FALSE(router.select_link(group, gbps(201.0), LinkSelectPolicy::FirstFit)
                   .valid());
}

TEST(Router, MostAvailablePicksLargestHeadroom) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  Router router(fabric);
  const auto group = fabric.box_uplinks(BoxId{0});
  ASSERT_TRUE(fabric.allocate(group[0], gbps(50.0)));   // 150 free
  ASSERT_TRUE(fabric.allocate(group[1], gbps(120.0)));  // 80 free
  const LinkId pick =
      router.select_link(group, gbps(10.0), LinkSelectPolicy::MostAvailable);
  ASSERT_TRUE(pick.valid());
  // Remaining links are untouched (200 free) -> one of them wins.
  EXPECT_EQ(fabric.link(pick).available(), gbps(200.0));
}

TEST(Router, IntraRackPathHasTwoHopsThreeSwitches) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  Router router(fabric);
  // Boxes 0 (CPU) and 2 (RAM) are both in rack 0.
  CircuitPath path;
  ASSERT_TRUE(router.find_path(BoxId{0}, RackId{0}, BoxId{2}, RackId{0},
                               gbps(5.0), LinkSelectPolicy::FirstFit, path));
  EXPECT_FALSE(path.inter_rack);
  EXPECT_EQ(path.hop_count(), 2u);
  const SwitchList switches = fabric.path_switches(path);
  EXPECT_EQ(std::vector<SwitchId>(switches.begin(), switches.end()),
            (std::vector<SwitchId>{fabric.box_switch(BoxId{0}),
                                   fabric.rack_switch(RackId{0}),
                                   fabric.box_switch(BoxId{2})}));
}

TEST(Router, InterRackPathHasFourHopsFiveSwitches) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  Router router(fabric);
  // Box 0 in rack 0; box 8 lives in rack 1 (6 boxes per rack).
  CircuitPath path;
  ASSERT_TRUE(router.find_path(BoxId{0}, RackId{0}, BoxId{8}, RackId{1},
                               gbps(5.0), LinkSelectPolicy::FirstFit, path));
  EXPECT_TRUE(path.inter_rack);
  EXPECT_EQ(path.hop_count(), 4u);
  const SwitchList switches = fabric.path_switches(path);
  EXPECT_EQ(std::vector<SwitchId>(switches.begin(), switches.end()),
            (std::vector<SwitchId>{
                fabric.box_switch(BoxId{0}), fabric.rack_switch(RackId{0}),
                fabric.core_switch(), fabric.rack_switch(RackId{1}),
                fabric.box_switch(BoxId{8})}));
}

TEST(Fabric, PathSwitchesRejectLinksThatDoNotChain) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  // Box 0's and box 8's uplinks meet no common switch (racks 0 and 1).
  CircuitPath broken;
  broken.push_link(fabric.box_uplinks(BoxId{0})[0]);
  broken.push_link(fabric.box_uplinks(BoxId{8})[0]);
  EXPECT_TRUE(fabric.path_switches(broken).empty());
  EXPECT_TRUE(fabric.path_switches(CircuitPath{}).empty());
  // One hop runs from endpoint a (the box switch) to endpoint b.
  CircuitPath one;
  one.push_link(fabric.box_uplinks(BoxId{3})[1]);
  const SwitchList ends = fabric.path_switches(one);
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends[0], fabric.box_switch(BoxId{3}));
  EXPECT_EQ(ends[1], fabric.rack_switch(RackId{0}));
}

TEST(Router, SameBoxPathRejected) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  Router router(fabric);
  CircuitPath path;
  EXPECT_FALSE(router.find_path(BoxId{0}, RackId{0}, BoxId{0}, RackId{0},
                                gbps(1.0), LinkSelectPolicy::FirstFit, path));
}

TEST(Router, ReserveRollsBackOnPartialFailure) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  Router router(fabric);
  CircuitPath path;
  ASSERT_TRUE(router.find_path(BoxId{0}, RackId{0}, BoxId{2}, RackId{0},
                               gbps(5.0), LinkSelectPolicy::FirstFit, path));
  // Exhaust the second hop after the path was found.
  const LinkId second = path.links()[1];
  ASSERT_TRUE(fabric.allocate(second, fabric.link(second).available()));
  const MbitsPerSec intra_before = fabric.intra_allocated();
  EXPECT_FALSE(router.reserve(path, gbps(5.0)));
  EXPECT_EQ(fabric.intra_allocated(), intra_before);  // rollback complete
  fabric.check_invariants();
}

TEST(CircuitTable, EstablishAndTeardownRestoresFabric) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  Router router(fabric);
  CircuitTable table(router);

  CircuitPath path;
  ASSERT_TRUE(router.find_path(BoxId{0}, RackId{0}, BoxId{2}, RackId{0},
                               gbps(20.0), LinkSelectPolicy::FirstFit, path));
  auto cid = table.establish(VmId{1}, FlowKind::CpuRam, gbps(20.0), path);
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

/// Everything a refused establish must leave as it was: every link's
/// reservation, the table's live count and id counter, and the circuits
/// (in order) of the VM that already holds one and of one that holds none.
struct TableSnapshot {
  std::vector<MbitsPerSec> links;
  std::size_t active = 0;
  std::uint32_t next_id = 0;
  std::vector<std::pair<std::uint32_t, std::vector<LinkId>>> holder;
  std::size_t empty_vm_count = 0;

  TableSnapshot(const Fabric& fabric, const CircuitTable& table, VmId holder_vm,
                VmId empty_vm)
      : active(table.active_count()),
        next_id(table.next_id()),
        empty_vm_count(table.circuit_count_of(empty_vm)) {
    for (std::uint32_t i = 0; i < fabric.num_links(); ++i) {
      links.push_back(fabric.link(LinkId{i}).allocated());
    }
    table.for_each_circuit_of(holder_vm, [&](const Circuit& c) {
      const auto hops = c.path.links();
      holder.emplace_back(c.id.value(),
                          std::vector<LinkId>(hops.begin(), hops.end()));
    });
  }
  friend bool operator==(const TableSnapshot&, const TableSnapshot&) = default;
};

TEST(CircuitTable, RefusedEstablishTouchesNothing) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  Router router(fabric);
  CircuitTable table(router);
  const VmId holder{1};
  const VmId fresh{2};
  const MbitsPerSec bw = gbps(20.0);
  // Boxes 0, 2, 4 sit in rack 0, box 8 in rack 1, box 14 in rack 2.
  ASSERT_TRUE(table.connect(holder, FlowKind::CpuRam, bw, BoxId{0}, RackId{0},
                            BoxId{2}, RackId{0}, LinkSelectPolicy::FirstFit));
  const auto saturate = [&](std::span<const LinkId> group) {
    for (LinkId id : group) {
      ASSERT_TRUE(fabric.allocate(id, fabric.link(id).available()));
    }
  };

  // First hop: box 4 has no free uplink.
  saturate(fabric.box_uplinks(BoxId{4}));
  const TableSnapshot before(fabric, table, holder, fresh);
  for (const VmId vm : {holder, fresh}) {
    EXPECT_FALSE(table.connect(vm, FlowKind::RamStorage, bw, BoxId{4}, RackId{0},
                               BoxId{2}, RackId{0}, LinkSelectPolicy::FirstFit));
    // Last hop: the same box as the destination.
    EXPECT_FALSE(table.connect(vm, FlowKind::RamStorage, bw, BoxId{2}, RackId{0},
                               BoxId{4}, RackId{0},
                               LinkSelectPolicy::MostAvailable));
    EXPECT_EQ(TableSnapshot(fabric, table, holder, fresh), before);
  }

  // An inter-rack route whose far rack has no free uplink.
  saturate(fabric.rack_uplinks(RackId{1}));
  const TableSnapshot inter_before(fabric, table, holder, fresh);
  EXPECT_FALSE(table.connect(holder, FlowKind::RamStorage, bw, BoxId{2},
                             RackId{0}, BoxId{8}, RackId{1},
                             LinkSelectPolicy::FirstFit));
  EXPECT_EQ(TableSnapshot(fabric, table, holder, fresh), inter_before);

  // A recorded path whose second hop filled up after routing: the first
  // hop is reserved, then rolled back.
  CircuitPath path;
  ASSERT_TRUE(router.find_path(BoxId{2}, RackId{0}, BoxId{14}, RackId{2}, bw,
                               LinkSelectPolicy::FirstFit, path));
  ASSERT_EQ(path.hop_count(), 4u);
  ASSERT_TRUE(fabric.allocate(path.links()[1],
                              fabric.link(path.links()[1]).available()));
  const TableSnapshot path_before(fabric, table, holder, fresh);
  for (const VmId vm : {holder, fresh}) {
    const auto refused = table.establish(vm, FlowKind::RamStorage, bw, path);
    ASSERT_FALSE(refused.ok());
    EXPECT_NE(refused.error(), nullptr);
    EXPECT_EQ(TableSnapshot(fabric, table, holder, fresh), path_before);
  }
  fabric.check_invariants();

  // The id counter did not move: the next circuit takes the next id.
  CircuitPath intra;
  ASSERT_TRUE(router.find_path(BoxId{0}, RackId{0}, BoxId{2}, RackId{0}, bw,
                               LinkSelectPolicy::FirstFit, intra));
  const auto next = table.establish(fresh, FlowKind::CpuRam, bw, intra);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value().value(), path_before.next_id);
  EXPECT_EQ(table.circuit_count_of(fresh), 1u);
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
  // 108 boxes x 2^31 uplinks overflows the u32 link ids: refused before
  // any table is sized.
  cfg = FabricConfig{};
  cfg.links_per_box = 0x80000000u;
  EXPECT_THROW(Fabric(paper_cluster(), cfg), std::invalid_argument);
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
  // Rack-headroom words against the rescanned best rack uplinks, at every
  // whole channel count (the search's `need`) and between them.
  const MbitsPerSec q = fabric.config().channel_rate;
  const MbitsPerSec capacity = fabric.config().link_capacity;
  std::vector<MbitsPerSec> free_channels;
  for (std::uint32_t r = 0; r < cluster.racks; ++r) {
    free_channels.push_back(
        fabric.link(naive_best(fabric, fabric.rack_uplinks(RackId{r})))
            .available() / q);
  }
  for (std::uint32_t s = 0; s * Fabric::kShardRacks < cluster.racks; ++s) {
    for (MbitsPerSec need = 0; need <= capacity + q; need += q) {
      for (const MbitsPerSec probe : {need, need + q / 2}) {
        std::uint64_t expected = 0;
        for (std::uint32_t i = 0; i < Fabric::kShardRacks; ++i) {
          const std::uint32_t r = s * Fabric::kShardRacks + i;
          if (r >= cluster.racks) break;
          if (free_channels[r] >= (probe + q - 1) / q) {
            expected |= std::uint64_t{1} << i;
          }
        }
        ASSERT_EQ(fabric.rack_headroom_word(s, probe), expected)
            << "shard " << s << " need " << probe;
      }
    }
  }
}

/// One random allocate / release / fail / repair / reset.  Half the
/// operations hit box 0's, rack 0's or (three-tier) pod 0's group, so a
/// cached link is displaced, restored and tied over and over.
void mutate_at_random(Fabric& fabric, Rng& rng) {
  const MbitsPerSec channel = fabric.config().channel_rate;
  const MbitsPerSec capacity = fabric.config().link_capacity;
  LinkId id;
  if (rng.uniform_int(0, 1) == 0) {
    const std::int64_t pick =
        rng.uniform_int(0, fabric.num_pods() > 0 ? 2 : 1);
    const auto group = pick == 0   ? fabric.box_uplinks(BoxId{0})
                       : pick == 1 ? fabric.rack_uplinks(RackId{0})
                                   : fabric.pod_uplinks(0);
    id = group[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(group.size()) - 1))];
  } else {
    id = LinkId{static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(fabric.num_links()) - 1))};
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
}

/// Randomized allocate / release / fail / repair / reset; after every
/// operation the free lane must equal every link's available(), both
/// caches and the rack-headroom words must equal the rescan, and
/// most-available routing (which reads the caches) must pick the links
/// select_link finds by scanning.
void churn_best_uplinks(const FabricConfig& config, std::uint64_t seed) {
  const topo::ClusterConfig cluster = paper_cluster();
  Fabric fabric(cluster, config);
  Router router(fabric);
  Rng rng(seed);
  const std::uint32_t boxes = cluster.total_boxes();
  const std::uint32_t boxes_per_rack = cluster.total_boxes_per_rack();
  const MbitsPerSec channel = config.channel_rate;
  int failed_and_reserved = 0;  // steps where some failed link holds bandwidth
  for (int step = 0; step < 20000; ++step) {
    mutate_at_random(fabric, rng);
    bool seen_failed_reserved = false;
    for (std::uint32_t i = 0; i < fabric.num_links(); ++i) {
      const Link& l = fabric.link(LinkId{i});
      ASSERT_EQ(fabric.available_unchecked(LinkId{i}), l.available())
          << "link " << i << " step " << step;
      seen_failed_reserved |= l.failed() && l.allocated() > 0;
    }
    failed_and_reserved += seen_failed_reserved ? 1 : 0;
    expect_best_caches_exact(fabric, cluster);
    if (::testing::Test::HasFatalFailure()) return;
    if (step % 64 == 0) fabric.check_invariants();

    const BoxId src{static_cast<std::uint32_t>(rng.uniform_int(0, boxes - 1))};
    const BoxId dst{static_cast<std::uint32_t>(rng.uniform_int(0, boxes - 1))};
    if (src == dst) continue;
    const RackId src_rack{src.value() / boxes_per_rack};
    const RackId dst_rack{dst.value() / boxes_per_rack};
    const MbitsPerSec bw = channel * rng.uniform_int(0, 8);
    CircuitPath path;
    const bool found = router.find_path(src, src_rack, dst, dst_rack, bw,
                                        LinkSelectPolicy::MostAvailable, path);
    auto scan = [&](std::span<const LinkId> group) {
      return router.select_link(group, bw, LinkSelectPolicy::MostAvailable);
    };
    const auto src_up = scan(fabric.box_uplinks(src));
    const auto dst_up = scan(fabric.box_uplinks(dst));
    bool feasible = src_up.valid() && dst_up.valid();
    if (feasible && src_rack != dst_rack) {
      feasible = scan(fabric.rack_uplinks(src_rack)).valid() &&
                 scan(fabric.rack_uplinks(dst_rack)).valid();
      if (fabric.num_pods() > 0 && !fabric.same_pod(src_rack, dst_rack)) {
        feasible =
            feasible &&
            scan(fabric.pod_uplinks(fabric.pod_of_rack(src_rack))).valid() &&
            scan(fabric.pod_uplinks(fabric.pod_of_rack(dst_rack))).valid();
      }
    }
    ASSERT_EQ(found, feasible) << "step " << step;
    if (!found) continue;
    ASSERT_EQ(path.links().front(), src_up);
    ASSERT_EQ(path.links().back(), dst_up);
    if (src_rack != dst_rack) {
      ASSERT_EQ(path.links()[1], scan(fabric.rack_uplinks(src_rack)));
      ASSERT_EQ(path.links()[path.links().size() - 2],
                scan(fabric.rack_uplinks(dst_rack)));
    }
  }
  // The lane check above covered failed links that still hold bandwidth.
  EXPECT_GT(failed_and_reserved, 1000);
}

TEST(Fabric, HeadroomLaneMatchesPlainDivisionAtTheU16Edge) {
  // Channel rates that are not powers of two, on links holding about
  // 70,000 channels, so a rack's free channel count crosses the u16 lane's
  // saturation point.  Every rack-0 uplink holds the same reservation, so
  // the best one (the first) has exactly `free` Mb/s available.
  Rng rng(20231112);
  for (const MbitsPerSec rate : {MbitsPerSec{3}, MbitsPerSec{7},
                                 MbitsPerSec{1000}, MbitsPerSec{33333}}) {
    FabricConfig config;
    config.channel_rate = rate;
    config.link_capacity = rate * 70000 + rate - 1;
    const MbitsPerSec capacity = config.link_capacity;
    std::vector<MbitsPerSec> frees = {capacity, 0, 1, rate - 1, rate};
    for (const MbitsPerSec channels : {65534, 65535, 65536}) {
      for (const MbitsPerSec delta : {MbitsPerSec{-1}, MbitsPerSec{0},
                                      MbitsPerSec{1}, rate - 1}) {
        frees.push_back(channels * rate + delta);
      }
    }
    for (int i = 0; i < 64; ++i) frees.push_back(rng.uniform_int(0, capacity));
    for (const MbitsPerSec free : frees) {
      Fabric fabric(paper_cluster(), config);
      if (free < capacity) {
        for (const LinkId id : fabric.rack_uplinks(RackId{0})) {
          ASSERT_TRUE(fabric.allocate(id, capacity - free));
        }
      }
      ASSERT_EQ(fabric.link(fabric.best_rack_uplink(RackId{0})).available(),
                free);
      const MbitsPerSec have = free / rate;  // plain division
      for (const MbitsPerSec channels :
           {MbitsPerSec{0}, MbitsPerSec{1}, have - 1, have, have + 1,
            MbitsPerSec{65534}, MbitsPerSec{65535}, MbitsPerSec{65536}}) {
        if (channels < 0) continue;
        for (const MbitsPerSec need : {channels * rate, channels * rate + 1}) {
          const bool fits = have >= (need + rate - 1) / rate;
          ASSERT_EQ(fabric.rack_headroom_word(0, need) & 1, fits ? 1u : 0u)
              << "rate " << rate << " free " << free << " need " << need;
        }
      }
      fabric.check_invariants();
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

/// The reference scans select_link must match: a walk over
/// link(id).available(), the free bandwidth the Link itself reports.
LinkId reference_select(const Fabric& fabric, std::span<const LinkId> group,
                        MbitsPerSec bw, LinkSelectPolicy policy) {
  LinkId best = LinkId::invalid();
  for (LinkId id : group) {
    const MbitsPerSec avail = fabric.link(id).available();
    if (policy == LinkSelectPolicy::FirstFit) {
      if (avail >= bw) return id;
    } else if (!best.valid() || avail > fabric.link(best).available()) {
      best = id;
    }
  }
  return best.valid() && fabric.link(best).available() >= bw
             ? best
             : LinkId::invalid();
}

/// Under random churn, select_link over every box, rack and pod group --
/// pod groups are never cached -- returns the reference's link under both
/// policies, at demands from 0 to above a link's capacity.
void churn_link_selection(const FabricConfig& config, std::uint64_t seed) {
  const topo::ClusterConfig cluster = paper_cluster();
  Fabric fabric(cluster, config);
  const Router router(fabric);
  Rng rng(seed);
  const MbitsPerSec channel = config.channel_rate;
  const MbitsPerSec capacity = config.link_capacity;
  std::vector<std::span<const LinkId>> groups;
  for (std::uint32_t b = 0; b < cluster.total_boxes(); ++b) {
    groups.push_back(fabric.box_uplinks(BoxId{b}));
  }
  for (std::uint32_t r = 0; r < cluster.racks; ++r) {
    groups.push_back(fabric.rack_uplinks(RackId{r}));
  }
  for (std::uint32_t p = 0; p < fabric.num_pods(); ++p) {
    groups.push_back(fabric.pod_uplinks(p));
  }
  int found = 0, refused = 0;
  for (int step = 0; step < 4000; ++step) {
    mutate_at_random(fabric, rng);
    const MbitsPerSec bw = rng.uniform_int(0, 1) == 0
                               ? channel * rng.uniform_int(0, 9)
                               : rng.uniform_int(0, capacity + 1);
    for (const auto& group : groups) {
      for (const LinkSelectPolicy policy :
           {LinkSelectPolicy::FirstFit, LinkSelectPolicy::MostAvailable}) {
        const LinkId pick = router.select_link(group, bw, policy);
        ASSERT_EQ(pick, reference_select(fabric, group, bw, policy))
            << "group at link " << group.front().value() << " bw " << bw
            << " policy " << name(policy) << " step " << step;
        ++(pick.valid() ? found : refused);
      }
    }
  }
  EXPECT_GT(found, 0);
  EXPECT_GT(refused, 0);
}

TEST(Router, SelectLinkMatchesLinkScanUnderChurn) {
  churn_link_selection(FabricConfig{}, 11);
}

TEST(Router, SelectLinkMatchesLinkScanUnderChurnThreeTier) {
  FabricConfig config;
  config.racks_per_pod = 4;  // 5 pods, the last one partial
  churn_link_selection(config, 12);
}

TEST(Fabric, BestUplinkTiesGoToTheEarliestLink) {
  Fabric fabric(paper_cluster(), FabricConfig{});
  const auto group = fabric.box_uplinks(BoxId{3});
  EXPECT_EQ(fabric.best_box_uplink(BoxId{3}), group[0]);
  ASSERT_TRUE(fabric.allocate(group[0], gbps(25.0)));
  EXPECT_EQ(fabric.best_box_uplink(BoxId{3}), group[1]);
  ASSERT_TRUE(fabric.allocate(group[1], gbps(25.0)));
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

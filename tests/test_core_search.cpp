// Search primitives: contention ratios, first-fit anchors, both BFS
// interpretations and the NALB bandwidth ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/contention.hpp"
#include "core/search.hpp"
#include "network/fabric.hpp"
#include "topology/cluster.hpp"

namespace risa::core {
namespace {

struct SearchFixture : ::testing::Test {
  SearchFixture()
      : cluster(topo::ClusterConfig{}),
        fabric(topo::ClusterConfig{}, net::FabricConfig{}) {}

  topo::Cluster cluster;
  net::Fabric fabric;
};

TEST_F(SearchFixture, ContentionRatioEdgeCases) {
  PerResource<Units> avail{100, 0, 50};
  const auto cr = contention_ratios(UnitVector{10, 5, 0}, avail);
  EXPECT_DOUBLE_EQ(cr[ResourceType::Cpu], 0.1);
  EXPECT_TRUE(std::isinf(cr[ResourceType::Ram]));  // demand vs zero avail
  EXPECT_DOUBLE_EQ(cr[ResourceType::Storage], 0.0);  // zero demand
  EXPECT_EQ(most_contended(cr), ResourceType::Ram);
}

TEST_F(SearchFixture, MostContendedTieBreaksCanonically) {
  const PerResource<double> tied{0.5, 0.5, 0.5};
  EXPECT_EQ(most_contended(tied), ResourceType::Cpu);
  const PerResource<double> ram_sto{0.1, 0.5, 0.5};
  EXPECT_EQ(most_contended(ram_sto), ResourceType::Ram);
}

TEST_F(SearchFixture, RestrictedAvailabilityCountsOnlyFilteredRacks) {
  PerResource<std::vector<RackId>> racks;
  racks[ResourceType::Cpu] = {RackId{0}, RackId{1}};
  racks[ResourceType::Ram] = {RackId{2}};
  racks[ResourceType::Storage] = {};
  const auto avail = restricted_availability(cluster, racks);
  EXPECT_EQ(avail[ResourceType::Cpu], 2 * 2 * 128);
  EXPECT_EQ(avail[ResourceType::Ram], 2 * 128);
  EXPECT_EQ(avail[ResourceType::Storage], 0);
}

TEST_F(SearchFixture, FirstFitScansInIdOrder) {
  // Burn the first three CPU boxes below the demand.
  const auto& cpu = cluster.boxes_of_type(ResourceType::Cpu);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cluster.allocate(cpu[static_cast<std::size_t>(i)], 120).ok());
  }
  const BoxId hit = first_fit_box(cluster, ResourceType::Cpu, 16, std::nullopt);
  EXPECT_EQ(hit, cpu[3]);
  // A demand small enough for the burned boxes prefers the earliest box.
  const BoxId small = first_fit_box(cluster, ResourceType::Cpu, 8, std::nullopt);
  EXPECT_EQ(small, cpu[0]);
}

TEST_F(SearchFixture, FirstFitHonorsRackFilter) {
  PerResource<std::vector<RackId>> racks;
  racks[ResourceType::Cpu] = {RackId{5}};
  const BoxId hit =
      first_fit_box(cluster, ResourceType::Cpu, 8, RackFilter{racks});
  ASSERT_TRUE(hit.valid());
  EXPECT_EQ(cluster.box(hit).rack(), RackId{5});
  racks[ResourceType::Cpu] = {};
  EXPECT_FALSE(
      first_fit_box(cluster, ResourceType::Cpu, 8, RackFilter{racks}).valid());
}

TEST_F(SearchFixture, GlobalOrderIgnoresAnchorRack) {
  // Global order scans from box id 0 regardless of the anchor rack.
  const BoxId hit =
      bfs_search(cluster, fabric, RackId{9}, ResourceType::Ram, 8,
                 NeighborOrder::BoxIdOrder, CompanionSearch::GlobalOrder,
                 std::nullopt);
  EXPECT_EQ(cluster.box(hit).rack(), RackId{0});
}

TEST_F(SearchFixture, AnchorRackFirstPrefersLocalBoxes) {
  const BoxId hit =
      bfs_search(cluster, fabric, RackId{9}, ResourceType::Ram, 8,
                 NeighborOrder::BoxIdOrder, CompanionSearch::AnchorRackFirst,
                 std::nullopt);
  EXPECT_EQ(cluster.box(hit).rack(), RackId{9});
}

TEST_F(SearchFixture, AnchorRackFirstFallsBackToOtherRacks) {
  // Exhaust rack 9's RAM; the search must continue in id order elsewhere.
  for (BoxId id : cluster.boxes_of_type_in_rack(RackId{9}, ResourceType::Ram)) {
    ASSERT_TRUE(cluster.allocate(id, 128).ok());
  }
  const BoxId hit =
      bfs_search(cluster, fabric, RackId{9}, ResourceType::Ram, 8,
                 NeighborOrder::BoxIdOrder, CompanionSearch::AnchorRackFirst,
                 std::nullopt);
  EXPECT_EQ(cluster.box(hit).rack(), RackId{0});
}

TEST_F(SearchFixture, NoCandidateReturnsInvalid) {
  for (BoxId id : cluster.boxes_of_type(ResourceType::Storage)) {
    ASSERT_TRUE(cluster.allocate(id, 128).ok());
  }
  EXPECT_FALSE(bfs_search(cluster, fabric, RackId{0}, ResourceType::Storage, 1,
                          NeighborOrder::BoxIdOrder,
                          CompanionSearch::GlobalOrder, std::nullopt)
                   .valid());
}

TEST_F(SearchFixture, BandwidthOrderingIsNoopOnIdleFabric) {
  // All candidates tie at full headroom and ties go to the earliest
  // candidate, so NALB behaves exactly like NULB on an unloaded fabric.
  const BoxId nulb_choice =
      bfs_search(cluster, fabric, RackId{0}, ResourceType::Ram, 8,
                 NeighborOrder::BoxIdOrder, CompanionSearch::GlobalOrder,
                 std::nullopt);
  const BoxId nalb_choice =
      bfs_search(cluster, fabric, RackId{0}, ResourceType::Ram, 8,
                 NeighborOrder::BandwidthDescending,
                 CompanionSearch::GlobalOrder, std::nullopt);
  EXPECT_EQ(nulb_choice, nalb_choice);
}

TEST_F(SearchFixture, BandwidthOrderingDeprioritizesLoadedBoxes) {
  // Load every uplink of the first RAM box; NALB must skip it while NULB
  // still picks it.
  const auto& ram = cluster.boxes_of_type(ResourceType::Ram);
  for (LinkId id : fabric.box_uplinks(ram[0])) {
    ASSERT_TRUE(fabric.allocate(id, gbps(150.0)).ok());
  }
  const BoxId nulb_choice =
      bfs_search(cluster, fabric, RackId{0}, ResourceType::Ram, 8,
                 NeighborOrder::BoxIdOrder, CompanionSearch::GlobalOrder,
                 std::nullopt);
  const BoxId nalb_choice =
      bfs_search(cluster, fabric, RackId{0}, ResourceType::Ram, 8,
                 NeighborOrder::BandwidthDescending,
                 CompanionSearch::GlobalOrder, std::nullopt);
  EXPECT_EQ(nulb_choice, ram[0]);
  EXPECT_NE(nalb_choice, ram[0]);
}

TEST_F(SearchFixture, RackAllowedSemantics) {
  EXPECT_TRUE(rack_allowed(std::nullopt, ResourceType::Cpu, RackId{3}));
  PerResource<std::vector<RackId>> racks;
  racks[ResourceType::Cpu] = {RackId{1}, RackId{3}};
  const RackFilter filter{racks};
  EXPECT_TRUE(rack_allowed(filter, ResourceType::Cpu, RackId{3}));
  EXPECT_FALSE(rack_allowed(filter, ResourceType::Cpu, RackId{2}));
  EXPECT_FALSE(rack_allowed(filter, ResourceType::Ram, RackId{3}));
}

// ---- Differential test: bandwidth-ordered search vs a full-scan reference.

/// Most free bandwidth on any link of a group, by rescanning it.
MbitsPerSec rescan_best(const net::Fabric& fabric, std::span<const LinkId> group) {
  MbitsPerSec best = 0;
  for (LinkId id : group) best = std::max(best, fabric.link(id).available());
  return best;
}

/// The historical NALB ranking: materialize every fitting candidate of a
/// tier, stable-sort by descending channel headroom, take the first.
BoxId reference_bandwidth_search(const topo::Cluster& cluster,
                                 const net::Fabric& fabric, RackId anchor,
                                 ResourceType type, Units units,
                                 CompanionSearch companion,
                                 const RackFilter& filter) {
  const MbitsPerSec channel = fabric.config().channel_rate;
  auto key = [&](BoxId box) {
    const RackId rack = cluster.box(box).rack();
    MbitsPerSec headroom = rescan_best(fabric, fabric.box_uplinks(box));
    if (rack != anchor) {
      headroom = std::min({headroom, rescan_best(fabric, fabric.rack_uplinks(anchor)),
                           rescan_best(fabric, fabric.rack_uplinks(rack))});
    }
    return headroom / channel;
  };
  using Keyed = std::pair<MbitsPerSec, BoxId>;
  auto first_of_ranked = [](std::vector<Keyed> tier) {
    if (tier.empty()) return BoxId::invalid();
    std::stable_sort(tier.begin(), tier.end(), [](const Keyed& a, const Keyed& b) {
      return a.first > b.first;
    });
    return tier.front().second;
  };
  std::vector<Keyed> anchor_tier, rest;
  for (BoxId box : cluster.boxes_of_type(type)) {
    const RackId rack = cluster.box(box).rack();
    if (!filter.allows(type, rack) || cluster.box(box).available_units() < units) {
      continue;
    }
    const bool local = companion == CompanionSearch::AnchorRackFirst && rack == anchor;
    (local ? anchor_tier : rest).emplace_back(key(box), box);
  }
  if (!anchor_tier.empty()) return first_of_ranked(std::move(anchor_tier));
  return first_of_ranked(std::move(rest));
}

struct BandwidthSearchDifferential : ::testing::Test {
  // 96 racks: two index shards, so the walk crosses a shard boundary.
  static topo::ClusterConfig shape() {
    topo::ClusterConfig config;
    config.racks = 96;
    return config;
  }

  BandwidthSearchDifferential() : cluster(shape()), fabric(shape(), net::FabricConfig{}) {}

  RackFilter random_filter() {
    PerResource<std::vector<RackId>> racks;
    for (ResourceType t : kAllResources) {
      for (std::uint32_t r = 0; r < cluster.num_racks(); ++r) {
        if (rng.uniform_int(0, 2) != 0) racks[t].push_back(RackId{r});
      }
    }
    return RackFilter{racks};
  }

  /// Every anchor position (first, mid-walk, last, random) x type x tiering
  /// x filter must agree with the reference.
  void expect_matches_reference() {
    const std::uint32_t last = cluster.num_racks() - 1;
    const RackId anchors[] = {
        RackId{0}, RackId{last / 2}, RackId{64}, RackId{last},
        RackId{static_cast<std::uint32_t>(rng.uniform_int(0, last))}};
    const RackFilter filters[] = {RackFilter{}, random_filter()};
    for (RackId anchor : anchors) {
      for (ResourceType type : kAllResources) {
        const Units units = rng.uniform_int(1, cluster.config().box_units(type));
        for (CompanionSearch companion :
             {CompanionSearch::GlobalOrder, CompanionSearch::AnchorRackFirst}) {
          for (const RackFilter& filter : filters) {
            ASSERT_EQ(bfs_search(cluster, fabric, anchor, type, units,
                                 NeighborOrder::BandwidthDescending, companion,
                                 filter),
                      reference_bandwidth_search(cluster, fabric, anchor, type,
                                                 units, companion, filter))
                << "anchor " << anchor.value() << " units " << units
                << " companion " << static_cast<int>(companion)
                << " restricted " << filter.restricted();
          }
        }
      }
    }
  }

  void churn_cluster() {
    const std::int64_t op = rng.uniform_int(0, 9);
    if (op < 5) {
      const BoxId box{static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cluster.num_boxes()) - 1))};
      auto placed = cluster.allocate(box, rng.uniform_int(1, 64));
      if (placed.ok()) live.push_back(std::move(placed.value()));
    } else if (op < 9 && !live.empty()) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      cluster.release(live[i]);
      live[i] = std::move(live.back());
      live.pop_back();
    } else {
      const BoxId box{static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cluster.num_boxes()) - 1))};
      cluster.set_box_offline(box, !cluster.box(box).offline());
    }
  }

  /// Churn the uplinks of the first kHotRacks racks (rack or
  /// box uplinks, evenly), so those congest, keys tie often and the
  /// anchor's rack bound binds whenever the anchor is hot.
  static constexpr std::int64_t kHotRacks = 16;
  void churn_fabric() {
    const RackId rack{static_cast<std::uint32_t>(rng.uniform_int(0, kHotRacks - 1))};
    const std::int64_t per_rack = cluster.config().total_boxes_per_rack();
    const std::span<const LinkId> group =
        rng.uniform_int(0, 1) == 0
            ? fabric.rack_uplinks(rack)
            : fabric.box_uplinks(BoxId{static_cast<std::uint32_t>(  // rack-major ids
                  rack.value() * per_rack + rng.uniform_int(0, per_rack - 1))});
    const LinkId target = group[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(group.size()) - 1))];
    const net::Link& l = fabric.link(target);
    const MbitsPerSec channel = fabric.config().channel_rate;
    const std::int64_t op = rng.uniform_int(0, 19);
    if (op < 12) {
      // Mostly whole channels (ties); partial ones make raw headrooms of
      // equal channel count differ, which must still tie.
      (void)fabric.allocate(target, rng.uniform_int(0, 3) != 0
                                        ? channel * rng.uniform_int(1, 4)
                                        : rng.uniform_int(1, 3 * channel));
    } else if (op < 19) {
      if (l.allocated() > 0) {
        fabric.release(target, rng.uniform_int(1, std::min(l.allocated(), 2 * channel)));
      }
    } else {
      fabric.set_link_failed(target, !l.failed());
    }
  }

  topo::Cluster cluster;
  net::Fabric fabric;
  Rng rng{20231112};
  std::vector<topo::BoxAllocation> live;
};

TEST_F(BandwidthSearchDifferential, AllTiedAtCapacity) {
  // Idle fabric: every key is the full link, so the scan may stop at the
  // first fit -- which must still be the reference's choice.
  for (int step = 0; step < 150; ++step) {
    churn_cluster();
    expect_matches_reference();
    if (HasFatalFailure()) return;
  }
}

TEST_F(BandwidthSearchDifferential, AllTiedBelowCapacity) {
  // Every rack uplink loses the same three channels: inter-rack keys all
  // tie at the anchor's bound, intra-rack ones at the full link.
  for (std::uint32_t r = 0; r < cluster.num_racks(); ++r) {
    for (LinkId id : fabric.rack_uplinks(RackId{r})) {
      ASSERT_TRUE(fabric.allocate(id, gbps(75.0)).ok());
    }
  }
  for (int step = 0; step < 150; ++step) {
    churn_cluster();
    expect_matches_reference();
    if (HasFatalFailure()) return;
  }
}

TEST_F(BandwidthSearchDifferential, ClusterAndFabricChurn) {
  int reordered = 0;
  for (int step = 0; step < 600; ++step) {
    churn_cluster();
    for (int k = 0; k < 8; ++k) churn_fabric();
    expect_matches_reference();
    if (HasFatalFailure()) return;
    reordered += bfs_search(cluster, fabric, RackId{0}, ResourceType::Ram, 1,
                            NeighborOrder::BandwidthDescending,
                            CompanionSearch::GlobalOrder, std::nullopt) !=
                 first_fit_box(cluster, ResourceType::Ram, 1, std::nullopt);
  }
  // The churn must congest links enough that NALB departs from id order.
  EXPECT_GT(reordered, 0);
  fabric.check_invariants();
}

}  // namespace
}  // namespace risa::core

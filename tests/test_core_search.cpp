// Search primitives: contention ratios, first-fit anchors, both BFS
// interpretations and the NALB bandwidth ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <span>
#include <string>
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
  topo::BoxAllocation taken;  ///< scratch record for burning boxes
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
    ASSERT_TRUE(cluster.allocate_into(cpu[static_cast<std::size_t>(i)], 120, taken));
  }
  const BoxId hit = first_fit_box(cluster, ResourceType::Cpu, 16, RackFilter{});
  EXPECT_EQ(hit, cpu[3]);
  // A demand small enough for the burned boxes prefers the earliest box.
  const BoxId small = first_fit_box(cluster, ResourceType::Cpu, 8, RackFilter{});
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
                 RackFilter{});
  EXPECT_EQ(cluster.box(hit).rack(), RackId{0});
}

TEST_F(SearchFixture, AnchorRackFirstPrefersLocalBoxes) {
  const BoxId hit =
      bfs_search(cluster, fabric, RackId{9}, ResourceType::Ram, 8,
                 NeighborOrder::BoxIdOrder, CompanionSearch::AnchorRackFirst,
                 RackFilter{});
  EXPECT_EQ(cluster.box(hit).rack(), RackId{9});
}

TEST_F(SearchFixture, AnchorRackFirstFallsBackToOtherRacks) {
  // Exhaust rack 9's RAM; the search must continue in id order elsewhere.
  for (BoxId id : cluster.boxes_of_type_in_rack(RackId{9}, ResourceType::Ram)) {
    ASSERT_TRUE(cluster.allocate_into(id, 128, taken));
  }
  const BoxId hit =
      bfs_search(cluster, fabric, RackId{9}, ResourceType::Ram, 8,
                 NeighborOrder::BoxIdOrder, CompanionSearch::AnchorRackFirst,
                 RackFilter{});
  EXPECT_EQ(cluster.box(hit).rack(), RackId{0});
}

TEST_F(SearchFixture, NoCandidateReturnsInvalid) {
  for (BoxId id : cluster.boxes_of_type(ResourceType::Storage)) {
    ASSERT_TRUE(cluster.allocate_into(id, 128, taken));
  }
  EXPECT_FALSE(bfs_search(cluster, fabric, RackId{0}, ResourceType::Storage, 1,
                          NeighborOrder::BoxIdOrder,
                          CompanionSearch::GlobalOrder, RackFilter{})
                   .valid());
}

TEST_F(SearchFixture, BandwidthOrderingIsNoopOnIdleFabric) {
  // All candidates tie at full headroom and ties go to the earliest
  // candidate, so NALB behaves exactly like NULB on an unloaded fabric.
  const BoxId nulb_choice =
      bfs_search(cluster, fabric, RackId{0}, ResourceType::Ram, 8,
                 NeighborOrder::BoxIdOrder, CompanionSearch::GlobalOrder,
                 RackFilter{});
  const BoxId nalb_choice =
      bfs_search(cluster, fabric, RackId{0}, ResourceType::Ram, 8,
                 NeighborOrder::BandwidthDescending,
                 CompanionSearch::GlobalOrder, RackFilter{});
  EXPECT_EQ(nulb_choice, nalb_choice);
}

TEST_F(SearchFixture, BandwidthOrderingDeprioritizesLoadedBoxes) {
  // Load every uplink of the first RAM box; NALB must skip it while NULB
  // still picks it.
  const auto& ram = cluster.boxes_of_type(ResourceType::Ram);
  for (LinkId id : fabric.box_uplinks(ram[0])) {
    ASSERT_TRUE(fabric.allocate(id, gbps(150.0)));
  }
  const BoxId nulb_choice =
      bfs_search(cluster, fabric, RackId{0}, ResourceType::Ram, 8,
                 NeighborOrder::BoxIdOrder, CompanionSearch::GlobalOrder,
                 RackFilter{});
  const BoxId nalb_choice =
      bfs_search(cluster, fabric, RackId{0}, ResourceType::Ram, 8,
                 NeighborOrder::BandwidthDescending,
                 CompanionSearch::GlobalOrder, RackFilter{});
  EXPECT_EQ(nulb_choice, ram[0]);
  EXPECT_NE(nalb_choice, ram[0]);
}

TEST_F(SearchFixture, RackFilterAllowsSemantics) {
  EXPECT_TRUE(RackFilter{}.allows(ResourceType::Cpu, RackId{3}));
  PerResource<std::vector<RackId>> racks;
  racks[ResourceType::Cpu] = {RackId{1}, RackId{3}};
  const RackFilter filter{racks};
  EXPECT_TRUE(filter.allows(ResourceType::Cpu, RackId{3}));
  EXPECT_FALSE(filter.allows(ResourceType::Cpu, RackId{2}));
  EXPECT_FALSE(filter.allows(ResourceType::Ram, RackId{3}));
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

/// The racks bfs_search(BandwidthDescending) must rank: walking each
/// tier's fitting racks in ascending id with the running `need` of the
/// rank above, exactly those whose bound (a full link for the anchor rack
/// under GlobalOrder, else the smaller of the two best rack uplinks) is at
/// least `need` -- no other rack can change the winner.  AnchorRackFirst
/// ranks the anchor rack first whenever the filter admits it.
std::uint64_t reference_racks_ranked(const topo::Cluster& cluster,
                                     const net::Fabric& fabric, RackId anchor,
                                     ResourceType type, Units units,
                                     CompanionSearch companion,
                                     const RackFilter& filter) {
  const MbitsPerSec channel = fabric.config().channel_rate;
  const MbitsPerSec capacity = fabric.config().link_capacity;
  const MbitsPerSec anchor_uplink = rescan_best(fabric, fabric.rack_uplinks(anchor));
  std::uint64_t ranked = 0;
  MbitsPerSec need = 0;
  bool found = false;
  auto rank = [&](RackId rack, MbitsPerSec bound) {
    ++ranked;
    for (BoxId box : cluster.boxes_of_type_in_rack(rack, type)) {
      if (cluster.box(box).available_units() < units) continue;
      const MbitsPerSec headroom =
          std::min(rescan_best(fabric, fabric.box_uplinks(box)), bound);
      if (headroom >= need) {
        need = (headroom / channel + 1) * channel;
        found = true;
      }
    }
  };
  const bool tiered = companion == CompanionSearch::AnchorRackFirst;
  if (tiered && filter.allows(type, anchor)) {
    rank(anchor, capacity);
    if (found) return ranked;
    need = 0;
  }
  for (std::uint32_t r = 0; r < cluster.num_racks(); ++r) {
    const RackId rack{r};
    if ((tiered && rack == anchor) || !filter.allows(type, rack)) continue;
    const auto& boxes = cluster.boxes_of_type_in_rack(rack, type);
    if (std::none_of(boxes.begin(), boxes.end(), [&](BoxId box) {
          return cluster.box(box).available_units() >= units;
        })) {
      continue;
    }
    const MbitsPerSec bound =
        rack == anchor ? capacity
                       : std::min(anchor_uplink,
                                  rescan_best(fabric, fabric.rack_uplinks(rack)));
    if (bound >= need) rank(rack, bound);
  }
  return ranked;
}

/// One cluster/fabric shape for the differential.  The churned "hot"
/// racks straddle the rack-64 shard boundary, so pruning is checked on
/// both sides of it.
struct DifferentialShape {
  const char* name;
  std::uint32_t racks;
  MbitsPerSec channel_rate;
  int step_divisor;  ///< the larger shapes run fewer search steps
};

std::ostream& operator<<(std::ostream& os, const DifferentialShape& shape) {
  return os << shape.name;
}

struct BandwidthSearchDifferential
    : ::testing::TestWithParam<DifferentialShape> {
  static topo::ClusterConfig shape() {
    topo::ClusterConfig config;
    config.racks = GetParam().racks;
    return config;
  }
  static net::FabricConfig fabric_config() {
    net::FabricConfig config;
    config.channel_rate = GetParam().channel_rate;
    return config;
  }

  BandwidthSearchDifferential() : cluster(shape()), fabric(shape(), fabric_config()) {}

  [[nodiscard]] static int steps(int full) { return full / GetParam().step_divisor; }

  RackFilter random_filter() {
    PerResource<std::vector<RackId>> racks;
    for (ResourceType t : kAllResources) {
      for (std::uint32_t r = 0; r < cluster.num_racks(); ++r) {
        if (rng.uniform_int(0, 2) != 0) racks[t].push_back(RackId{r});
      }
    }
    return RackFilter{racks};
  }

  /// Every anchor position (first, both sides of the shard boundary,
  /// mid-walk, last, random) x type x tiering x filter must agree with the
  /// reference, and rank exactly the racks that could change the winner.
  /// Counts the searches whose winner is not the box-id-order one.
  void expect_matches_reference() {
    const std::uint32_t last = cluster.num_racks() - 1;
    const RackId anchors[] = {
        RackId{0}, RackId{63}, RackId{64}, RackId{last / 2}, RackId{last},
        RackId{static_cast<std::uint32_t>(rng.uniform_int(0, last))}};
    const RackFilter filters[] = {RackFilter{}, random_filter()};
    for (RackId anchor : anchors) {
      for (ResourceType type : kAllResources) {
        const Units units = rng.uniform_int(1, cluster.config().box_units(type));
        for (CompanionSearch companion :
             {CompanionSearch::GlobalOrder, CompanionSearch::AnchorRackFirst}) {
          for (const RackFilter& filter : filters) {
            SearchTally tally;
            const BoxId ranked =
                bfs_search(cluster, fabric, anchor, type, units,
                           NeighborOrder::BandwidthDescending, companion,
                           filter, &tally);
            ASSERT_EQ(ranked,
                      reference_bandwidth_search(cluster, fabric, anchor, type,
                                                 units, companion, filter))
                << "anchor " << anchor.value() << " units " << units
                << " companion " << static_cast<int>(companion)
                << " restricted " << filter.restricted();
            ASSERT_EQ(tally.racks,
                      reference_racks_ranked(cluster, fabric, anchor, type,
                                             units, companion, filter))
                << "anchor " << anchor.value() << " units " << units
                << " companion " << static_cast<int>(companion)
                << " restricted " << filter.restricted();
            reordered += ranked != bfs_search(cluster, fabric, anchor, type,
                                              units, NeighborOrder::BoxIdOrder,
                                              companion, filter);
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
      topo::BoxAllocation placed;
      if (cluster.allocate_into(box, rng.uniform_int(1, 64), placed)) {
        live.push_back(placed);
      }
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

  /// Churn the uplinks of racks [kHotFirst, kHotFirst + kHotRacks) (rack
  /// or box uplinks, evenly), so those congest, keys tie often and the
  /// anchor's rack bound binds whenever the anchor is hot.  Amounts are
  /// in 25 Gb/s units whatever the channel rate, so a 1 Mb/s-channel
  /// fabric congests as much as the default one.
  static constexpr std::int64_t kHotFirst = 56;
  static constexpr std::int64_t kHotRacks = 16;
  void churn_fabric() {
    const RackId rack{static_cast<std::uint32_t>(
        rng.uniform_int(kHotFirst, kHotFirst + kHotRacks - 1))};
    const std::int64_t per_rack = cluster.config().total_boxes_per_rack();
    const std::span<const LinkId> group =
        rng.uniform_int(0, 1) == 0
            ? fabric.rack_uplinks(rack)
            : fabric.box_uplinks(BoxId{static_cast<std::uint32_t>(  // rack-major ids
                  rack.value() * per_rack + rng.uniform_int(0, per_rack - 1))});
    const LinkId target = group[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(group.size()) - 1))];
    const net::Link& l = fabric.link(target);
    const MbitsPerSec unit = gbps(25.0);
    const std::int64_t op = rng.uniform_int(0, 19);
    if (op < 12) {
      // Mostly whole units (ties); partial ones make raw headrooms of
      // equal channel count differ, which must still tie.
      (void)fabric.allocate(target, rng.uniform_int(0, 3) != 0
                                        ? unit * rng.uniform_int(1, 4)
                                        : rng.uniform_int(1, 3 * unit));
    } else if (op < 19) {
      if (l.allocated() > 0) {
        fabric.release(target, rng.uniform_int(1, std::min(l.allocated(), 2 * unit)));
      }
    } else {
      fabric.set_link_failed(target, !l.failed());
    }
  }

  topo::Cluster cluster;
  net::Fabric fabric;
  Rng rng{20231112};
  std::vector<topo::BoxAllocation> live;
  int reordered = 0;  ///< ranked searches that left box-id order
};

TEST_P(BandwidthSearchDifferential, AllTiedAtCapacity) {
  // Idle fabric: every key is the full link, so the scan may stop at the
  // first fit -- which must still be the reference's choice.
  for (int step = 0; step < steps(150); ++step) {
    churn_cluster();
    expect_matches_reference();
    if (HasFatalFailure()) return;
  }
  // With every key tied, NALB places exactly as NULB (Figure 5).
  EXPECT_EQ(reordered, 0);
}

TEST_P(BandwidthSearchDifferential, AllTiedBelowCapacity) {
  // Every rack uplink loses the same three 25 Gb/s units: inter-rack keys
  // all tie at the anchor's bound, intra-rack ones at the full link.
  for (std::uint32_t r = 0; r < cluster.num_racks(); ++r) {
    for (LinkId id : fabric.rack_uplinks(RackId{r})) {
      ASSERT_TRUE(fabric.allocate(id, gbps(75.0)));
    }
  }
  for (int step = 0; step < steps(150); ++step) {
    churn_cluster();
    expect_matches_reference();
    if (HasFatalFailure()) return;
  }
}

TEST_P(BandwidthSearchDifferential, StaggeredRackUplinks) {
  // Each rack's uplinks all lose the same random number of 25 Gb/s units,
  // so rack bounds differ from rack to rack and a later rack often holds
  // exactly the channels `need` asks for.
  for (std::uint32_t r = 0; r < cluster.num_racks(); ++r) {
    const MbitsPerSec lost = gbps(25.0) * rng.uniform_int(0, 7);
    if (lost == 0) continue;
    for (LinkId id : fabric.rack_uplinks(RackId{r})) {
      ASSERT_TRUE(fabric.allocate(id, lost));
    }
  }
  for (int step = 0; step < steps(150); ++step) {
    churn_cluster();
    expect_matches_reference();
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(reordered, 0);
}

TEST_P(BandwidthSearchDifferential, ClusterAndFabricChurn) {
  for (int step = 0; step < steps(600); ++step) {
    churn_cluster();
    // Shapes that run fewer steps churn as much in total.
    for (int k = 0; k < 8 * GetParam().step_divisor; ++k) churn_fabric();
    expect_matches_reference();
    if (HasFatalFailure()) return;
  }
  // The churn must congest links enough that NALB departs from id order.
  EXPECT_GT(reordered, 0);
  fabric.check_invariants();
}

// 96 racks: two index shards, the second one partial.  256 racks: four
// full shards.  100 racks: a partial last shard whose phantom lanes must
// never surface.  1 Mb/s channels: a link holds 200,000 channels, past
// the u16 lanes, so the walk takes the fabric's exact fallback.
INSTANTIATE_TEST_SUITE_P(
    Shapes, BandwidthSearchDifferential,
    ::testing::Values(DifferentialShape{"racks96", 96, gbps(25.0), 1},
                      DifferentialShape{"racks256", 256, gbps(25.0), 6},
                      DifferentialShape{"racks100", 100, gbps(25.0), 4},
                      DifferentialShape{"racks96_channel1mbps", 96, 1, 4}),
    [](const ::testing::TestParamInfo<DifferentialShape>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace risa::core

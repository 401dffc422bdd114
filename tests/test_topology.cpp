// Topology substrate: Table 1 shape, unit-granular allocation with brick
// accounting, incremental rack/cluster aggregates, snapshot/restore, and
// the build layout (per-rack box runs, a rack-count-free allocation count).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "network/fabric.hpp"
#include "topology/cluster.hpp"
#include "topology/config.hpp"

// Every global operator new of this binary counts itself, so a test can
// count the heap allocations a build makes.  The array and nothrow forms
// forward here in libstdc++; the aligned forms stay the library's own.
namespace {
std::atomic<std::size_t> g_new_calls{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// All out of line: inlined into a caller, one of the pair would show GCC a
// malloc matched with a delete (or a new with a free) and draw
// -Wmismatched-new-delete, although the pair is malloc/free throughout.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace risa::topo {
namespace {

/// Heap allocations `build` makes.
template <typename F>
std::size_t allocations_during(F&& build) {
  const std::size_t before = g_new_calls.load(std::memory_order_relaxed);
  build();
  return g_new_calls.load(std::memory_order_relaxed) - before;
}

TEST(ClusterConfig, Table1Defaults) {
  const ClusterConfig cfg{};
  EXPECT_EQ(cfg.racks, 18u);
  EXPECT_EQ(cfg.total_boxes_per_rack(), 6u);
  EXPECT_EQ(cfg.bricks_per_box, 8u);
  EXPECT_EQ(cfg.units_per_brick, 16);
  EXPECT_EQ(cfg.box_units(ResourceType::Cpu), 128);
  // 18 racks x 2 boxes x 128 units = 4608 units of each type.
  EXPECT_EQ(cfg.total_units(ResourceType::Cpu), 4608);
  EXPECT_EQ(cfg.total_units(ResourceType::Ram), 4608);
  EXPECT_EQ(cfg.total_units(ResourceType::Storage), 4608);
  // In physical terms: 18432 cores, 18432 GB RAM, 294912 GB storage.
  EXPECT_EQ(cfg.total_units(ResourceType::Cpu) * cfg.unit_scale.cores_per_cpu_unit,
            18432);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ClusterConfig, ToyExampleShape) {
  const ClusterConfig cfg = ClusterConfig::toy_example();
  EXPECT_EQ(cfg.racks, 2u);
  // Toy boxes: 64 cores, 64 GB, 512 GB at 1 core / 1 GB / 64 GB units
  // (Tables 3-4 are single-core granular; see config.hpp).
  EXPECT_EQ(cfg.box_units(ResourceType::Cpu), 64);
  EXPECT_EQ(cfg.box_units(ResourceType::Ram), 64);
  EXPECT_EQ(cfg.box_units(ResourceType::Storage), 8);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ClusterConfig, ValidationRejectsDegenerateShapes) {
  ClusterConfig cfg;
  cfg.racks = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ClusterConfig{};
  cfg.boxes_per_rack[ResourceType::Ram] = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ClusterConfig{};
  cfg.units_per_brick = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ClusterConfig, ValidationRejectsBoxesPastU32Units) {
  // Brick slices store their units as u32; a box that does not fit would
  // make them inexact, so the config is rejected up front.
  ClusterConfig cfg;
  cfg.bricks_per_box = 1;
  cfg.units_per_brick = ClusterConfig::kMaxBoxUnits;
  EXPECT_NO_THROW(cfg.validate());  // exactly UINT32_MAX fits
  cfg.units_per_brick = ClusterConfig::kMaxBoxUnits + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // The bricks * units product is what counts, and must not overflow.
  cfg = ClusterConfig{};
  cfg.bricks_per_box = 2;
  cfg.units_per_brick = ClusterConfig::kMaxBoxUnits / 2 + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.units_per_brick = std::numeric_limits<Units>::max();
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // A per-type override is checked on its own value.
  cfg = ClusterConfig{};
  cfg.box_units_override[ResourceType::Storage] = ClusterConfig::kMaxBoxUnits + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.box_units_override[ResourceType::Storage] = ClusterConfig::kMaxBoxUnits;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Box, DirectlyBuiltBoxIsBoundedByU32Units) {
  // An allocation's units are a u32 too, so a box built without a config
  // is bounded as a whole, not only brick by brick.
  const Units half = ClusterConfig::kMaxBoxUnits / 2;
  const std::vector<Units> fits = {half, half + 1};  // exactly UINT32_MAX
  EXPECT_NO_THROW(Box(BoxId{0}, RackId{0}, ResourceType::Cpu, 0, fits));
  const std::vector<Units> too_big = {half + 1, half + 1};
  EXPECT_THROW(Box(BoxId{0}, RackId{0}, ResourceType::Cpu, 0, too_big),
               std::invalid_argument);

  // A whole UINT32_MAX-unit box allocates exactly.
  Box box(BoxId{0}, RackId{0}, ResourceType::Cpu, 0, fits);
  BoxAllocation all;
  ASSERT_TRUE(box.allocate_into(ClusterConfig::kMaxBoxUnits, all));
  EXPECT_EQ(all.units, 0xFFFFFFFFu);
  box.release(all);
  EXPECT_EQ(box.available_units(), ClusterConfig::kMaxBoxUnits);
}

TEST(Cluster, BuildsPaperShape) {
  const Cluster cluster((ClusterConfig()));
  EXPECT_EQ(cluster.num_racks(), 18u);
  EXPECT_EQ(cluster.num_boxes(), 108u);
  for (ResourceType t : kAllResources) {
    EXPECT_EQ(cluster.boxes_of_type(t).size(), 36u);
    EXPECT_EQ(cluster.total_capacity(t), 4608);
    EXPECT_EQ(cluster.total_available(t), 4608);
    EXPECT_DOUBLE_EQ(cluster.utilization(t), 0.0);
  }
  cluster.check_invariants();
}

TEST(Cluster, PerTypeOrderingIsRackMajor) {
  const Cluster cluster((ClusterConfig()));
  const auto& cpu_boxes = cluster.boxes_of_type(ResourceType::Cpu);
  for (std::size_t i = 0; i < cpu_boxes.size(); ++i) {
    const Box& box = cluster.box(cpu_boxes[i]);
    EXPECT_EQ(box.index_in_type(), i);
    EXPECT_EQ(box.rack().value(), i / 2);  // 2 CPU boxes per rack
    EXPECT_EQ(box.type(), ResourceType::Cpu);
  }
}

/// Box ids are assigned rack-major and type-major, so each rack's boxes of
/// a type are one run of consecutive ids.  On even and uneven rack shapes,
/// under a two-tier and a three-tier fabric: every run is consecutive,
/// holds exactly its rack's boxes of its type, and the runs partition the
/// boxes; the fabric's box switches and uplink groups follow the same
/// order, and its tables have their closed-form sizes.
TEST(Cluster, BoxRunsPartitionTheBoxesByRackAndType) {
  const PerResource<std::uint32_t> shapes[] = {{2, 2, 2}, {3, 1, 2}};
  for (const std::uint32_t racks_per_pod : {0u, 4u}) {
    for (const PerResource<std::uint32_t>& per_rack : shapes) {
      ClusterConfig shape;
      shape.racks = 10;
      shape.boxes_per_rack = per_rack;
      net::FabricConfig fc;
      fc.racks_per_pod = racks_per_pod;
      const Cluster cluster(shape);
      const net::Fabric fabric(shape, fc);
      SCOPED_TRACE("racks_per_pod " + std::to_string(racks_per_pod) +
                   ", CPU boxes per rack " + std::to_string(per_rack.cpu()));

      const std::uint32_t pods = racks_per_pod > 0 ? 3 : 0;  // 4 + 4 + 2
      const std::size_t boxes = cluster.num_boxes();
      EXPECT_EQ(fabric.num_switches(), 10 + boxes + pods + 1);
      EXPECT_EQ(fabric.num_links(),
                boxes * fc.links_per_box + 10 * fc.links_per_rack +
                    pods * fc.links_per_pod);

      // Boxes per (rack, type), tallied from the boxes themselves.
      std::vector<PerResource<std::uint32_t>> tally(
          10, PerResource<std::uint32_t>{0, 0, 0});
      for (std::uint32_t i = 0; i < boxes; ++i) {
        const Box& box = cluster.box(BoxId{i});
        ++tally[box.rack().value()][box.type()];
      }
      std::vector<int> covered(boxes, 0);
      for (std::uint32_t r = 0; r < 10; ++r) {
        const RackId rack{r};
        for (ResourceType t : kAllResources) {
          const std::span<const BoxId> run = cluster.rack(rack).boxes(t);
          const std::span<const BoxId> same =
              cluster.boxes_of_type_in_rack(rack, t);
          EXPECT_EQ(same.data(), run.data());
          EXPECT_EQ(same.size(), run.size());
          ASSERT_EQ(run.size(), per_rack[t]);
          EXPECT_EQ(run.size(), tally[r][t]);
          for (std::size_t i = 0; i < run.size(); ++i) {
            const BoxId id = run[i];
            EXPECT_EQ(id.value(), run[0].value() + i);
            EXPECT_EQ(cluster.box(id).rack(), rack);
            EXPECT_EQ(cluster.box(id).type(), t);
            ++covered[id.value()];
            const net::SwitchNode& sw =
                fabric.switch_node(fabric.box_switch(id));
            EXPECT_EQ(sw.box, id);
            EXPECT_EQ(sw.rack, rack);
            for (LinkId l : fabric.box_uplinks(id)) {
              EXPECT_EQ(fabric.link(l).box(), id);
              EXPECT_EQ(fabric.link(l).rack(), rack);
            }
          }
        }
      }
      EXPECT_TRUE(std::all_of(covered.begin(), covered.end(),
                              [](int n) { return n == 1; }));
      fabric.check_invariants();
      cluster.check_invariants();
    }
  }
}

/// A build writes each table at its final size, so the number of heap
/// allocations it makes is the same at 18 racks as at 256 (a Cluster's
/// ceiling) and, for a Fabric alone, at 4,096 -- on a two-tier and a
/// three-tier fabric.
TEST(TopologyBuild, AllocationCountDoesNotDependOnTheRackCount) {
  for (const std::uint32_t racks_per_pod : {0u, 6u}) {
    net::FabricConfig fc;
    fc.racks_per_pod = racks_per_pod;
    auto shape = [](std::uint32_t racks) {
      ClusterConfig config;
      config.racks = racks;
      return config;
    };
    auto both = [&](std::uint32_t racks) {
      return allocations_during([&] {
        const Cluster cluster(shape(racks));
        const net::Fabric fabric(shape(racks), fc);
      });
    };
    auto fabric_only = [&](std::uint32_t racks) {
      return allocations_during(
          [&] { const net::Fabric fabric(shape(racks), fc); });
    };
    const std::size_t at_18 = both(18);
    EXPECT_GT(at_18, 0u) << "the counting operator new is not in use";
    EXPECT_EQ(both(256), at_18) << "racks_per_pod " << racks_per_pod;
    EXPECT_EQ(fabric_only(4096), fabric_only(18))
        << "racks_per_pod " << racks_per_pod;
  }
}

TEST(Cluster, AllocateReleasesRoundTripExactly) {
  Cluster cluster((ClusterConfig()));
  const BoxId target = cluster.boxes_of_type(ResourceType::Ram)[3];
  BoxAllocation alloc;
  ASSERT_TRUE(cluster.allocate_into(target, 100, alloc));
  EXPECT_EQ(alloc.units, 100u);
  EXPECT_EQ(cluster.box(target).available_units(), 28);
  EXPECT_EQ(cluster.total_available(ResourceType::Ram), 4508);
  cluster.check_invariants();

  cluster.release(alloc);
  EXPECT_EQ(cluster.box(target).available_units(), 128);
  EXPECT_EQ(cluster.total_available(ResourceType::Ram), 4608);
  cluster.check_invariants();
}

TEST(Cluster, AllocationSpansBricksFirstFit) {
  Cluster cluster((ClusterConfig()));  // bricks of 16 units
  const BoxId target = cluster.boxes_of_type(ResourceType::Cpu)[0];
  BoxAllocation alloc;
  ASSERT_TRUE(cluster.allocate_into(target, 40, alloc));  // 16 + 16 + 8
  ASSERT_EQ(alloc.slices.size(), 3u);
  EXPECT_EQ(alloc.slices[0].units, 16);
  EXPECT_EQ(alloc.slices[1].units, 16);
  EXPECT_EQ(alloc.slices[2].units, 8);
  EXPECT_EQ(cluster.box(target).brick_available(2), 8);
  cluster.release(alloc);
  EXPECT_EQ(cluster.box(target).brick_available(2), 16);
}

/// Everything a refused allocate_into must leave as it was, seen from one
/// CPU box: its bricks and hint, its rack's aggregates, the cluster total,
/// and the index (the rack's leaf, the cluster maximum and the SUPER_RACK
/// masks for every CPU demand up to one past a box's capacity).
struct CpuBoxView {
  std::vector<Units> bricks;
  Units allocated = 0;
  std::uint32_t first_free = 0;
  Units rack_max = 0;
  Units rack_total = 0;
  Units cluster_total = 0;
  PerResource<Units> leaf;
  Units cluster_max = 0;
  std::vector<RackSet> masks;

  friend bool operator==(const CpuBoxView&, const CpuBoxView&) = default;
};

CpuBoxView view(const Cluster& cluster, BoxId id) {
  constexpr ResourceType kCpu = ResourceType::Cpu;
  const Box& box = cluster.box(id);
  const Rack& rack = cluster.rack(box.rack());
  CpuBoxView v;
  v.bricks = box.available_by_brick();
  v.allocated = box.allocated_units();
  v.first_free = box.first_free_brick();
  v.rack_max = rack.max_available(kCpu);
  v.rack_total = rack.total_available(kCpu);
  v.cluster_total = cluster.total_available(kCpu);
  v.leaf = cluster.rack_index().leaf(box.rack());
  v.cluster_max = cluster.rack_index().cluster_max(kCpu);
  for (Units d = 1; d <= box.capacity_units() + 1; ++d) {
    cluster.eligible_racks(kCpu, d, v.masks.emplace_back());
  }
  return v;
}

TEST(Cluster, RefusedAllocateIntoTouchesNothing) {
  Cluster cluster((ClusterConfig()));
  const auto& cpu = cluster.boxes_of_type_in_rack(RackId{2}, ResourceType::Cpu);
  const BoxId partial = cpu[0];
  const BoxId offline = cpu[1];
  BoxAllocation held;
  ASSERT_TRUE(cluster.allocate_into(partial, 40, held));  // 88 units left
  cluster.set_box_offline(offline, true);

  BoxAllocation sentinel;
  sentinel.box = BoxId{77};
  sentinel.units = 9;
  sentinel.slices.push_back(BrickSlice{3, 9});

  const std::pair<BoxId, Units> refused[] = {
      {partial, 0},   {partial, -5},  {partial, 89},  // > available
      {partial, 129},                                 // > capacity
      {offline, 1},   {offline, 128},
  };
  for (const auto& [box, units] : refused) {
    const CpuBoxView before = view(cluster, box);
    BoxAllocation out = sentinel;
    EXPECT_FALSE(cluster.allocate_into(box, units, out)) << units;
    EXPECT_EQ(out.box, sentinel.box) << units;
    EXPECT_EQ(out.units, sentinel.units) << units;
    EXPECT_EQ(out.slices, sentinel.slices) << units;
    EXPECT_TRUE(view(cluster, box) == before)
        << "box " << box.value() << " units " << units;
  }
  cluster.check_invariants();
}

TEST(Cluster, DoubleReleaseIsALogicError) {
  Cluster cluster((ClusterConfig()));
  const BoxId target = cluster.boxes_of_type(ResourceType::Cpu)[0];
  BoxAllocation alloc;
  ASSERT_TRUE(cluster.allocate_into(target, 128, alloc));
  cluster.release(alloc);
  EXPECT_THROW(cluster.release(alloc), std::logic_error);
}

TEST(Cluster, ForeignReleaseIsALogicError) {
  Cluster cluster((ClusterConfig()));
  const BoxId a = cluster.boxes_of_type(ResourceType::Cpu)[0];
  const BoxId b = cluster.boxes_of_type(ResourceType::Cpu)[1];
  BoxAllocation alloc;
  ASSERT_TRUE(cluster.allocate_into(a, 4, alloc));
  BoxAllocation forged = alloc;
  forged.box = b;
  EXPECT_THROW(cluster.release(forged), std::logic_error);
  cluster.release(alloc);
}

TEST(Cluster, RackMaxAvailableTracksLargestBox) {
  Cluster cluster((ClusterConfig()));
  const RackId rack{0};
  EXPECT_EQ(cluster.rack(rack).max_available(ResourceType::Cpu), 128);
  const auto& cpu_boxes = cluster.boxes_of_type_in_rack(rack, ResourceType::Cpu);
  ASSERT_EQ(cpu_boxes.size(), 2u);
  BoxAllocation a0;
  BoxAllocation a1;
  ASSERT_TRUE(cluster.allocate_into(cpu_boxes[0], 100, a0));  // avail 28
  EXPECT_EQ(cluster.rack(rack).max_available(ResourceType::Cpu), 128);
  ASSERT_TRUE(cluster.allocate_into(cpu_boxes[1], 120, a1));  // avail 8
  EXPECT_EQ(cluster.rack(rack).max_available(ResourceType::Cpu), 28);
  EXPECT_EQ(cluster.rack(rack).total_available(ResourceType::Cpu), 36);
  cluster.release(a0);
  EXPECT_EQ(cluster.rack(rack).max_available(ResourceType::Cpu), 128);
  cluster.check_invariants();
}

TEST(Cluster, SnapshotRestoreRoundTrips) {
  Cluster cluster((ClusterConfig()));
  const BoxId t1 = cluster.boxes_of_type(ResourceType::Cpu)[5];
  const BoxId t2 = cluster.boxes_of_type(ResourceType::Storage)[7];
  BoxAllocation taken;
  ASSERT_TRUE(cluster.allocate_into(t1, 37, taken));
  ASSERT_TRUE(cluster.allocate_into(t2, 11, taken));
  const ClusterSnapshot snap = cluster.snapshot();

  ASSERT_TRUE(cluster.allocate_into(t1, 20, taken));
  cluster.restore(snap);
  EXPECT_EQ(cluster.box(t1).available_units(), 128 - 37);
  EXPECT_EQ(cluster.box(t2).available_units(), 128 - 11);
  cluster.check_invariants();
}

TEST(Cluster, ToyExampleCapacitiesMatchTable3) {
  const ClusterConfig cfg = ClusterConfig::toy_example();
  const Cluster cluster(cfg);
  // Table 3: CPU boxes 64 cores, RAM boxes 64 GB, storage boxes 512 GB.
  for (BoxId id : cluster.boxes_of_type(ResourceType::Cpu)) {
    EXPECT_EQ(cluster.box(id).capacity_units() *
                  cfg.unit_scale.cores_per_cpu_unit,
              64);
  }
  for (BoxId id : cluster.boxes_of_type(ResourceType::Storage)) {
    EXPECT_EQ(cluster.box(id).capacity_units() *
                  cfg.unit_scale.mb_per_storage_unit,
              gb(512.0));
  }
}

TEST(Cluster, BadIdsThrow) {
  Cluster cluster((ClusterConfig()));
  EXPECT_THROW((void)cluster.box(BoxId{9999}), std::out_of_range);
  EXPECT_THROW((void)cluster.box(BoxId::invalid()), std::out_of_range);
  EXPECT_THROW((void)cluster.rack(RackId{99}), std::out_of_range);
  BoxAllocation out;
  EXPECT_THROW((void)cluster.allocate_into(BoxId{9999}, 1, out),
               std::out_of_range);
}

// Property sweep: random allocate/release sequences keep every invariant.
class ClusterPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterPropertyTest, RandomChurnPreservesInvariants) {
  Rng rng(GetParam());
  Cluster cluster((ClusterConfig()));
  std::vector<BoxAllocation> live;
  for (int step = 0; step < 3000; ++step) {
    const bool do_alloc = live.empty() || rng.uniform01() < 0.6;
    if (do_alloc) {
      const ResourceType t =
          kAllResources[static_cast<std::size_t>(rng.uniform_int(0, 2))];
      const auto& boxes = cluster.boxes_of_type(t);
      const BoxId box =
          boxes[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(boxes.size()) - 1))];
      const Units want = rng.uniform_int(1, 16);
      BoxAllocation alloc;
      if (cluster.allocate_into(box, want, alloc)) live.push_back(alloc);
    } else {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live.size()) - 1));
      cluster.release(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  cluster.check_invariants();
  for (const auto& a : live) cluster.release(a);
  cluster.check_invariants();
  for (ResourceType t : kAllResources) {
    EXPECT_EQ(cluster.total_available(t), cluster.total_capacity(t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

/// Box::allocate_into starts its brick walk at first_free_brick(); a naive
/// first-fit walk from brick 0 over a plain free-units ledger must produce
/// the same slices and occupancy through allocations, releases below the
/// hint, restore_bricks, reset and offline toggles.
TEST(Box, HintedBrickWalkMatchesNaiveFirstFit) {
  // Uneven bricks, including an empty one, so walks skip and span bricks.
  const std::vector<Units> capacity = {5, 3, 0, 8, 2, 7, 4, 1, 6, 9, 3, 2};
  Box box(BoxId{0}, RackId{0}, ResourceType::Ram, 0, capacity);
  std::vector<Units> free = capacity;  // the reference ledger
  std::vector<BoxAllocation> live;
  Rng rng(20231112);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };

  for (int step = 0; step < 20000; ++step) {
    const std::int64_t op = rng.uniform_int(0, 999);
    if (op < 550) {
      const Units want = rng.uniform_int(1, 12);
      Units total_free = 0;
      for (Units f : free) total_free += f;
      BoxAllocation got;
      const bool ok = box.allocate_into(want, got);
      ASSERT_EQ(ok, !box.offline() && want <= total_free) << "step " << step;
      if (!ok) continue;
      std::vector<BrickSlice> expect;
      Units remaining = want;
      for (std::uint32_t b = 0; b < free.size() && remaining > 0; ++b) {
        const Units take = std::min(free[b], remaining);
        if (take <= 0) continue;
        free[b] -= take;
        remaining -= take;
        expect.push_back(BrickSlice{b, static_cast<std::uint32_t>(take)});
      }
      ASSERT_EQ(std::vector<BrickSlice>(got.slices.begin(), got.slices.end()),
                expect)
          << "step " << step;
      live.push_back(std::move(got));
    } else if (op < 950) {
      if (live.empty()) continue;
      const std::size_t i = pick(live.size());
      box.release(live[i]);
      for (const BrickSlice& s : live[i].slices) free[s.brick] += s.units;
      live[i] = std::move(live.back());
      live.pop_back();
    } else if (op < 975) {
      box.set_offline(!box.offline());
    } else if (op < 990) {
      // Overwrite the occupancy with a random hole pattern; the records
      // taken so far no longer describe the box, so drop them.
      for (std::size_t b = 0; b < free.size(); ++b) {
        free[b] = rng.uniform_int(0, capacity[b]);
      }
      box.restore_bricks(free);
      live.clear();
    } else {
      box.reset();
      free = capacity;
      live.clear();
    }
    ASSERT_EQ(box.available_by_brick(), free) << "step " << step;
    ASSERT_LE(box.first_free_brick(), capacity.size());
    for (std::uint32_t b = 0; b < box.first_free_brick(); ++b) {
      ASSERT_EQ(free[b], 0) << "brick " << b << " below the hint has room";
    }
  }
}

}  // namespace
}  // namespace risa::topo

// Allocator behaviours beyond the toy walk-throughs: commit/rollback
// atomicity, RISA pool maintenance, round-robin selection, fallback
// accounting, registry.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/nalb.hpp"
#include "core/nulb.hpp"
#include "core/registry.hpp"
#include "core/risa.hpp"
#include "sim/experiments.hpp"
#include "sim/scenario.hpp"

namespace risa::core {
namespace {

using sim::toy_vm;

/// A full paper-scale stack for allocator tests.
struct PaperStack {
  explicit PaperStack(const topo::ClusterConfig& shape = {},
                      const net::FabricConfig& links = {})
      : cluster(shape), fabric(shape, links), router(fabric), circuits(router) {}

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

wl::VmRequest typical_vm(std::uint32_t id = 0) {
  return toy_vm(id, 8, 16.0, 128.0, 500.0);
}

TEST(Allocator, PlacementReservesComputeAndCircuits) {
  PaperStack stack;
  NulbAllocator nulb(stack.context());
  auto placed = nulb.try_place(typical_vm());
  ASSERT_TRUE(placed.ok());
  const Placement& p = placed.value();
  // 8 cores = 2 units, 16 GB = 4 units, 128 GB = 2 units (Table 1 scale).
  EXPECT_EQ(p.units(), (UnitVector{2, 4, 2}));
  EXPECT_EQ(stack.cluster.total_available(ResourceType::Cpu), 4608 - 2);
  EXPECT_EQ(stack.cluster.total_available(ResourceType::Ram), 4608 - 4);
  EXPECT_EQ(stack.cluster.total_available(ResourceType::Storage), 4608 - 2);
  // Two circuits: CPU-RAM at 10 Gb/s and RAM-STO at 4 Gb/s, 2 hops each.
  EXPECT_EQ(stack.circuits.active_count(), 2u);
  EXPECT_EQ(stack.fabric.intra_allocated(), 2 * gbps(10.0) + 2 * gbps(4.0));

  nulb.release(p);
  EXPECT_EQ(stack.circuits.active_count(), 0u);
  EXPECT_EQ(stack.fabric.intra_allocated(), 0);
  EXPECT_EQ(stack.cluster.total_available(ResourceType::Cpu), 4608);
  stack.cluster.check_invariants();
  stack.fabric.check_invariants();
}

TEST(Allocator, ComputeDropLeavesNoResidue) {
  PaperStack stack;
  topo::BoxAllocation taken;
  // Exhaust all storage: any VM must drop with NoComputeResources.
  for (BoxId id : stack.cluster.boxes_of_type(ResourceType::Storage)) {
    ASSERT_TRUE(stack.cluster.allocate_into(id, 128, taken));
  }
  NulbAllocator nulb(stack.context());
  auto placed = nulb.try_place(typical_vm());
  ASSERT_FALSE(placed.ok());
  EXPECT_EQ(placed.error(), DropReason::NoComputeResources);
  EXPECT_EQ(stack.cluster.total_available(ResourceType::Cpu), 4608);
  EXPECT_EQ(stack.fabric.intra_allocated(), 0);
  EXPECT_EQ(stack.circuits.active_count(), 0u);
}

TEST(Allocator, NetworkDropRollsBackCompute) {
  PaperStack stack;
  // Saturate every box uplink so the network phase must fail everywhere.
  for (std::uint32_t b = 0; b < stack.cluster.num_boxes(); ++b) {
    for (LinkId id : stack.fabric.box_uplinks(BoxId{b})) {
      ASSERT_TRUE(
          stack.fabric.allocate(id, stack.fabric.link(id).available()));
    }
  }
  NulbAllocator nulb(stack.context());
  auto placed = nulb.try_place(typical_vm());
  ASSERT_FALSE(placed.ok());
  EXPECT_EQ(placed.error(), DropReason::NoNetworkResources);
  for (ResourceType t : kAllResources) {
    EXPECT_EQ(stack.cluster.total_available(t), 4608) << name(t);
  }
  EXPECT_EQ(stack.circuits.active_count(), 0u);
  stack.cluster.check_invariants();
}

TEST(Risa, RoundRobinSpreadsAcrossRacks) {
  PaperStack stack;
  RisaAllocator risa(stack.context());
  std::vector<std::uint32_t> racks;
  for (std::uint32_t i = 0; i < 6; ++i) {
    auto placed = risa.try_place(typical_vm(i));
    ASSERT_TRUE(placed.ok());
    EXPECT_FALSE(placed->inter_rack);
    racks.push_back(placed->rack(ResourceType::Cpu).value());
  }
  // Round-robin over an all-eligible pool: racks 0, 1, 2, 3, 4, 5.
  EXPECT_EQ(racks, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
}

TEST(Risa, FirstEligibleSelectionKeepsHammeringRackZero) {
  PaperStack stack;
  RisaOptions options;
  options.selection = RackSelection::FirstEligible;
  RisaAllocator risa(stack.context(), options);
  for (std::uint32_t i = 0; i < 6; ++i) {
    auto placed = risa.try_place(typical_vm(i));
    ASSERT_TRUE(placed.ok());
    EXPECT_EQ(placed->rack(ResourceType::Cpu), RackId{0});
  }
}

TEST(Risa, PoolShrinksAsRacksFill) {
  PaperStack stack;
  topo::BoxAllocation taken;
  RisaAllocator risa(stack.context());
  const UnitVector demand{8, 8, 8};
  EXPECT_EQ(risa.intra_rack_pool(demand).size(), 18u);
  // Burn rack 0's CPU boxes below the demand.
  for (BoxId id :
       stack.cluster.boxes_of_type_in_rack(RackId{0}, ResourceType::Cpu)) {
    ASSERT_TRUE(stack.cluster.allocate_into(id, 122, taken));  // 6 left
  }
  const auto pool = risa.intra_rack_pool(demand);
  EXPECT_EQ(pool.size(), 17u);
  for (RackId r : pool) EXPECT_NE(r, RackId{0});
}

TEST(Risa, SuperRackListsPerType) {
  PaperStack stack;
  topo::BoxAllocation taken;
  RisaAllocator risa(stack.context());
  for (BoxId id :
       stack.cluster.boxes_of_type_in_rack(RackId{3}, ResourceType::Ram)) {
    ASSERT_TRUE(stack.cluster.allocate_into(id, 128, taken));
  }
  const auto lists = risa.super_rack(UnitVector{1, 1, 1});
  EXPECT_EQ(lists[ResourceType::Cpu].size(), 18u);
  EXPECT_EQ(lists[ResourceType::Ram].size(), 17u);
  EXPECT_EQ(lists[ResourceType::Storage].size(), 18u);
}

TEST(Risa, FallbackPlacesInterRackAndCounts) {
  PaperStack stack;
  topo::BoxAllocation taken;
  // Leave CPU only in rack 0 and RAM only in rack 17: no single rack can
  // host a whole VM, so RISA must fall back to SUPER_RACK/NULB.
  for (std::uint32_t r = 0; r < 18; ++r) {
    if (r != 0) {
      for (BoxId id :
           stack.cluster.boxes_of_type_in_rack(RackId{r}, ResourceType::Cpu)) {
        ASSERT_TRUE(stack.cluster.allocate_into(id, 128, taken));
      }
    }
    if (r != 17) {
      for (BoxId id :
           stack.cluster.boxes_of_type_in_rack(RackId{r}, ResourceType::Ram)) {
        ASSERT_TRUE(stack.cluster.allocate_into(id, 128, taken));
      }
    }
  }
  RisaAllocator risa(stack.context());
  auto placed = risa.try_place(typical_vm());
  ASSERT_TRUE(placed.ok());
  EXPECT_TRUE(placed->used_fallback);
  EXPECT_TRUE(placed->inter_rack);
  EXPECT_EQ(placed->rack(ResourceType::Cpu), RackId{0});
  EXPECT_EQ(placed->rack(ResourceType::Ram), RackId{17});
  EXPECT_EQ(risa.fallback_count(), 1u);
}

TEST(Risa, DropsWhenNoRackCanHostAnyResource) {
  PaperStack stack;
  topo::BoxAllocation taken;
  for (BoxId id : stack.cluster.boxes_of_type(ResourceType::Ram)) {
    ASSERT_TRUE(stack.cluster.allocate_into(id, 128, taken));
  }
  RisaAllocator risa(stack.context());
  auto placed = risa.try_place(typical_vm());
  ASSERT_FALSE(placed.ok());
  EXPECT_EQ(placed.error(), DropReason::NoComputeResources);
}

/// Every field of two placement records, brick slices included.
void expect_same_record(const Placement& a, const Placement& b) {
  EXPECT_EQ(a.vm, b.vm);
  for (ResourceType t : kAllResources) {
    const topo::BoxAllocation& x = a.compute[index(t)];
    const topo::BoxAllocation& y = b.compute[index(t)];
    EXPECT_EQ(x.box, y.box);
    EXPECT_EQ(x.units, y.units);
    EXPECT_TRUE(x.slices == y.slices);
    EXPECT_EQ(a.rack(t), b.rack(t));
  }
  EXPECT_EQ(a.demand.cpu_ram, b.demand.cpu_ram);
  EXPECT_EQ(a.demand.ram_sto, b.demand.ram_sto);
  EXPECT_EQ(a.inter_rack, b.inter_rack);
  EXPECT_EQ(a.used_fallback, b.used_fallback);
}

/// The circuits `vm` holds, as (id, flow, bandwidth, links) rows.
std::vector<std::tuple<std::uint32_t, net::FlowKind, MbitsPerSec,
                       std::vector<LinkId>>>
circuits_of(const net::CircuitTable& table, VmId vm) {
  std::vector<std::tuple<std::uint32_t, net::FlowKind, MbitsPerSec,
                         std::vector<LinkId>>>
      rows;
  table.for_each_circuit_of(vm, [&](const net::Circuit& c) {
    rows.emplace_back(c.id.value(), c.flow, c.bandwidth,
                      std::vector<LinkId>(c.path.links().begin(),
                                          c.path.links().end()));
  });
  return rows;
}

// place() overwrites every field of its record: placing into one reused
// record -- seeded with spilled slices and stale ids, and left dirty by
// failed attempts and by earlier placements -- must give, attempt for
// attempt, the record and circuits a fresh record gets on a twin stack.
TEST(Allocator, PlaceIntoReusedRecordMatchesFresh) {
  // Two-unit bricks make most allocations span three or more bricks (so
  // slices spill to the heap); one thin uplink per box makes the network
  // phase refuse placements the compute phase already committed.
  topo::ClusterConfig shape;
  shape.bricks_per_box = 64;
  shape.units_per_brick = 2;
  net::FabricConfig links;
  links.links_per_box = 1;
  links.links_per_rack = 2;
  links.link_capacity = gbps(50.0);
  std::size_t network_refusals = 0;
  for (const char* algo : {"NULB", "NALB", "RISA", "RISA-BF", "RANDOM", "WF"}) {
    SCOPED_TRACE(algo);
    PaperStack fresh_stack(shape, links);
    PaperStack reused_stack(shape, links);
    auto fresh_alloc = make_allocator(algo, fresh_stack.context());
    auto reused_alloc = make_allocator(algo, reused_stack.context());

    Placement reused;
    reused.vm = VmId{999'999};
    reused.inter_rack = true;
    reused.used_fallback = true;
    for (topo::BoxAllocation& c : reused.compute) {
      c.box = BoxId{7};
      c.units = 99;
      for (std::uint32_t k = 0; k < 5; ++k) c.slices.push_back({k, 1});
    }
    ASSERT_TRUE(reused.compute[0].slices.spilled());

    Rng rng(20231112);
    std::vector<Placement> live_fresh;
    std::vector<Placement> live_reused;
    std::size_t spilled = 0;
    std::size_t refused = 0;
    for (std::uint32_t i = 0; i < 2000; ++i) {
      if (!live_fresh.empty() && rng.uniform01() < 0.45) {
        const auto k = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live_fresh.size()) - 1));
        fresh_alloc->release(live_fresh[k]);
        reused_alloc->release(live_reused[k]);
        live_fresh[k] = std::move(live_fresh.back());
        live_fresh.pop_back();
        live_reused[k] = std::move(live_reused.back());
        live_reused.pop_back();
      }
      // One VM in 16 cannot fit any box; the rest span 1-8 units per type.
      const bool huge = rng.uniform_int(0, 15) == 0;
      const wl::VmRequest vm =
          toy_vm(i, huge ? 100'000 : rng.uniform_int(1, 32),
                 static_cast<double>(rng.uniform_int(1, 32)),
                 static_cast<double>(64 * rng.uniform_int(2, 8)));
      Placement fresh;
      const auto fresh_reason = fresh_alloc->place(vm, fresh);
      const auto reused_reason = reused_alloc->place(vm, reused);
      ASSERT_EQ(fresh_reason, reused_reason) << "VM " << i;
      if (fresh_reason) {
        ++refused;
        if (*fresh_reason == DropReason::NoNetworkResources) ++network_refusals;
        continue;
      }
      expect_same_record(fresh, reused);
      ASSERT_EQ(circuits_of(fresh_stack.circuits, vm.id),
                circuits_of(reused_stack.circuits, vm.id));
      for (const topo::BoxAllocation& c : reused.compute) {
        if (c.slices.spilled()) ++spilled;
      }
      live_fresh.push_back(std::move(fresh));
      live_reused.push_back(reused);  // a copy: `reused` stays dirty
    }
    EXPECT_GT(spilled, 0u);
    EXPECT_GT(refused, 0u);
    fresh_stack.cluster.check_invariants();
    reused_stack.cluster.check_invariants();
  }
  EXPECT_GT(network_refusals, 0u);
}

TEST(Registry, BuildsAllFourAlgorithms) {
  PaperStack stack;
  const auto names = algorithm_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "NULB");
  EXPECT_EQ(names[1], "NALB");
  EXPECT_EQ(names[2], "RISA");
  EXPECT_EQ(names[3], "RISA-BF");
  for (const std::string& algo : names) {
    auto allocator = make_allocator(algo, stack.context());
    EXPECT_EQ(allocator->name(), algo);
  }
  // Case-insensitive aliases.
  EXPECT_EQ(make_allocator("risa_bf", stack.context())->name(), "RISA-BF");
  EXPECT_EQ(make_allocator("nulb", stack.context())->name(), "NULB");
  EXPECT_THROW((void)make_allocator("unknown", stack.context()),
               std::invalid_argument);
}

TEST(Registry, ContextValidationRejectsNulls) {
  AllocContext ctx;  // all nullptr
  EXPECT_THROW((void)make_allocator("RISA", ctx), std::invalid_argument);
}

}  // namespace
}  // namespace risa::core

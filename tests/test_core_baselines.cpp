// Extension baselines: RANDOM / FF / WF behaviours and their relationship
// to the paper's algorithms.
#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/registry.hpp"
#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "workload/synthetic.hpp"

namespace risa::core {
namespace {

struct Stack {
  Stack()
      : cluster(topo::ClusterConfig{}),
        fabric(topo::ClusterConfig{}, net::FabricConfig{}),
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

TEST(Baselines, RegistryKnowsThem) {
  Stack stack;
  EXPECT_EQ(make_allocator("RANDOM", stack.context())->name(), "RANDOM");
  EXPECT_EQ(make_allocator("ff", stack.context())->name(), "FF");
  EXPECT_EQ(make_allocator("WF", stack.context())->name(), "WF");
  // The paper's canonical list stays untouched (figures iterate over it).
  EXPECT_EQ(algorithm_names().size(), 4u);
}

TEST(Baselines, FirstFitAlwaysPicksLowestIds) {
  Stack stack;
  FirstFitAllocator ff(stack.context());
  auto placed = ff.try_place(sim::toy_vm(0, 8, 16.0, 128.0));
  ASSERT_TRUE(placed.ok());
  for (ResourceType t : kAllResources) {
    EXPECT_EQ(stack.cluster.box(placed->box(t)).index_in_type(), 0u);
  }
  EXPECT_FALSE(placed->inter_rack);  // all index-0 boxes live in rack 0
  ff.release(placed.value());
}

TEST(Baselines, WorstFitSpreadsAcrossEmptyBoxes) {
  Stack stack;
  WorstFitAllocator wf(stack.context());
  // First placement takes the first (all-equal) boxes; the second must go
  // to different, still-empty boxes.
  auto a = wf.try_place(sim::toy_vm(0, 8, 16.0, 128.0));
  auto b = wf.try_place(sim::toy_vm(1, 8, 16.0, 128.0));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (ResourceType t : kAllResources) {
    EXPECT_NE(a->box(t), b->box(t)) << name(t);
  }
}

TEST(Baselines, RandomIsSeedDeterministicAndFeasible) {
  Stack s1, s2;
  RandomAllocator r1(s1.context(), 42);
  RandomAllocator r2(s2.context(), 42);
  for (std::uint32_t i = 0; i < 20; ++i) {
    auto a = r1.try_place(sim::toy_vm(i, 8, 16.0, 128.0));
    auto b = r2.try_place(sim::toy_vm(i, 8, 16.0, 128.0));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    for (ResourceType t : kAllResources) {
      EXPECT_EQ(a->box(t), b->box(t));
    }
  }
}

TEST(Baselines, AllDropCleanlyWhenATypeIsExhausted) {
  for (const char* algo : {"RANDOM", "FF", "WF"}) {
    Stack stack;
    topo::BoxAllocation taken;
    for (BoxId id : stack.cluster.boxes_of_type(ResourceType::Storage)) {
      ASSERT_TRUE(stack.cluster.allocate_into(id, 128, taken));
    }
    auto allocator = make_allocator(algo, stack.context());
    auto placed = allocator->try_place(sim::toy_vm(0, 8, 16.0, 128.0));
    ASSERT_FALSE(placed.ok()) << algo;
    EXPECT_EQ(placed.error(), DropReason::NoComputeResources) << algo;
    EXPECT_EQ(stack.circuits.active_count(), 0u) << algo;
    EXPECT_EQ(stack.cluster.total_available(ResourceType::Cpu), 4608) << algo;
  }
}

TEST(Baselines, RisaBeatsAllBaselinesOnInterRackSplits) {
  // The extension study's point: load balancing alone (WF/RANDOM) does not
  // produce rack affinity -- RISA's advantage is structural.
  wl::SyntheticConfig cfg;
  cfg.count = 400;
  const wl::Workload workload = wl::generate_synthetic(cfg, 7);
  auto run = [&](const char* algo) {
    sim::Engine engine(sim::Scenario::paper_defaults(), algo);
    return engine.run(workload, "baselines");
  };
  const auto risa = run("RISA");
  for (const char* algo : {"RANDOM", "WF", "FF"}) {
    const auto m = run(algo);
    EXPECT_LE(risa.inter_rack_placements, m.inter_rack_placements) << algo;
    EXPECT_LE(risa.avg_optical_power_w, m.avg_optical_power_w * 1.001) << algo;
  }
  // RANDOM and WF scatter resources: the overwhelming majority of their
  // placements split CPU from RAM.
  EXPECT_GT(run("RANDOM").inter_rack_fraction(), 0.8);
  EXPECT_GT(run("WF").inter_rack_fraction(), 0.8);
}

}  // namespace
}  // namespace risa::core

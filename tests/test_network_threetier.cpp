// Three-tier (pod) fabric extension: construction, routing and latency.
#include <gtest/gtest.h>

#include <vector>

#include "network/fabric.hpp"
#include "network/routing.hpp"
#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "topology/config.hpp"

namespace risa::net {
namespace {

FabricConfig three_tier(std::uint32_t racks_per_pod = 6) {
  FabricConfig cfg;
  cfg.racks_per_pod = racks_per_pod;
  return cfg;
}

TEST(ThreeTier, BuildsPodLayer) {
  const Fabric fabric(topo::ClusterConfig{}, three_tier());
  EXPECT_EQ(fabric.num_pods(), 3u);  // 18 racks / 6 per pod
  // Switch census: 108 box + 18 rack + 3 pod + 1 core.
  EXPECT_EQ(fabric.num_switches(), 108u + 18u + 3u + 1u);
  EXPECT_EQ(fabric.pod_of_rack(RackId{0}), 0u);
  EXPECT_EQ(fabric.pod_of_rack(RackId{5}), 0u);
  EXPECT_EQ(fabric.pod_of_rack(RackId{6}), 1u);
  EXPECT_EQ(fabric.pod_of_rack(RackId{17}), 2u);
  EXPECT_TRUE(fabric.same_pod(RackId{0}, RackId{5}));
  EXPECT_FALSE(fabric.same_pod(RackId{0}, RackId{6}));
  EXPECT_EQ(fabric.pod_uplinks(0).size(), fabric.config().links_per_pod);
  fabric.check_invariants();
}

TEST(ThreeTier, UnevenPodDivisionRoundsUp) {
  const Fabric fabric(topo::ClusterConfig{}, three_tier(7));
  EXPECT_EQ(fabric.num_pods(), 3u);  // ceil(18 / 7)
  EXPECT_EQ(fabric.pod_of_rack(RackId{14}), 2u);
}

TEST(ThreeTier, TwoTierHasNoPods) {
  const Fabric fabric(topo::ClusterConfig{}, FabricConfig{});
  EXPECT_EQ(fabric.num_pods(), 0u);
  EXPECT_TRUE(fabric.same_pod(RackId{0}, RackId{17}));
  EXPECT_THROW((void)fabric.pod_of_rack(RackId{0}), std::logic_error);
  EXPECT_THROW((void)fabric.pod_switch(0), std::out_of_range);
}

TEST(ThreeTier, IntraPodPathUsesPodSwitch) {
  Fabric fabric(topo::ClusterConfig{}, three_tier());
  Router router(fabric);
  // Racks 0 and 1 share pod 0: box -> rack -> pod -> rack -> box.
  CircuitPath path;
  ASSERT_TRUE(router.find_path(BoxId{0}, RackId{0}, BoxId{8}, RackId{1},
                               gbps(5.0), LinkSelectPolicy::FirstFit, path));
  EXPECT_TRUE(path.inter_rack);
  EXPECT_EQ(path.hop_count(), 4u);
  const SwitchList switches = fabric.path_switches(path);
  EXPECT_EQ(std::vector<SwitchId>(switches.begin(), switches.end()),
            (std::vector<SwitchId>{
                fabric.box_switch(BoxId{0}), fabric.rack_switch(RackId{0}),
                fabric.pod_switch(0), fabric.rack_switch(RackId{1}),
                fabric.box_switch(BoxId{8})}));
  EXPECT_EQ(fabric.switch_node(switches[2]).kind, SwitchKind::PodSwitch);
}

TEST(ThreeTier, CrossPodPathTraversesSixHops) {
  Fabric fabric(topo::ClusterConfig{}, three_tier());
  Router router(fabric);
  // Rack 0 (pod 0) to rack 6 (pod 1): box, rack, pod, core, pod, rack, box.
  CircuitPath path;
  ASSERT_TRUE(router.find_path(BoxId{0}, RackId{0}, BoxId{38}, RackId{6},
                               gbps(5.0), LinkSelectPolicy::FirstFit, path));
  EXPECT_EQ(path.hop_count(), 6u);
  const SwitchList switches = fabric.path_switches(path);
  EXPECT_EQ(std::vector<SwitchId>(switches.begin(), switches.end()),
            (std::vector<SwitchId>{
                fabric.box_switch(BoxId{0}), fabric.rack_switch(RackId{0}),
                fabric.pod_switch(0), fabric.core_switch(), fabric.pod_switch(1),
                fabric.rack_switch(RackId{6}), fabric.box_switch(BoxId{38})}));
  EXPECT_EQ(fabric.switch_node(switches[2]).kind, SwitchKind::PodSwitch);
  EXPECT_EQ(fabric.switch_node(switches[4]).kind, SwitchKind::PodSwitch);
  // Reserving and releasing keeps aggregates clean across all three tiers.
  ASSERT_TRUE(router.reserve(path, gbps(5.0)));
  fabric.check_invariants();
  router.release(path, gbps(5.0));
  EXPECT_EQ(fabric.inter_allocated(), 0);
  fabric.check_invariants();
}

TEST(ThreeTier, LatencyModelDistinguishesPods) {
  sim::LatencyModel latency;
  EXPECT_DOUBLE_EQ(latency.rtt_ns(false, false), 110.0);
  EXPECT_DOUBLE_EQ(latency.rtt_ns(true, false), 330.0);
  EXPECT_DOUBLE_EQ(latency.rtt_ns(true, true), 550.0);
  latency.inter_pod_ns = 100.0;  // below inter-rack: invalid
  EXPECT_THROW(latency.validate(), std::invalid_argument);
}

TEST(ThreeTier, EngineRunsAndRisaStaysIntraRack) {
  sim::Scenario scenario = sim::Scenario::paper_defaults();
  scenario.fabric.racks_per_pod = 6;
  auto subsets = sim::azure_workloads();
  const auto& [label, workload] = subsets[0];

  sim::Engine risa(scenario, "RISA");
  const auto m_risa = risa.run(workload, label);
  EXPECT_EQ(m_risa.inter_rack_placements, 0u);
  EXPECT_DOUBLE_EQ(m_risa.cpu_ram_latency_ns.mean(), 110.0);

  // The baselines now pay the cross-pod premium: mean RTT rises above the
  // two-tier value and cross-pod samples hit 550 ns.
  sim::Engine nulb(scenario, "NULB");
  const auto m_nulb = nulb.run(workload, label);
  EXPECT_GT(m_nulb.cpu_ram_latency_ns.mean(), 200.0);
  EXPECT_DOUBLE_EQ(m_nulb.cpu_ram_latency_ns.max(), 550.0);
  // And cross-pod circuits traverse two extra switches -> more energy.
  EXPECT_GT(m_nulb.avg_optical_power_w, m_risa.avg_optical_power_w * 1.2);
}

TEST(ThreeTier, ConfigValidation) {
  FabricConfig cfg = three_tier();
  cfg.links_per_pod = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = three_tier();
  cfg.pod_switch_ports = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace risa::net

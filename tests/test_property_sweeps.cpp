// Cross-cutting property sweeps: every algorithm (paper set + extension
// baselines) on every fabric depth must preserve the global invariants --
// conservation, clean teardown, bounded metrics, determinism.
#include <gtest/gtest.h>

#include <tuple>

#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "workload/azure.hpp"
#include "workload/synthetic.hpp"

namespace risa::sim {
namespace {

// (algorithm, racks_per_pod) sweep.
using SweepParam = std::tuple<const char*, std::uint32_t>;

class AlgorithmSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AlgorithmSweep, ConservationAndBoundsHold) {
  const auto [algo, racks_per_pod] = GetParam();
  Scenario scenario = Scenario::paper_defaults();
  scenario.fabric.racks_per_pod = racks_per_pod;

  wl::SyntheticConfig cfg;
  cfg.count = 300;
  const wl::Workload workload = wl::generate_synthetic(cfg, 77);

  Engine engine(scenario, algo);
  const SimMetrics m = engine.run(workload, "sweep");

  // Conservation: every VM accounted, stack pristine after the run (the
  // engine itself asserts aggregates via check_invariants()).
  EXPECT_EQ(m.placed + m.dropped, m.total_vms);
  for (ResourceType t : kAllResources) {
    EXPECT_EQ(engine.cluster().total_available(t),
              engine.cluster().total_capacity(t));
    EXPECT_GE(m.avg_utilization[t], 0.0);
    EXPECT_LE(m.peak_utilization[t], 1.0);
  }
  EXPECT_EQ(engine.fabric().intra_allocated(), 0);
  EXPECT_EQ(engine.fabric().inter_allocated(), 0);

  // Latency samples bounded by the model's constants.
  if (m.placed > 0) {
    EXPECT_GE(m.cpu_ram_latency_ns.min(), scenario.latency.intra_rack_ns);
    EXPECT_LE(m.cpu_ram_latency_ns.max(), scenario.latency.inter_pod_ns);
  }
  // Energy positive whenever something was placed.
  if (m.placed > 0) {
    EXPECT_GT(m.energy.total_j(), 0.0);
    EXPECT_GT(m.avg_optical_power_w, 0.0);
  }
  // Inter-rack counters consistent.
  EXPECT_LE(m.inter_rack_placements, m.any_pair_inter_rack);
  EXPECT_LE(m.any_pair_inter_rack, m.placed);
}

TEST_P(AlgorithmSweep, DeterministicAcrossIdenticalRuns) {
  const auto [algo, racks_per_pod] = GetParam();
  Scenario scenario = Scenario::paper_defaults();
  scenario.fabric.racks_per_pod = racks_per_pod;

  wl::SyntheticConfig cfg;
  cfg.count = 150;
  const wl::Workload workload = wl::generate_synthetic(cfg, 5);

  Engine a(scenario, algo);
  Engine b(scenario, algo);
  const SimMetrics ma = a.run(workload, "det");
  const SimMetrics mb = b.run(workload, "det");
  EXPECT_EQ(ma.placed, mb.placed);
  EXPECT_EQ(ma.dropped, mb.dropped);
  EXPECT_EQ(ma.inter_rack_placements, mb.inter_rack_placements);
  EXPECT_EQ(ma.fallback_placements, mb.fallback_placements);
  EXPECT_DOUBLE_EQ(ma.energy.total_j(), mb.energy.total_j());
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string label = std::get<0>(info.param);
  for (char& c : label) {
    if (c == '-') c = '_';
  }
  return label + (std::get<1>(info.param) == 0 ? "_twotier" : "_threetier");
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAndFabrics, AlgorithmSweep,
    ::testing::Combine(::testing::Values("NULB", "NALB", "RISA", "RISA-BF",
                                         "RANDOM", "WF"),
                       ::testing::Values(0u, 6u)),
    sweep_name);

// Azure determinism across the engine boundary: the same seed must yield
// the same workload AND the same simulation outcome end to end.
TEST(EndToEndDeterminism, AzureSubsetReproducesExactly) {
  const auto w1 = azure_workloads(kDefaultSeed);
  const auto w2 = azure_workloads(kDefaultSeed);
  ASSERT_EQ(w1[0].second, w2[0].second);

  Engine a(Scenario::paper_defaults(), "RISA-BF");
  Engine b(Scenario::paper_defaults(), "RISA-BF");
  const SimMetrics ma = a.run(w1[0].second, "Azure-3000");
  const SimMetrics mb = b.run(w2[0].second, "Azure-3000");
  EXPECT_EQ(ma.placed, mb.placed);
  EXPECT_DOUBLE_EQ(ma.avg_optical_power_w, mb.avg_optical_power_w);
  EXPECT_DOUBLE_EQ(ma.horizon_tu, mb.horizon_tu);
}

// Workload scaling property: doubling the subset size must not decrease
// placed count, and utilization must grow monotonically for RISA.
TEST(ScalingProperty, UtilizationGrowsAcrossAzureSubsets) {
  double last_sto_util = 0.0;
  std::uint64_t last_placed = 0;
  for (auto& [label, workload] : azure_workloads()) {
    Engine engine(Scenario::paper_defaults(), "RISA");
    const SimMetrics m = engine.run(workload, label);
    EXPECT_GE(m.placed, last_placed) << label;
    EXPECT_GT(m.avg_utilization.storage(), last_sto_util) << label;
    last_placed = m.placed;
    last_sto_util = m.avg_utilization.storage();
  }
}

}  // namespace
}  // namespace risa::sim

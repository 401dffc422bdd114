// Simulation engine: end-to-end runs, conservation, determinism, metric
// plausibility.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "sim/sweep.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_io.hpp"

namespace risa::sim {
namespace {

wl::Workload small_workload(std::size_t n = 150, std::uint64_t seed = 42) {
  wl::SyntheticConfig cfg;
  cfg.count = n;
  return wl::generate_synthetic(cfg, seed);
}

TEST(Engine, RunAccountsForEveryVm) {
  Engine engine(Scenario::paper_defaults(), "RISA");
  const SimMetrics m = engine.run(small_workload(), "test");
  EXPECT_EQ(m.total_vms, 150u);
  EXPECT_EQ(m.placed + m.dropped, m.total_vms);
  EXPECT_GT(m.horizon_tu, 6300.0);  // at least one full lifetime
}

TEST(Engine, ClusterAndFabricRestoredAfterRun) {
  Engine engine(Scenario::paper_defaults(), "NULB");
  (void)engine.run(small_workload(), "test");
  // Every placement departed within the horizon; the run itself asserts
  // invariants, and the stack must be back to pristine.
  for (ResourceType t : kAllResources) {
    EXPECT_EQ(engine.cluster().total_available(t),
              engine.cluster().total_capacity(t));
  }
  EXPECT_EQ(engine.fabric().intra_allocated(), 0);
  EXPECT_EQ(engine.fabric().inter_allocated(), 0);
}

TEST(Engine, DeterministicAcrossRuns) {
  const wl::Workload workload = small_workload();
  Engine a(Scenario::paper_defaults(), "RISA");
  Engine b(Scenario::paper_defaults(), "RISA");
  const SimMetrics ma = a.run(workload, "t");
  const SimMetrics mb = b.run(workload, "t");
  EXPECT_EQ(ma.placed, mb.placed);
  EXPECT_EQ(ma.inter_rack_placements, mb.inter_rack_placements);
  EXPECT_DOUBLE_EQ(ma.avg_utilization.cpu(), mb.avg_utilization.cpu());
  EXPECT_DOUBLE_EQ(ma.avg_optical_power_w, mb.avg_optical_power_w);
  EXPECT_DOUBLE_EQ(ma.horizon_tu, mb.horizon_tu);
}

TEST(Engine, RunIsRepeatableOnSameEngine) {
  // run() resets the stack, so back-to-back runs are independent.
  const wl::Workload workload = small_workload();
  Engine engine(Scenario::paper_defaults(), "RISA-BF");
  const SimMetrics m1 = engine.run(workload, "t");
  const SimMetrics m2 = engine.run(workload, "t");
  EXPECT_EQ(m1.placed, m2.placed);
  EXPECT_DOUBLE_EQ(m1.avg_optical_power_w, m2.avg_optical_power_w);
}

TEST(Engine, LatencySamplesComeFromTheTwoPaperConstants) {
  Engine engine(Scenario::paper_defaults(), "NULB");
  const SimMetrics m = engine.run(small_workload(400), "t");
  ASSERT_EQ(m.cpu_ram_latency_ns.count(), m.placed);
  EXPECT_GE(m.cpu_ram_latency_ns.min(), 110.0);
  EXPECT_LE(m.cpu_ram_latency_ns.max(), 330.0);
  // The mean must be the mixture 110 + 220 * inter_fraction over placed VMs.
  const double f = static_cast<double>(m.inter_rack_placements) /
                   static_cast<double>(m.placed);
  EXPECT_NEAR(m.cpu_ram_latency_ns.mean(), 110.0 + 220.0 * f, 1e-9);
}

TEST(Engine, UtilizationsAreWithinPhysicalBounds) {
  Engine engine(Scenario::paper_defaults(), "RISA");
  const SimMetrics m = engine.run(small_workload(500), "t");
  for (ResourceType t : kAllResources) {
    EXPECT_GE(m.avg_utilization[t], 0.0);
    EXPECT_LE(m.avg_utilization[t], 1.0);
    EXPECT_GE(m.peak_utilization[t], m.avg_utilization[t]);
    EXPECT_LE(m.peak_utilization[t], 1.0);
  }
  EXPECT_GE(m.avg_intra_net_utilization, 0.0);
  EXPECT_LE(m.peak_intra_net_utilization, 1.0);
  EXPECT_GT(m.avg_optical_power_w, 0.0);
  EXPECT_GT(m.scheduler_exec_seconds, 0.0);
}

TEST(Engine, EnergyDecompositionSumsToTotal) {
  Engine engine(Scenario::paper_defaults(), "RISA");
  const SimMetrics m = engine.run(small_workload(300), "t");
  const double sum = m.energy.switch_switching_j + m.energy.switch_trimming_j +
                     m.energy.transceiver_j;
  EXPECT_NEAR(m.energy.total_j(), sum, 1e-9);
  EXPECT_NEAR(m.avg_optical_power_w, sum / m.horizon_tu, 1e-9);
  // Trimming dominates switching (see photonics tests).
  EXPECT_GT(m.energy.switch_trimming_j, m.energy.switch_switching_j * 1e5);
}

TEST(Engine, RunAllAlgorithmsCoversPaperOrder) {
  const auto runs = run_all_algorithms(Scenario::paper_defaults(),
                                       small_workload(100), "t");
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].algorithm, "NULB");
  EXPECT_EQ(runs[1].algorithm, "NALB");
  EXPECT_EQ(runs[2].algorithm, "RISA");
  EXPECT_EQ(runs[3].algorithm, "RISA-BF");
  for (const auto& m : runs) EXPECT_EQ(m.workload, "t");
}

TEST(Engine, EmptyWorkloadIsHarmless) {
  Engine engine(Scenario::paper_defaults(), "RISA");
  const SimMetrics m = engine.run({}, "empty");
  EXPECT_EQ(m.total_vms, 0u);
  EXPECT_EQ(m.placed, 0u);
  EXPECT_DOUBLE_EQ(m.avg_optical_power_w, 0.0);
}

TEST(Engine, NegativeLifetimeRejectedBeforeAnyEvent) {
  Engine engine(Scenario::paper_defaults(), "RISA");
  wl::Workload workload = small_workload(20);
  workload[7].lifetime = -1.0;
  EXPECT_THROW((void)engine.run(workload, "t"), std::invalid_argument);
  // The engine must not have mutated any state: the next run is clean.
  workload[7].lifetime = 1.0;
  const SimMetrics m = engine.run(workload, "t");
  EXPECT_EQ(m.placed + m.dropped, m.total_vms);
}

TEST(Engine, UnknownAlgorithmThrowsAtConstruction) {
  EXPECT_THROW(Engine(Scenario::paper_defaults(), "bogus"),
               std::invalid_argument);
}

TEST(Engine, ScenarioValidationRejectsBadLatency) {
  Scenario s = Scenario::paper_defaults();
  s.latency.inter_rack_ns = 10.0;  // below intra
  EXPECT_THROW(Engine(s, "RISA"), std::invalid_argument);
}

// The engine identifies a VM by its workload index, not by the request's
// id: trace ids may collide or take any u32 value, and two live VMs that
// share an id must still hold separate circuits.
wl::Workload with_ids_mod_7(wl::Workload workload) {
  for (std::size_t i = 0; i < workload.size(); ++i) {
    workload[i].id = VmId{static_cast<std::uint32_t>(i % 7)};
  }
  return workload;
}

TEST(Engine, CollidingVmIdsRunLikeUniqueIds) {
  const wl::Workload unique = small_workload(3000, 7);
  const wl::Workload colliding = with_ids_mod_7(unique);
  wl::Workload with_reserved = colliding;
  with_reserved[1500].id = VmId{0xFFFFFFFFu};
  for (const char* algo : {"RISA", "NALB"}) {
    Engine engine(Scenario::paper_defaults(), algo);
    const std::string want = metrics_fingerprint(engine.run(unique, "ids"));
    EXPECT_EQ(metrics_fingerprint(engine.run(colliding, "ids")), want)
        << algo << ", ids i % 7";
    EXPECT_EQ(metrics_fingerprint(engine.run(with_reserved, "ids")), want)
        << algo << ", ids i % 7 and one 0xFFFFFFFF";
  }
}

TEST(Engine, TraceWithNegativeVmIdRunsLikeUniqueIds) {
  const wl::Workload unique = small_workload(3000, 7);
  std::ostringstream csv;
  wl::write_trace(csv, with_ids_mod_7(unique));
  std::string text = csv.str();
  const std::size_t first_id = text.find('\n') + 1;
  ASSERT_EQ(text.compare(first_id, 2, "0,"), 0);
  text.replace(first_id, 1, "-1");
  std::istringstream in(text);
  const wl::Workload traced = wl::read_trace(in);
  ASSERT_EQ(traced.front().id, VmId{0xFFFFFFFFu});
  for (const char* algo : {"RISA", "NALB"}) {
    Engine engine(Scenario::paper_defaults(), algo);
    const std::string want = metrics_fingerprint(engine.run(unique, "ids"));
    EXPECT_EQ(metrics_fingerprint(engine.run(traced, "ids")), want) << algo;
  }
}

// Property sweep: on any seeded workload, RISA's headline dominance holds:
// fewer (or equal) CPU-RAM splits than NULB and NALB, and at most equal
// optical power.
class DominanceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DominanceTest, RisaSplitsAndPowerNeverExceedBaselines) {
  wl::SyntheticConfig cfg;
  cfg.count = 400;
  const wl::Workload workload = wl::generate_synthetic(cfg, GetParam());
  const auto runs =
      run_all_algorithms(Scenario::paper_defaults(), workload, "sweep");
  const SimMetrics& nulb = runs[0];
  const SimMetrics& nalb = runs[1];
  const SimMetrics& risa = runs[2];
  const SimMetrics& risa_bf = runs[3];

  EXPECT_LE(risa.inter_rack_placements, nulb.inter_rack_placements);
  EXPECT_LE(risa.inter_rack_placements, nalb.inter_rack_placements);
  EXPECT_LE(risa_bf.inter_rack_placements, nulb.inter_rack_placements);
  EXPECT_LE(risa.avg_optical_power_w, nulb.avg_optical_power_w * 1.001);
  EXPECT_LE(risa.cpu_ram_latency_ns.mean(),
            nulb.cpu_ram_latency_ns.mean() + 1e-9);
  // No algorithm drops at this light load.
  EXPECT_EQ(risa.dropped, 0u);
  EXPECT_EQ(nulb.dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DominanceTest,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

}  // namespace
}  // namespace risa::sim

// Integration: the paper's headline shapes must hold on the full-scale
// experiments (these run the real Figure 5/7/8/9/10 configurations; the
// whole suite stays under a few seconds because the simulator is fast).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "paper_algorithms.hpp"
#include "sim/experiments.hpp"
#include "workload/azure.hpp"

namespace risa::sim {
namespace {

class AzureShapeTest : public ::testing::TestWithParam<int> {};

TEST_P(AzureShapeTest, HeadlineShapesHold) {
  const auto specs = wl::azure_all_subsets();
  const wl::AzureSpec& spec = specs[static_cast<std::size_t>(GetParam())];
  const wl::Workload workload = wl::generate_azure(spec, kDefaultSeed);
  const auto runs = run_paper_algorithms(workload, spec.label);
  const SimMetrics& nulb = runs[0];
  const SimMetrics& nalb = runs[1];
  const SimMetrics& risa = runs[2];
  const SimMetrics& risa_bf = runs[3];

  // Figure 7: RISA and RISA-BF have ZERO inter-rack assignments on every
  // Azure subset; the baselines sit in the tens of percent.
  EXPECT_EQ(risa.inter_rack_placements, 0u);
  EXPECT_EQ(risa_bf.inter_rack_placements, 0u);
  EXPECT_GT(nulb.inter_rack_fraction(), 0.30);
  EXPECT_GT(nalb.inter_rack_fraction(), 0.30);

  // §5.2: "no VMs were dropped during the scheduling process" -- holds for
  // the 3000/5000 subsets; the 7500 subset saturates storage in our
  // provisioning (Table 1 capacity in DESIGN.md §2.1's ceil-converted
  // 64 GB units), equally for every algorithm, and §2.6 drops a VM that
  // does not fit instead of queueing it.
  EXPECT_EQ(risa.dropped, nulb.dropped);
  EXPECT_EQ(risa.dropped, nalb.dropped);
  if (GetParam() < 2) {
    EXPECT_EQ(risa.dropped, 0u);
  }

  // Figure 8: intra-rack utilization is algorithm-independent; inter-rack
  // is zero for the RISA family and positive for the baselines.
  EXPECT_NEAR(nulb.avg_intra_net_utilization, risa.avg_intra_net_utilization,
              0.01);
  EXPECT_NEAR(nalb.avg_intra_net_utilization, risa.avg_intra_net_utilization,
              0.01);
  EXPECT_DOUBLE_EQ(risa.avg_inter_net_utilization, 0.0);
  EXPECT_DOUBLE_EQ(risa_bf.avg_inter_net_utilization, 0.0);
  EXPECT_GT(nulb.avg_inter_net_utilization, 0.0);

  // Figure 9: the RISA family consumes materially less optical power
  // (paper: 33% less; require at least 20% to stay robust to seeds).
  EXPECT_LT(risa.avg_optical_power_w, nulb.avg_optical_power_w * 0.80);
  EXPECT_LT(risa_bf.avg_optical_power_w, nalb.avg_optical_power_w * 0.80);

  // Figure 10: RISA's CPU-RAM RTT is exactly the intra-rack constant; the
  // baselines are pushed up by their inter-rack share.
  EXPECT_DOUBLE_EQ(risa.cpu_ram_latency_ns.mean(), 110.0);
  EXPECT_DOUBLE_EQ(risa_bf.cpu_ram_latency_ns.mean(), 110.0);
  EXPECT_GT(nulb.cpu_ram_latency_ns.mean(), 170.0);
  EXPECT_GT(nalb.cpu_ram_latency_ns.mean(), 170.0);
}

INSTANTIATE_TEST_SUITE_P(AllSubsets, AzureShapeTest, ::testing::Values(0, 1, 2));

TEST(SyntheticShape, Figure5OrderOfMagnitudeSeparation) {
  const wl::Workload workload = synthetic_workload();
  const auto runs = run_paper_algorithms(workload, "Synthetic");
  const SimMetrics& nulb = runs[0];
  const SimMetrics& nalb = runs[1];
  const SimMetrics& risa = runs[2];
  const SimMetrics& risa_bf = runs[3];

  // Paper: 255/255 vs 7/2.  Shape requirement: baselines in the hundreds,
  // RISA family an order of magnitude lower.
  EXPECT_GT(nulb.inter_rack_placements, 200u);
  EXPECT_GT(nalb.inter_rack_placements, 200u);
  EXPECT_LT(risa.inter_rack_placements, nulb.inter_rack_placements / 5);
  EXPECT_LT(risa_bf.inter_rack_placements, nalb.inter_rack_placements / 5);

  // §5.1 text: average utilization ~64.66 / 65.11 / 31.72 %.  Our drops are
  // a few percent, so require the right regime rather than the digits.
  EXPECT_NEAR(risa.avg_utilization.cpu(), 0.6466, 0.08);
  EXPECT_NEAR(risa.avg_utilization.ram(), 0.6511, 0.08);
  EXPECT_NEAR(risa.avg_utilization.storage(), 0.3172, 0.08);

  // Figure 11's ordering: NALB is the slowest, RISA and RISA-BF the
  // fastest.  (NULB vs RISA timing is asserted only weakly here because
  // CI noise at millisecond scale is real; the bench binary reports it.)
  // Each algorithm's time is the fastest of five runs, so one preempted
  // run cannot flip an ordering.
  std::vector<double> best;
  for (const SimMetrics& m : runs) best.push_back(m.scheduler_exec_seconds);
  for (int rep = 1; rep < 5; ++rep) {
    const auto again = run_paper_algorithms(workload, "Synthetic");
    for (std::size_t a = 0; a < best.size(); ++a)
      best[a] = std::min(best[a], again[a].scheduler_exec_seconds);
  }
  EXPECT_GT(best[1], best[2]);
  EXPECT_GT(best[1], best[3]);
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__)
  // NALB's lead over NULB (~10-40% in the optimized build) is a property
  // of optimized code: Debug and ASan builds reweight per-call costs
  // until the two tie.
  EXPECT_GT(best[1], best[0]);
#endif
}

TEST(SyntheticShape, DropRatesStayMarginal) {
  const auto runs = run_paper_algorithms(synthetic_workload(), "Synthetic");
  for (const SimMetrics& m : runs) {
    EXPECT_LT(m.drop_fraction(), 0.05) << m.algorithm;
  }
}

}  // namespace
}  // namespace risa::sim

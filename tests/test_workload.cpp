// Workload generators: the paper's synthetic process (§5.1) and the
// Azure-like subsets whose marginals must equal Figure 6 exactly.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "workload/azure.hpp"
#include "workload/characterize.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_io.hpp"

namespace risa::wl {
namespace {

TEST(ArrivalModel, LifetimeScheduleMatchesPaper) {
  // "The VM life cycle begins at 6300 time units, with an increment of 360
  // time units for each set of 100 requests."
  const ArrivalModel m;
  EXPECT_DOUBLE_EQ(m.lifetime(0), 6300.0);
  EXPECT_DOUBLE_EQ(m.lifetime(99), 6300.0);
  EXPECT_DOUBLE_EQ(m.lifetime(100), 6660.0);
  EXPECT_DOUBLE_EQ(m.lifetime(250), 6300.0 + 2 * 360.0);
  EXPECT_DOUBLE_EQ(m.lifetime(2499), 6300.0 + 24 * 360.0);
}

TEST(Synthetic, GeneratesPaperRangesAndCount) {
  const Workload vms = generate_synthetic(SyntheticConfig{}, 7);
  ASSERT_EQ(vms.size(), 2500u);
  for (const VmRequest& vm : vms) {
    ASSERT_GE(vm.cores, 1);
    ASSERT_LE(vm.cores, 32);
    ASSERT_GE(vm.ram_mb, gb(1.0));
    ASSERT_LE(vm.ram_mb, gb(32.0));
    ASSERT_EQ(vm.storage_mb, gb(128.0));
    ASSERT_GT(vm.lifetime, 0.0);
  }
}

TEST(Synthetic, ArrivalsAreStrictlyIncreasingWithMeanGapTen) {
  const Workload vms = generate_synthetic(SyntheticConfig{}, 11);
  for (std::size_t i = 1; i < vms.size(); ++i) {
    ASSERT_GT(vms[i].arrival, vms[i - 1].arrival);
  }
  const double mean_gap = vms.back().arrival / static_cast<double>(vms.size());
  EXPECT_NEAR(mean_gap, 10.0, 0.8);
}

TEST(Synthetic, DeterministicPerSeed) {
  const Workload a = generate_synthetic(SyntheticConfig{}, 5);
  const Workload b = generate_synthetic(SyntheticConfig{}, 5);
  const Workload c = generate_synthetic(SyntheticConfig{}, 6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Synthetic, IdsAreDense) {
  const Workload vms = generate_synthetic(SyntheticConfig{}, 3);
  for (std::size_t i = 0; i < vms.size(); ++i) {
    EXPECT_EQ(vms[i].id.value(), i);
  }
}

TEST(Azure, SpecTotalsMatchSubsetSizes) {
  EXPECT_EQ(azure_3000().total_vms(), 3000);
  EXPECT_EQ(azure_5000().total_vms(), 5000);
  EXPECT_EQ(azure_7500().total_vms(), 7500);
  EXPECT_EQ(azure_all_subsets().size(), 3u);
}

TEST(Azure, SplitSmallRamSumsExactly) {
  for (std::int64_t count : {0, 1, 2591, 4439, 6682}) {
    const auto split = split_small_ram(count);
    std::int64_t total = 0;
    for (const auto& [ram, n] : split) {
      EXPECT_GE(n, 0);
      total += n;
    }
    EXPECT_EQ(total, count) << "count=" << count;
  }
  Bin0Split bad;
  bad.frac_075 = 0.9;
  EXPECT_THROW(split_small_ram(10, bad), std::invalid_argument);
}

// The marginal counts decoded from Figure 6 must be reproduced exactly by
// the generator, for every subset.
struct SubsetCase {
  const char* label;
  std::map<std::int64_t, std::int64_t> cpu;  // cores -> count
};

class AzureMarginalTest : public ::testing::TestWithParam<int> {};

TEST_P(AzureMarginalTest, CpuAndRamMarginalsMatchFigure6) {
  const auto specs = azure_all_subsets();
  const AzureSpec& spec = specs[static_cast<std::size_t>(GetParam())];
  const Workload vms = generate_azure(spec, 123);
  ASSERT_EQ(static_cast<std::int64_t>(vms.size()), spec.total_vms());

  std::map<std::int64_t, std::int64_t> cpu_counts;
  std::map<Megabytes, std::int64_t> ram_counts;
  for (const VmRequest& vm : vms) {
    ++cpu_counts[vm.cores];
    ++ram_counts[vm.ram_mb];
    EXPECT_EQ(vm.storage_mb, gb(128.0));
  }
  for (const auto& [cores, count] : spec.cpu_marginal) {
    EXPECT_EQ(cpu_counts[cores], count) << spec.label << " cores=" << cores;
  }
  for (const auto& [ram_gb_value, count] : spec.ram_marginal) {
    EXPECT_EQ(ram_counts[gb(ram_gb_value)], count)
        << spec.label << " ram=" << ram_gb_value;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSubsets, AzureMarginalTest,
                         ::testing::Values(0, 1, 2));

TEST(Azure, Figure6HistogramCountsReproduce) {
  // Azure-3000, CPU panel: 10 bins over [1, 8] -> counts
  // {1326, 1269, 0, 0, 316, 0, 0, 0, 0, 89}; RAM panel: 10 bins over
  // [0.75, 56] -> {2591, 299, 15, 0, 17, 0, 0, 0, 0, 78}.
  const Workload vms = generate_azure(azure_3000(), 123);
  const Characterization ch = characterize(vms, 10);

  const std::vector<std::int64_t> cpu_expected{1326, 1269, 0, 0, 316,
                                               0,    0,    0, 0, 89};
  const std::vector<std::int64_t> ram_expected{2591, 299, 15, 0, 17,
                                               0,    0,   0,  0, 78};
  EXPECT_EQ(ch.cpu.counts(), cpu_expected);
  EXPECT_EQ(ch.ram.counts(), ram_expected);
}

TEST(Azure, RankCouplingPairsLargeRamWithLargeCpu) {
  // The 56 GB VMs must be 8-core (the real D13-like tail); rank coupling
  // guarantees it because 8-core VMs are the largest cores and 56 GB the
  // largest RAM, and counts(56GB)=78 <= counts(8 cores)=89.
  const Workload vms = generate_azure(azure_3000(), 123);
  for (const VmRequest& vm : vms) {
    if (vm.ram_mb == gb(56.0)) {
      EXPECT_EQ(vm.cores, 8);
    }
    if (vm.cores == 1) {
      EXPECT_LE(vm.ram_mb, gb(1.75));
    }
  }
}

TEST(Azure, ShuffleIsDeterministicPerSeed) {
  const Workload a = generate_azure(azure_3000(), 9);
  const Workload b = generate_azure(azure_3000(), 9);
  const Workload c = generate_azure(azure_3000(), 10);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Different seeds permute assignment order but keep marginals; spot-check
  // that orders differ.
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cores != c[i].cores) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Azure, SpecValidationCatchesMismatchedTotals) {
  AzureSpec spec = azure_3000();
  spec.cpu_marginal[0].second += 1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(Characterize, SummaryStatistics) {
  const Workload vms = generate_azure(azure_3000(), 1);
  const WorkloadSummary s = summarize(vms);
  EXPECT_EQ(s.count, 3000u);
  // Mean cores = (1326*1 + 1269*2 + 316*4 + 89*8) / 3000.
  EXPECT_NEAR(s.mean_cores, 5840.0 / 3000.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.mean_storage_gb, 128.0);
  EXPECT_DOUBLE_EQ(s.min_lifetime, 6300.0);
  EXPECT_GT(s.last_arrival, s.first_arrival);
}

TEST(TraceIo, RoundTripsExactly) {
  const Workload vms = generate_azure(azure_3000(), 77);
  std::stringstream ss;
  write_trace(ss, vms);
  const Workload back = read_trace(ss);
  EXPECT_EQ(vms, back);
}

TEST(TraceIo, RejectsMalformedInput) {
  std::stringstream empty;
  EXPECT_THROW(read_trace(empty), std::runtime_error);

  std::stringstream bad_header("a,b,c\n");
  EXPECT_THROW(read_trace(bad_header), std::runtime_error);

  std::stringstream bad_row(
      "vm_id,cores,ram_mb,storage_mb,arrival,lifetime\n1,-3,1,1,0,5\n");
  EXPECT_THROW(read_trace(bad_row), std::runtime_error);
}

TEST(TraceIo, RejectsNonFiniteTimesAndWideIds) {
  // Each row would otherwise load silently wrong: a NaN arrival stalls the
  // engine's merge loop, and an id past u32 would be truncated.
  for (const char* row : {"1,4,1024,1024,nan,5", "1,4,1024,1024,inf,5",
                          "1,4,1024,1024,0,nan", "1,4,1024,1024,0,inf",
                          "4294967296,4,1024,1024,0,5", "-1,4,1024,1024,0,5"}) {
    std::stringstream ss(std::string(
                             "vm_id,cores,ram_mb,storage_mb,arrival,lifetime\n"
                             "0,4,1024,1024,0,5\n") +
                         row + "\n");
    try {
      (void)read_trace(ss);
      ADD_FAILURE() << "accepted " << row;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
  std::stringstream widest(
      "vm_id,cores,ram_mb,storage_mb,arrival,lifetime\n"
      "4294967295,4,1024,1024,0,5\n");
  EXPECT_EQ(read_trace(widest).at(0).id, VmId{0xFFFFFFFFu});
}

TEST(SyntheticConfig, ValidationRejectsBadRanges) {
  SyntheticConfig cfg;
  cfg.count = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SyntheticConfig{};
  cfg.max_cores = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SyntheticConfig{};
  cfg.min_ram_gb = 8;
  cfg.max_ram_gb = 4;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace risa::wl

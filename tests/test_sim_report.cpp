// Experiment definitions and report rendering: paper reference lookups and
// table shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json_cursor.hpp"
#include "paper_algorithms.hpp"
#include "sim/engine.hpp"
#include "workload/synthetic.hpp"
#include "sim/experiments.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"

namespace risa::sim {
namespace {

TEST(Experiments, PaperReferencesMatchPublishedNumbers) {
  EXPECT_DOUBLE_EQ(*paper_reference("fig5", "Synthetic", "NULB"), 255);
  EXPECT_DOUBLE_EQ(*paper_reference("fig5", "Synthetic", "RISA"), 7);
  EXPECT_DOUBLE_EQ(*paper_reference("fig5", "Synthetic", "RISA-BF"), 2);
  EXPECT_DOUBLE_EQ(*paper_reference("fig9", "Azure-3000", "NULB"), 5.22);
  EXPECT_DOUBLE_EQ(*paper_reference("fig9", "Azure-7500", "NALB"), 6.72);
  EXPECT_DOUBLE_EQ(*paper_reference("fig10", "Azure-3000", "NALB"), 216);
  EXPECT_DOUBLE_EQ(*paper_reference("fig10", "Azure-5000", "RISA"), 110);
  EXPECT_DOUBLE_EQ(*paper_reference("fig11", "Synthetic", "NALB"), 865);
  EXPECT_DOUBLE_EQ(*paper_reference("fig12", "Azure-7500", "RISA"), 3679);
  EXPECT_DOUBLE_EQ(*paper_reference("fig8-intra", "Azure-5000", "RISA-BF"),
                   35.4);
  // Wildcard rows: RISA family is zero inter-rack on every Azure subset.
  EXPECT_DOUBLE_EQ(*paper_reference("fig7", "Azure-7500", "RISA"), 0.0);
  // Unreported combinations stay empty.
  EXPECT_FALSE(paper_reference("fig9", "Azure-5000", "NULB").has_value());
  EXPECT_FALSE(paper_reference("nope", "Synthetic", "NULB").has_value());
  EXPECT_EQ(paper_cell("fig9", "Azure-5000", "NULB"), "-");
  EXPECT_EQ(paper_cell("fig5", "Synthetic", "NULB", 0), "255");
}

TEST(Experiments, WorkloadBuildersProducePaperSizes) {
  EXPECT_EQ(synthetic_workload().size(), 2500u);
  const auto azure = azure_workloads();
  ASSERT_EQ(azure.size(), 3u);
  EXPECT_EQ(azure[0].first, "Azure-3000");
  EXPECT_EQ(azure[0].second.size(), 3000u);
  EXPECT_EQ(azure[1].second.size(), 5000u);
  EXPECT_EQ(azure[2].second.size(), 7500u);
}

TEST(Report, TablesRenderOneRowPerRun) {
  wl::SyntheticConfig cfg;
  cfg.count = 60;
  const auto runs =
      run_paper_algorithms(wl::generate_synthetic(cfg, 1), "Synthetic");

  EXPECT_EQ(figure5_table(runs).rows(), 4u);
  EXPECT_EQ(figure7_table(runs).rows(), 4u);
  EXPECT_EQ(figure8_table(runs).rows(), 4u);
  EXPECT_EQ(figure9_table(runs).rows(), 4u);
  EXPECT_EQ(figure9_reduction_table(runs).rows(), 1u);  // NULB vs RISA
  EXPECT_EQ(figure10_table(runs).rows(), 4u);
  EXPECT_EQ(exec_time_table(runs, "fig11").rows(), 4u);
  EXPECT_EQ(utilization_table(runs).rows(), 4u);
  EXPECT_EQ(full_metrics_table(runs).rows(), 4u);

  // The Figure 5 table carries the paper's reference column.
  const std::string rendered = figure5_table(runs).to_string();
  EXPECT_NE(rendered.find("255"), std::string::npos);
  EXPECT_NE(rendered.find("RISA-BF"), std::string::npos);
}

TEST(Report, SchedulerBenchJsonReadsBack) {
  SchedulerBenchEntry plain;
  plain.workload = "synthetic-10000";
  plain.algorithm = "RISA";
  plain.total_vms = 10'000;
  plain.placed = 6302;
  plain.dropped = 3698;
  plain.inter_rack = 934;
  plain.sched_s = 0.003548;
  plain.placements_per_sec = 2818720;
  plain.sim_s = 0.007823;
  plain.events_per_sec = 2083953;
  plain.p50_ns = 416;
  plain.p99_ns = 1024;
  SchedulerBenchEntry streamed = plain;
  streamed.workload = "synthetic-500000-stream";
  streamed.source_s = 0.25;
  streamed.peak_rss_mb = 11.5;
  streamed.profile.recorded = true;
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    streamed.profile.seconds[p] = 0.125 * static_cast<double>(p);
  }

  std::istringstream in(scheduler_bench_json("t", {plain, streamed}));
  const auto back = read_scheduler_bench_json(in);
  ASSERT_EQ(back.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const SchedulerBenchEntry& want = i == 0 ? plain : streamed;
    const SchedulerBenchEntry& got = back[i];
    EXPECT_EQ(got.workload, want.workload);
    EXPECT_EQ(got.algorithm, want.algorithm);
    EXPECT_EQ(got.total_vms, want.total_vms);
    EXPECT_EQ(got.placed, want.placed);
    EXPECT_EQ(got.dropped, want.dropped);
    EXPECT_EQ(got.inter_rack, want.inter_rack);
    // Every written value has no more digits than its format keeps.
    const std::pair<double, double> reals[] = {
        {got.sched_s, want.sched_s},
        {got.sim_s, want.sim_s},
        {got.events_per_sec, want.events_per_sec},
        {got.placements_per_sec, want.placements_per_sec},
        {got.p50_ns, want.p50_ns},
        {got.p99_ns, want.p99_ns},
        {got.source_s, want.source_s},
        {got.peak_rss_mb, want.peak_rss_mb}};
    for (const auto& [a, b] : reals) EXPECT_DOUBLE_EQ(a, b);
    EXPECT_EQ(got.profile.recorded, want.profile.recorded);
    EXPECT_EQ(got.profile.seconds, want.profile.seconds);
  }
}

TEST(Report, SchedulerBenchJsonFailsClosed) {
  const std::string doc = scheduler_bench_json("t", {SchedulerBenchEntry{}});
  std::istringstream truncated(doc.substr(0, doc.size() / 2));
  try {
    (void)read_scheduler_bench_json(truncated);
    FAIL() << "truncated document accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("scheduler bench JSON (byte "),
              std::string::npos)
        << e.what();
  }
  std::istringstream unknown(R"({"entries": [{"sim_z": 1}]})");
  EXPECT_THROW((void)read_scheduler_bench_json(unknown), std::runtime_error);
  // A baseline older than a phase reads that phase as NaN.
  std::istringstream old_profile(
      R"({"entries": [{"profile": {"placement": 0.5}}]})");
  const auto rows = read_scheduler_bench_json(old_profile);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].profile[Phase::Placement], 0.5);
  EXPECT_TRUE(std::isnan(rows[0].profile[Phase::Merge]));
}

TEST(Report, JsonWritersEscapeLabels) {
  // A label with a quote, a backslash and a control byte (a fault-plan
  // path can carry any of them) must come back intact from both writers.
  const std::string label = "pl\"an\\x\x01\ty";
  SweepResult r;
  r.scenario = "paper";
  r.fault_plan = label;
  r.migration_plan = "none";
  r.metrics.workload = label;
  r.metrics.algorithm = "RISA";
  std::istringstream sweep_doc(sweep_json(label, {r}));
  JsonCursor json(sweep_doc, "sweep");
  std::string benchmark;
  std::vector<std::string> strings;
  json.object([&](const std::string& key) {
    if (key == "benchmark") {
      benchmark = json.string();
      return;
    }
    json.array([&] {
      json.object([&](const std::string& field) {
        if (field == "fault_plan" || field == "workload") {
          strings.push_back(json.string());
        } else {
          json.skip_value();
        }
      });
    });
  });
  json.finish();
  EXPECT_EQ(benchmark, label);
  ASSERT_EQ(strings.size(), 2u);
  EXPECT_EQ(strings[0], label);
  EXPECT_EQ(strings[1], label);

  SchedulerBenchEntry entry;
  entry.workload = label;
  entry.algorithm = label;
  std::istringstream bench_doc(scheduler_bench_json(label, {entry}));
  const auto back = read_scheduler_bench_json(bench_doc);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].workload, label);
  EXPECT_EQ(back[0].algorithm, label);
}

TEST(Report, ExecTimeTableNormalizesToRisa) {
  wl::SyntheticConfig cfg;
  cfg.count = 60;
  const auto runs =
      run_paper_algorithms(wl::generate_synthetic(cfg, 2), "Synthetic");
  const std::string rendered = exec_time_table(runs, "fig11").to_string();
  EXPECT_NE(rendered.find("1.00x"), std::string::npos);
}

TEST(Experiments, ToyStackMatchesTable3State) {
  auto stack = make_table3_stack();
  const auto& cluster = stack->cluster();
  const auto avail = [&](ResourceType t, std::uint32_t idx) {
    return cluster.box(cluster.boxes_of_type(t)[idx]).available_units();
  };
  EXPECT_EQ(avail(ResourceType::Cpu, 0), 0);
  EXPECT_EQ(avail(ResourceType::Cpu, 2), 64);
  EXPECT_EQ(avail(ResourceType::Cpu, 3), 32);
  EXPECT_EQ(avail(ResourceType::Ram, 1), 16);
  EXPECT_EQ(avail(ResourceType::Ram, 2), 32);
  EXPECT_EQ(avail(ResourceType::Storage, 2), 4);
  EXPECT_EQ(avail(ResourceType::Storage, 3), 8);
  cluster.check_invariants();
}

TEST(Experiments, ToyVmHelper) {
  const wl::VmRequest vm = toy_vm(7, 8, 16.0, 128.0, 42.0);
  EXPECT_EQ(vm.id.value(), 7u);
  EXPECT_EQ(vm.cores, 8);
  EXPECT_EQ(vm.ram_mb, gb(16.0));
  EXPECT_EQ(vm.storage_mb, gb(128.0));
  EXPECT_DOUBLE_EQ(vm.lifetime, 42.0);
  EXPECT_DOUBLE_EQ(vm.departure(), 42.0);
}

TEST(Experiments, ToyStackRejectsRaisingAvailability) {
  auto stack = make_table3_stack();
  EXPECT_THROW(stack->set_availability(ResourceType::Cpu, 0, 64),
               std::invalid_argument);
}

}  // namespace
}  // namespace risa::sim

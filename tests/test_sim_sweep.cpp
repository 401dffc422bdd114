// The sweep subsystem: matrix expansion, thread-count determinism over the
// full figure matrix, engine reuse equivalence, and the unified emitters.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/flags.hpp"
#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "workload/synthetic.hpp"

namespace risa::sim {
namespace {

wl::Workload small_workload(std::size_t n = 200, std::uint64_t seed = 42) {
  wl::SyntheticConfig cfg;
  cfg.count = n;
  return wl::generate_synthetic(cfg, seed);
}

SweepSpec small_spec() {
  SweepSpec spec;
  spec.scenarios = {{"paper", Scenario::paper_defaults()}};
  spec.workloads = {WorkloadSpec::synthetic(200)};
  spec.seeds = {42};
  spec.algorithms = {"NULB", "RISA"};
  return spec;
}

TEST(SweepSpec, CellIndexMatchesExpansionOrder) {
  SweepSpec spec;
  spec.scenarios = {{"a", Scenario::paper_defaults()},
                    {"b", Scenario::paper_defaults()}};
  spec.workloads = {WorkloadSpec::synthetic(10), WorkloadSpec::synthetic(20),
                    WorkloadSpec::synthetic(30)};
  spec.seeds = {1, 2};
  spec.algorithms = {"RISA", "NULB", "NALB", "RISA-BF"};
  ASSERT_EQ(spec.cell_count(), 2u * 3u * 2u * 4u);
  std::size_t expect = 0;
  for (std::size_t sc = 0; sc < 2; ++sc) {
    for (std::size_t w = 0; w < 3; ++w) {
      for (std::size_t s = 0; s < 2; ++s) {
        for (std::size_t a = 0; a < 4; ++a) {
          EXPECT_EQ(spec.cell_index(sc, w, s, a), expect++);
        }
      }
    }
  }
}

TEST(SweepSpec, ValidateRejectsEmptyAxes) {
  SweepSpec spec = small_spec();
  spec.algorithms.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.workloads.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SweepRunner, ResultsCarryCellCoordinates) {
  const auto results = SweepRunner(2).run(small_spec());
  ASSERT_EQ(results.size(), 2u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].cell, i);
    EXPECT_EQ(results[i].scenario, "paper");
    EXPECT_EQ(results[i].seed, 42u);
    EXPECT_EQ(results[i].metrics.workload, "Synthetic");
  }
  EXPECT_EQ(results[0].metrics.algorithm, "NULB");
  EXPECT_EQ(results[1].metrics.algorithm, "RISA");
}

TEST(SweepRunner, MatchesDirectEngineRuns) {
  const auto results = SweepRunner(4).run(small_spec());
  const wl::Workload workload = small_workload();
  for (const char* algo : {"NULB", "RISA"}) {
    Engine engine(Scenario::paper_defaults(), algo);
    const SimMetrics direct = engine.run(workload, "Synthetic");
    const SimMetrics& swept =
        results[algo == std::string("NULB") ? 0 : 1].metrics;
    EXPECT_EQ(metrics_fingerprint(direct), metrics_fingerprint(swept));
  }
}

// The headline determinism contract: the ENTIRE figure matrix (Figures 5,
// 7-12: synthetic + all three Azure subsets x all four algorithms) yields
// bit-identical SimMetrics at 1 and 8 threads.
TEST(SweepRunner, FullFigureMatrixIsDeterministicAcrossThreadCounts) {
  const SweepSpec spec = SweepSpec::figure_matrix(kDefaultSeed);
  const auto serial = SweepRunner(1).run(spec);
  const auto threaded = SweepRunner(8).run(spec);
  ASSERT_EQ(serial.size(), spec.cell_count());
  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(metrics_fingerprint(serial[i].metrics),
              metrics_fingerprint(threaded[i].metrics))
        << "cell " << i << " (" << serial[i].metrics.workload << ", "
        << serial[i].metrics.algorithm << ")";
    // Timing is measured (single-threaded within the cell) even though it
    // is excluded from the fingerprint.
    EXPECT_GT(threaded[i].metrics.scheduler_exec_seconds, 0.0);
  }
}

// Engine reuse: two consecutive run() calls on one engine match two fresh
// engines bit-for-bit, for every algorithm including the seeded RANDOM
// baseline (whose RNG must rewind on reset).
TEST(EngineReuse, ConsecutiveRunsMatchFreshEnginesBitForBit) {
  const wl::Workload workload = small_workload(300, 7);
  for (const char* algo : {"NULB", "NALB", "RISA", "RISA-BF", "RANDOM"}) {
    Engine reused(Scenario::paper_defaults(), algo);
    const SimMetrics r1 = reused.run(workload, "t");
    const SimMetrics r2 = reused.run(workload, "t");

    Engine fresh1(Scenario::paper_defaults(), algo);
    Engine fresh2(Scenario::paper_defaults(), algo);
    const SimMetrics f1 = fresh1.run(workload, "t");
    const SimMetrics f2 = fresh2.run(workload, "t");

    EXPECT_EQ(metrics_fingerprint(r1), metrics_fingerprint(f1)) << algo;
    EXPECT_EQ(metrics_fingerprint(r2), metrics_fingerprint(f2)) << algo;
    EXPECT_EQ(metrics_fingerprint(r1), metrics_fingerprint(r2)) << algo;
  }
}

TEST(EngineReuse, SetAlgorithmRebindsWithoutTopologyRebuild) {
  const wl::Workload workload = small_workload();
  Engine engine(Scenario::paper_defaults(), "NULB");
  const topo::Cluster* cluster_before = &engine.cluster();
  const net::Fabric* fabric_before = &engine.fabric();
  const SimMetrics nulb = engine.run(workload, "t");

  engine.set_algorithm("RISA");
  EXPECT_EQ(engine.algorithm(), "RISA");
  const SimMetrics risa = engine.run(workload, "t");
  EXPECT_EQ(&engine.cluster(), cluster_before);
  EXPECT_EQ(&engine.fabric(), fabric_before);
  EXPECT_EQ(risa.algorithm, "RISA");
  EXPECT_NE(nulb.inter_rack_placements, risa.inter_rack_placements);

  Engine fresh(Scenario::paper_defaults(), "RISA");
  EXPECT_EQ(metrics_fingerprint(fresh.run(workload, "t")),
            metrics_fingerprint(risa));
}

TEST(Sweep, RecordsLatencyPerCell) {
  SweepSpec spec = small_spec();
  spec.record_latency = true;
  const auto results = SweepRunner(2).run(spec);
  for (const SweepResult& r : results) {
    EXPECT_EQ(static_cast<std::uint64_t>(r.latency.total()),
              r.metrics.total_vms);
  }
}

TEST(Sweep, FingerprintIgnoresSchedulerTiming) {
  Engine engine(Scenario::paper_defaults(), "RISA");
  const SimMetrics a = engine.run(small_workload(), "t");
  SimMetrics b = a;
  b.scheduler_exec_seconds *= 100.0;
  EXPECT_EQ(metrics_fingerprint(a), metrics_fingerprint(b));
  b.placed += 1;
  EXPECT_NE(metrics_fingerprint(a), metrics_fingerprint(b));
}

TEST(Sweep, UnifiedEmittersCoverEveryCell) {
  SweepSpec spec = small_spec();
  spec.record_latency = true;
  const auto results = SweepRunner(1).run(spec);

  const std::string json = sweep_json("unit", results);
  EXPECT_NE(json.find("\"benchmark\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"algorithm\": \"NULB\""), std::string::npos);
  EXPECT_NE(json.find("\"algorithm\": \"RISA\""), std::string::npos);

  const std::string csv = sweep_csv(results);
  // Header + one row per cell.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            1 + results.size());

  const auto entries = scheduler_bench_entries(results);
  ASSERT_EQ(entries.size(), results.size());
  EXPECT_EQ(entries[0].algorithm, "NULB");
  EXPECT_EQ(entries[0].total_vms, 200u);
  EXPECT_GT(entries[0].p99_ns, 0.0);
  EXPECT_GE(entries[0].p99_ns, entries[0].p50_ns);
}

TEST(Sweep, EntriesRequireRecordedLatency) {
  const auto results = SweepRunner(1).run(small_spec());
  EXPECT_THROW((void)scheduler_bench_entries(results), std::invalid_argument);
}

TEST(Threads, ResolveThreadCountPrefersExplicitValue) {
  EXPECT_EQ(resolve_thread_count(3), 3);
  EXPECT_GE(resolve_thread_count(0), 1);
  EXPECT_GE(resolve_thread_count(-2), 1);
}

TEST(Threads, EnvOverrideDrivesDefault) {
  ASSERT_EQ(setenv("RISA_THREADS", "5", 1), 0);
  EXPECT_EQ(default_thread_count(), 5);
  ASSERT_EQ(setenv("RISA_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(default_thread_count(), 1);
  ASSERT_EQ(unsetenv("RISA_THREADS"), 0);
  EXPECT_GE(default_thread_count(), 1);
}

TEST(Threads, BenchmarkParseTakesThreadsAndCompactsArgv) {
  const char* raw[] = {"prog", "--benchmark_min_time=0.01s", "--threads=6",
                       "--threads", "7"};
  char* argv[5];
  for (int i = 0; i < 5; ++i) argv[i] = const_cast<char*>(raw[i]);
  int argc = 5;
  Flags flags;
  define_threads_flag(flags, /*default_value=*/1);
  ASSERT_TRUE(flags.parse_benchmark_or_usage(argc, argv));
  EXPECT_EQ(thread_count(flags), 7);  // the last occurrence wins
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "--benchmark_min_time=0.01s");
  // Absent flag resolves the driver's default.
  Flags serial;
  define_threads_flag(serial, /*default_value=*/1);
  ASSERT_TRUE(serial.parse_benchmark_or_usage(argc, argv));
  EXPECT_EQ(thread_count(serial), 1);
  EXPECT_EQ(argc, 2);
  // A malformed count fails the parse instead of resolving to "auto".
  char* bad[] = {const_cast<char*>("prog"), const_cast<char*>("--threads=abc")};
  int bad_argc = 2;
  Flags strict;
  define_threads_flag(strict, /*default_value=*/1);
  EXPECT_FALSE(strict.parse_benchmark_or_usage(bad_argc, bad));
}

}  // namespace
}  // namespace risa::sim

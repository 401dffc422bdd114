// The full figure-suite sweep in one command: every table behind Figures 5
// and 7-12 (plus the §5.1 utilization text), computed from a single
// (scenario x workload x seed x algorithm) matrix on the thread pool and
// emitted through the unified JSON/CSV reporters.
//
//   $ ./figure_suite                         # all tables, default threads
//   $ ./figure_suite --threads=8             # explicit worker count
//   $ ./figure_suite --json=suite.json --csv=suite.csv
//   $ ./figure_suite --verify                # run twice, compare digests
//
// The sweep is byte-deterministic at any thread count; --verify proves it
// on the spot by re-running serially and comparing metric fingerprints.
// Scheduler timing (Figures 11/12 shape) is reported from whatever thread
// count you pick; for publication-grade timing use the dedicated
// bench_fig11/bench_fig12 binaries, which sweep serially.
#include <chrono>
#include <iostream>

#include "common/flags.hpp"
#include "sim/experiments.hpp"
#include "sim/report.hpp"
#include "sim/scenario_io.hpp"
#include "sim/sweep.hpp"

int main(int argc, char** argv) {
  using namespace risa;
  Flags flags;
  flags.define_i64("seed", sim::kDefaultSeed, "Workload RNG seed");
  flags.define("json", "", "Write the unified sweep JSON to this file");
  flags.define("csv", "", "Write the unified sweep CSV to this file");
  flags.define("faults", "",
               "FaultPlan JSON file applied to every cell of the matrix");
  flags.define("migrations", "",
               "MigrationPlan JSON file applied to every cell of the matrix");
  flags.define("trace-dir", "",
               "Write a per-cell Perfetto trace into this directory "
               "(must exist; observation only, results are unchanged)");
  flags.define("trace-categories", "all",
               "Trace categories for --trace-dir: csv of "
               "lifecycle,placement,power,calendar | all | none");
  flags.define("verify", "false",
               "Re-run the matrix serially and compare bit-exact digests");
  define_threads_flag(flags);
  if (!flags.parse_or_usage(argc, argv)) return 1;

  const auto seed = static_cast<std::uint64_t>(flags.i64("seed"));
  sim::SweepSpec spec = sim::SweepSpec::figure_matrix(seed);
  if (!flags.str("faults").empty()) {
    const sim::FaultPlan plan = sim::load_fault_plan_file(flags.str("faults"));
    // A one-entry fault axis (factor 1: cell count and indexing unchanged)
    // so every result row carries the plan's label.
    spec.fault_plans.emplace_back(flags.str("faults"), plan);
    std::cout << "fault plan applied: " << plan.actions.size()
              << " action(s), retry max_attempts=" << plan.retry.max_attempts
              << "\n\n";
  }
  if (!flags.str("migrations").empty()) {
    const sim::MigrationPlan plan =
        sim::load_migration_plan_file(flags.str("migrations"));
    // Same one-entry-axis trick as --faults: factor 1, labeled rows.
    spec.migration_plans.emplace_back(flags.str("migrations"), plan);
    std::cout << "migration plan applied: period=" << plan.period_tu
              << " tu, per_sweep=" << plan.per_sweep_budget
              << ", total_budget=" << plan.total_budget << "\n\n";
  }
  if (!flags.str("trace-dir").empty()) {
    spec.trace_dir = flags.str("trace-dir");
    spec.telemetry.categories =
        sim::parse_trace_categories(flags.str("trace-categories"));
    std::cout << "per-cell traces: " << spec.trace_dir << "/cell<i>.*.json\n\n";
  }
  const sim::SweepRunner runner(thread_count(flags));

  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  const auto results = runner.run(spec);
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const auto runs = sim::metrics_of(results);

  std::cout << "figure suite: " << spec.cell_count() << " cells on "
            << runner.threads() << " thread(s) in "
            << TextTable::num(wall_s, 2) << " s\n\n";

  // Synthetic rows feed Figures 5/11; Azure rows feed Figures 7-10/12.
  std::vector<sim::SimMetrics> synthetic, azure;
  for (const auto& m : runs) {
    (m.workload == "Synthetic" ? synthetic : azure).push_back(m);
  }

  std::cout << "=== Figure 5: inter-rack VM assignments (synthetic) ===\n"
            << sim::figure5_table(synthetic) << '\n'
            << "=== SS5.1 text: average utilization (synthetic) ===\n"
            << sim::utilization_table(synthetic) << '\n'
            << "=== Figure 7: % inter-rack VM assignments (Azure) ===\n"
            << sim::figure7_table(azure) << '\n'
            << "=== Figure 8: network utilization (Azure) ===\n"
            << sim::figure8_table(azure) << '\n'
            << "=== Figure 9: optical component power (Azure) ===\n"
            << sim::figure9_table(azure) << '\n'
            << sim::figure9_reduction_table(azure) << '\n'
            << "=== Figure 10: CPU-RAM round-trip latency (Azure) ===\n"
            << sim::figure10_table(azure) << '\n'
            << "=== Figure 11 shape: scheduler execution time (synthetic) "
               "===\n"
            << sim::exec_time_table(synthetic, "fig11") << '\n'
            << "=== Figure 12 shape: scheduler execution time (Azure) ===\n"
            << sim::exec_time_table(azure, "fig12") << '\n'
            << "=== Full metrics ===\n"
            << sim::full_metrics_table(runs);
  if (!flags.str("faults").empty()) {
    std::cout << "\n=== Lifecycle outcomes (fault plan) ===\n"
              << sim::lifecycle_table(results);
  }
  if (!flags.str("migrations").empty()) {
    std::cout << "\n=== Defragmentation outcomes (migration plan) ===\n"
              << sim::migration_table(results);
  }

  if (!flags.str("json").empty() &&
      !sim::write_sweep_json(flags.str("json"), "figure_suite", results)) {
    return 1;
  }
  if (!flags.str("json").empty()) {
    std::cout << "\nwrote sweep JSON: " << flags.str("json") << '\n';
  }
  if (!flags.str("csv").empty() &&
      !sim::write_sweep_csv(flags.str("csv"), results)) {
    return 1;
  }
  if (!flags.str("csv").empty()) {
    std::cout << "wrote sweep CSV: " << flags.str("csv") << '\n';
  }

  if (flags.b("verify")) {
    const auto serial = sim::SweepRunner(1).run(spec);
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (sim::metrics_fingerprint(results[i].metrics) !=
          sim::metrics_fingerprint(serial[i].metrics)) {
        std::cerr << "DETERMINISM VIOLATION in cell " << i << " ("
                  << results[i].metrics.workload << ", "
                  << results[i].metrics.algorithm << ")\n";
        return 1;
      }
    }
    std::cout << "\nverified: " << results.size() << " cells bit-identical "
              << "between " << runner.threads() << " thread(s) and serial\n";
  }
  return 0;
}

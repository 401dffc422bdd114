// The experiment matrices of sim/matrices.hpp in one command: the tables
// behind Figures 5-12 (and the §5.1 text) by default, or any ablation or
// extension, each a sweep on the thread pool followed by its checked
// claims.  A failed claim prints what it measured and the driver exits 1.
//
//   $ ./figure_suite --matrix=all --threads=2 --verify
//   $ ./figure_suite --matrix=failures --json=BENCH_failures.json
//
// Sweeps are byte-deterministic at any thread count; --verify re-runs each
// matrix serially and compares metric fingerprints.  Figures 11/12 timing
// comes from the chosen thread count; bench_fig11/bench_fig12 time serially.
#include <chrono>
#include <iostream>
#include <vector>

#include "common/flags.hpp"
#include "sim/experiments.hpp"
#include "sim/matrices.hpp"
#include "sim/report.hpp"
#include "sim/scenario_io.hpp"
#include "sim/sweep.hpp"

int main(int argc, char** argv) {
  using namespace risa;
  std::string names;
  for (const sim::Matrix& m : sim::matrices()) names += m.name + " | ";
  Flags flags;
  flags.define("matrix", "figures", "Matrix to run: " + names + "all");
  flags.define_i64("seed", sim::kDefaultSeed, "Workload RNG seed");
  flags.define("json", "", "Write the unified sweep JSON to this file");
  flags.define("csv", "", "Write the unified sweep CSV to this file");
  flags.define("faults", "", "FaultPlan JSON file for every figure cell");
  flags.define("migrations", "",
               "MigrationPlan JSON file for every figure cell");
  flags.define("trace-dir", "",
               "Write a per-cell Perfetto trace into this directory "
               "(must exist; observation only, results are unchanged)");
  flags.define("trace-categories", "all",
               "Trace categories for --trace-dir: csv of "
               "lifecycle,placement,power,calendar | all | none");
  flags.define("verify", "false",
               "Re-run each matrix serially and compare bit-exact digests");
  define_threads_flag(flags);
  if (!flags.parse_or_usage(argc, argv)) return 1;

  const std::string& chosen = flags.str("matrix");
  std::vector<const sim::Matrix*> selected;
  for (const sim::Matrix& m : sim::matrices()) {
    if (chosen == "all" || chosen == m.name) selected.push_back(&m);
  }
  if (selected.empty()) {
    std::cerr << "unknown --matrix=" << chosen << " (known: " << names
              << "all)\n";
    return 1;
  }
  // A flag the chosen matrices cannot honor is an error, not a no-op: the
  // writers take one matrix, and a plan file joins the figure matrix only.
  for (const std::string flag :
       {"json", "csv", "trace-dir", "faults", "migrations"}) {
    const bool figures_only = flag == "faults" || flag == "migrations";
    if (!flags.str(flag).empty() &&
        (selected.size() > 1 ||
         (figures_only && selected[0]->name != "figures"))) {
      std::cerr << "--" << flag << " does not apply to --matrix=" << chosen
                << '\n';
      return 1;
    }
  }

  const auto seed = static_cast<std::uint64_t>(flags.i64("seed"));
  const sim::SweepRunner runner(thread_count(flags));
  std::size_t failed_claims = 0;
  for (const sim::Matrix* matrix : selected) {
    sim::MatrixRun run{matrix->spec(seed), {}};
    sim::SweepSpec& spec = run.spec;
    if (!flags.str("faults").empty()) {
      const sim::FaultPlan plan =
          sim::load_fault_plan_file(flags.str("faults"));
      // A one-entry fault axis (factor 1: cell count and indexing
      // unchanged) so every result row carries the plan's label.
      spec.fault_plans.emplace_back(flags.str("faults"), plan);
      std::cout << "fault plan applied: " << plan.actions.size()
                << " action(s), retry max_attempts="
                << plan.retry.max_attempts << "\n\n";
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
      std::cout << "per-cell traces: " << spec.trace_dir
                << "/cell<i>.*.json\n\n";
    }

    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    run.results = runner.run(spec);
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    std::cout << "matrix " << matrix->name << ": " << spec.cell_count()
              << " cells on " << runner.threads() << " thread(s) in "
              << TextTable::num(wall_s, 2) << " s\n\n";
    matrix->print(std::cout, run);
    std::cout << '\n';
    failed_claims += sim::report_claims(std::cout, *matrix, run);

    if (!flags.str("json").empty()) {
      if (!sim::write_sweep_json(flags.str("json"), matrix->benchmark,
                                 run.results)) {
        return 1;
      }
      std::cout << "\nwrote sweep JSON: " << flags.str("json") << '\n';
    }
    if (!flags.str("csv").empty()) {
      if (!sim::write_sweep_csv(flags.str("csv"), run.results)) return 1;
      std::cout << "wrote sweep CSV: " << flags.str("csv") << '\n';
    }
    if (flags.b("verify")) {
      const auto serial = sim::SweepRunner(1).run(spec);
      for (std::size_t i = 0; i < run.results.size(); ++i) {
        if (sim::metrics_fingerprint(run.results[i].metrics) !=
            sim::metrics_fingerprint(serial[i].metrics)) {
          std::cerr << "DETERMINISM VIOLATION in " << matrix->name
                    << " cell " << i << " ("
                    << run.results[i].metrics.workload << ", "
                    << run.results[i].metrics.algorithm << ")\n";
          return 1;
        }
      }
      std::cout << "\nverified: " << run.results.size()
                << " cells bit-identical between " << runner.threads()
                << " thread(s) and serial\n";
    }
    std::cout << '\n';
  }
  if (failed_claims > 0) {
    std::cerr << failed_claims << " claim(s) failed\n";
    return 1;
  }
  return 0;
}

// Extension E-A7: live-migration defragmentation under fault+churn
// (DESIGN.md §9; the re-allocation direction of Shabka & Zervas's RL
// scheduler, PAPERS.md).
//
// Protocol: replay Azure-3000 while an MTBF-style stochastic fault process
// (compile_mtbf_plan: seeded Poisson failures, exponential repairs,
// bounded requeue) churns boxes underneath, and sweep a MigrationPlan
// budget axis from "none" to an aggressive defragmenter.  Each MIGRATE
// event re-places the worst-spread live VMs through the normal allocator
// with their current boxes excluded, double-charging the transfer window
// on both placements.  The whole (fault x migration x algorithm) matrix is
// one SweepSpec cell grid: deterministic at any thread count, reported per
// scheduler as migrations committed, inter-rack VMs recovered, the
// admission vs net-of-recovered inter-rack fraction, and optical power --
// quantifying how much of the fragmentation cost a migration budget buys
// back, and where the double-charge window stops paying for itself.
//
//   $ ./bench_extension_migration --threads=2
//   $ ./bench_extension_migration --emit_json  # BENCH_migration.json
#include <iostream>

#include "common/flags.hpp"
#include "core/registry.hpp"
#include "sim/experiments.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"

using namespace risa;

namespace {

/// The churn underneath the defrag: ~15 seeded box failures over the
/// Azure-3000 horizon (~46750 tu), each repaired ~800 tu later, with two
/// bounded requeue attempts per victim.  Requeued VMs placed while their
/// home rack is degraded are exactly the stragglers migration recovers.
sim::FaultPlan mtbf_churn() {
  sim::MtbfSpec spec;
  spec.mtbf_tu = 3000.0;
  spec.mttr_tu = 800.0;
  spec.seed = 99;  // failure-process stream, independent of the workload
  spec.horizon_tu = 45000.0;
  spec.num_boxes = sim::Scenario::paper_defaults().cluster.total_boxes();
  sim::FaultPlan plan = sim::compile_mtbf_plan(spec);
  plan.retry.max_attempts = 2;
  plan.retry.delay_tu = 25.0;
  return plan;
}

/// A defragmentation plan: sweeps every `period` tu, up to `per_sweep`
/// moves each, `total` over the run.  Transfer time is charged on both
/// placements; sweeps wait out degraded windows (migrating into a
/// crippled fabric wastes the budget the repairs are about to restore).
sim::MigrationPlan defrag(double period, std::uint32_t per_sweep,
                          std::uint32_t total) {
  sim::MigrationPlan plan;
  plan.period_tu = period;
  plan.per_sweep_budget = per_sweep;
  plan.total_budget = total;
  plan.charge_transfer = true;
  plan.only_if_improves = true;
  plan.skip_while_degraded = true;
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("emit_json", "",
               "Write the unified sweep JSON to this file "
               "(BENCH_migration.json when given without a value)",
               "BENCH_migration.json");
  define_threads_flag(flags);
  if (!flags.parse_or_usage(argc, argv)) return 1;

  sim::SweepSpec spec;
  spec.scenarios = {{"paper", sim::Scenario::paper_defaults()}};
  spec.workloads = {sim::WorkloadSpec::azure("azure-3000")};
  spec.seeds = {sim::kDefaultSeed};
  spec.algorithms = core::algorithm_names();
  spec.fault_plans = {{"mtbf15", mtbf_churn()}};
  spec.migration_plans = {
      {"none", sim::MigrationPlan{}},
      {"defrag-light", defrag(500.0, 4, 200)},
      {"defrag-medium", defrag(250.0, 8, 1000)},
      {"defrag-heavy", defrag(100.0, 16, 4000)},
  };

  const sim::SweepRunner runner(thread_count(flags));
  const auto results = runner.run(spec);

  std::cout << "=== Extension: live-migration defragmentation (Azure-3000, "
               "MTBF churn, migration-budget axis; "
            << results.size() << " cells on " << runner.threads()
            << " thread(s)) ===\n"
            << sim::migration_table(results)
            << "The fragmenting baselines (NULB/NALB admit ~2/3 of VMs "
               "inter-rack) recover a\nlarge share of their stragglers: "
               "watch NULB's net inter-rack fraction and power\nfall as "
               "the budget grows.  RISA admits intra-rack to begin with, "
               "so its sweeps\nfind nothing to move -- defragmentation is "
               "a complement to a fragmenting\nscheduler, not a substitute "
               "for a good one.  The heavy NALB cell shows the\nlimit: "
               "re-placing through a bandwidth-greedy policy can re-spread "
               "future\nadmissions and give part of the win back.\n";

  const std::string json_path = flags.str("emit_json");
  if (!json_path.empty()) {
    if (!sim::write_sweep_json(json_path, "extension_migration", results)) {
      return 1;
    }
    std::cout << "wrote sweep JSON: " << json_path << '\n';
  }
  return 0;
}

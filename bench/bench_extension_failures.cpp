// Extension E-A6: resilience under box failures (the reliability angle of
// the paper's related work, e.g. Radar [8] / Guo et al. [7]).
//
// Protocol: replay Azure-3000 through the Engine's merged lifecycle event
// stream (DESIGN.md §8); when 1500 VMs have been admitted, fail K random
// boxes (seeded draw, uniform over all types).  Resident VMs on failed
// boxes are killed -- their photonic charging interval is settled at kill
// time and their circuits torn down -- and scheduling continues on the
// degraded cluster.  A retry variant requeues drops and kills with a
// bounded budget.  The whole (fault plan x algorithm) matrix is one
// SweepSpec cell grid: deterministic at any thread count, reported per
// scheduler as killed VMs, final placement outcomes, inter-rack share and
// degraded-operation time -- quantifying how gracefully each policy
// absorbs capacity loss.
//
//   $ ./bench_extension_failures --threads=2
//   $ ./bench_extension_failures --emit_json   # writes BENCH_failures.json
#include <iostream>

#include "common/flags.hpp"
#include "core/registry.hpp"
#include "sim/experiments.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"

using namespace risa;

namespace {

/// Fail `boxes` random boxes once 1500 VMs have been admitted.
sim::FaultPlan fail_after_1500(std::uint32_t boxes, std::uint32_t retries) {
  sim::FaultPlan plan;
  sim::FaultAction fail;
  fail.kind = sim::FaultAction::Kind::Fail;
  fail.after_admissions = 1500;
  fail.random_boxes = boxes;
  plan.actions.push_back(fail);
  plan.seed = 99;  // victim-draw stream, independent of the workload seed
  if (retries > 0) {
    plan.retry.max_attempts = retries;
    plan.retry.delay_tu = 25.0;
  }
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("emit_json", "",
               "Write the unified sweep JSON to this file "
               "(BENCH_failures.json when given without a value)",
               "BENCH_failures.json");
  define_threads_flag(flags);
  if (!flags.parse_or_usage(argc, argv)) return 1;

  sim::SweepSpec spec;
  spec.scenarios = {{"paper", sim::Scenario::paper_defaults()}};
  spec.workloads = {sim::WorkloadSpec::azure("azure-3000")};
  spec.seeds = {sim::kDefaultSeed};
  spec.algorithms = core::algorithm_names();
  for (const std::uint32_t k : {2u, 6u, 12u}) {
    spec.fault_plans.emplace_back("fail" + std::to_string(k),
                                  fail_after_1500(k, 0));
  }
  // The requeue variant of the middle point: drops and kills get two
  // deferred re-placement attempts each.
  spec.fault_plans.emplace_back("fail6+retry", fail_after_1500(6, 2));

  const sim::SweepRunner runner(thread_count(flags));
  const auto results = runner.run(spec);

  std::cout << "=== Extension: resilience to box failures (Azure-3000, fail "
               "K boxes after 1500 admissions; "
            << results.size() << " cells on " << runner.threads()
            << " thread(s)) ===\n"
            << sim::lifecycle_table(results)
            << "RISA keeps placing VMs intra-rack around offline boxes (its "
               "pool simply excludes\nracks whose surviving boxes are too "
               "small); the baselines keep scheduling but at\ntheir usual "
               "inter-rack cost.  The retry plan recovers most drops/kills "
               "at the price\nof deferred placements.\n";

  const std::string json_path = flags.str("emit_json");
  if (!json_path.empty()) {
    if (!sim::write_sweep_json(json_path, "extension_failures", results)) {
      return 1;
    }
    std::cout << "wrote sweep JSON: " << json_path << '\n';
  }
  return 0;
}

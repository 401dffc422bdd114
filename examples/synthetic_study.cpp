// Synthetic-workload study (paper §5.1): runs NULB, NALB, RISA and RISA-BF
// over the 2500-VM random workload and reports the Figure 5 inter-rack
// counts, the §5.1 average utilizations, and scheduler timing.
//
//   $ ./synthetic_study [--seed=20231112] [--vms=2500] [--threads=N]
#include <iostream>

#include "common/flags.hpp"
#include "sim/experiments.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "workload/characterize.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  risa::Flags flags;
  flags.define_i64("seed", risa::sim::kDefaultSeed, "Workload RNG seed");
  flags.define_i64("vms", 2500, "Number of synthetic VMs");
  risa::define_threads_flag(flags);
  if (!flags.parse_or_usage(argc, argv)) return 1;

  const auto count = static_cast<std::size_t>(flags.i64("vms"));
  const auto seed = static_cast<std::uint64_t>(flags.i64("seed"));

  {
    risa::wl::SyntheticConfig config;
    config.count = count;
    const auto workload = risa::wl::generate_synthetic(config, seed);
    const auto summary = risa::wl::summarize(workload);
    std::cout << "Synthetic workload: " << summary.count << " VMs, mean "
              << summary.mean_cores << " cores / " << summary.mean_ram_gb
              << " GB RAM / " << summary.mean_storage_gb << " GB storage\n"
              << "arrivals span [" << summary.first_arrival << ", "
              << summary.last_arrival << "] tu, lifetimes ["
              << summary.min_lifetime << ", " << summary.max_lifetime
              << "] tu\n\n";
  }

  risa::sim::SweepSpec spec;
  spec.scenarios = {{"paper", risa::sim::Scenario::paper_defaults()}};
  spec.workloads = {risa::sim::WorkloadSpec::synthetic(count)};
  spec.seeds = {seed};
  spec.algorithms = risa::core::algorithm_names();
  const auto runs = risa::sim::metrics_of(
      risa::sim::SweepRunner(risa::thread_count(flags)).run(spec));

  std::cout << "Figure 5 -- inter-rack VM assignments:\n"
            << risa::sim::figure5_table(runs) << '\n'
            << "Average utilization (paper: CPU 64.66 / RAM 65.11 / STO 31.72):\n"
            << risa::sim::utilization_table(runs) << '\n'
            << "Figure 11 -- scheduler execution time shape:\n"
            << risa::sim::exec_time_table(runs, "fig11") << '\n'
            << "Full metrics:\n"
            << risa::sim::full_metrics_table(runs);
  return 0;
}

// Practical-workload study (paper §5.2): runs all four schedulers over the
// Azure-like subsets (3000/5000/7500 VMs) and prints the Figure 7-10 series:
// inter-rack percentage, network utilization, optical power and CPU-RAM
// round-trip latency.
//
//   $ ./azure_study [--seed=20231112] [--subset=all|3000|5000|7500]
//                   [--threads=N]
#include <iostream>

#include "common/flags.hpp"
#include "sim/experiments.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"

int main(int argc, char** argv) {
  risa::Flags flags;
  flags.define_i64("seed", risa::sim::kDefaultSeed, "Workload RNG seed");
  flags.define("subset", "all", "Which subset to run: all | 3000 | 5000 | 7500");
  risa::define_threads_flag(flags);
  if (!flags.parse_or_usage(argc, argv)) return 1;

  const auto seed = static_cast<std::uint64_t>(flags.i64("seed"));
  const std::string subset = flags.str("subset");

  risa::sim::SweepSpec spec;
  spec.scenarios = {{"paper", risa::sim::Scenario::paper_defaults()}};
  if (subset == "all") {
    spec.workloads = risa::sim::WorkloadSpec::azure_all();
  } else {
    try {
      spec.workloads = {risa::sim::WorkloadSpec::azure(subset)};
    } catch (const std::exception&) {
      std::cerr << "unknown subset '" << subset << "'\n";
      return 1;
    }
  }
  spec.seeds = {seed};
  spec.algorithms = risa::core::algorithm_names();

  const risa::sim::SweepRunner runner(risa::thread_count(flags));
  std::cout << "Running " << spec.workloads.size() << " subset(s) x "
            << spec.algorithms.size() << " algorithms on "
            << runner.threads() << " thread(s)...\n\n";
  const auto runs = risa::sim::metrics_of(runner.run(spec));

  std::cout << "Figure 7 -- % inter-rack VM assignments:\n"
            << risa::sim::figure7_table(runs) << '\n'
            << "Figure 8 -- network utilization:\n"
            << risa::sim::figure8_table(runs) << '\n'
            << "Figure 9 -- optical component power:\n"
            << risa::sim::figure9_table(runs) << '\n'
            << "Figure 10 -- average CPU-RAM round-trip latency:\n"
            << risa::sim::figure10_table(runs) << '\n'
            << "Figure 12 -- scheduler execution time shape:\n"
            << risa::sim::exec_time_table(runs, "fig12") << '\n'
            << "Full metrics:\n"
            << risa::sim::full_metrics_table(runs);
  return 0;
}

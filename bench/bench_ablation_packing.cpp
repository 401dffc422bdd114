// Ablation E-A2: intra-rack packing rule (next-fit = RISA, best-fit =
// RISA-BF) under tightening capacity pressure.  Sweeps the cluster size
// downward so packing quality becomes the binding factor, and reports
// placement rates.
#include <iostream>
#include <string>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "sim/experiments.hpp"
#include "sim/sweep.hpp"

using namespace risa;

int main(int argc, char** argv) {
  Flags flags;
  define_threads_flag(flags);
  if (!flags.parse_or_usage(argc, argv)) return 1;

  constexpr std::uint32_t kRacks[] = {18u, 14u, 12u, 10u, 8u};
  sim::SweepSpec spec;
  for (std::uint32_t racks : kRacks) {
    sim::Scenario scenario = sim::Scenario::paper_defaults();
    scenario.cluster.racks = racks;
    spec.scenarios.emplace_back(std::to_string(racks), scenario);
  }
  spec.workloads = {sim::WorkloadSpec::synthetic()};
  spec.seeds = {sim::kDefaultSeed};
  spec.algorithms = {"RISA", "RISA-BF"};
  const auto runs =
      sim::metrics_of(sim::SweepRunner(thread_count(flags)).run(spec));

  std::cout << "=== Ablation: intra-rack packing under capacity pressure "
               "(synthetic, 2500 VMs) ===\n";
  TextTable t({"Racks", "RISA placed", "RISA-BF placed", "RISA drops",
               "RISA-BF drops", "BF advantage"});
  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    const auto& nf = runs[spec.cell_index(s, 0, 0, 0)];
    const auto& bf = runs[spec.cell_index(s, 0, 0, 1)];
    const auto advantage = static_cast<std::int64_t>(bf.placed) -
                           static_cast<std::int64_t>(nf.placed);
    std::string signed_advantage = advantage >= 0 ? "+" : "";
    signed_advantage += std::to_string(advantage);
    t.add_row({spec.scenarios[s].first, std::to_string(nf.placed),
               std::to_string(bf.placed), std::to_string(nf.dropped),
               std::to_string(bf.dropped), signed_advantage});
  }
  std::cout << t
            << "At the paper's 18-rack scale the two variants are nearly "
               "identical, matching Figure 5's\n7-vs-2 near-tie.  Under "
               "dynamic churn best-fit does NOT dominate next-fit (it can "
               "even lose\nslightly -- a classic bin-packing result); its "
               "advantage is realized on adversarial static\nsequences, "
               "demonstrated by bench_toy_examples' corrected scenario.\n";
  return 0;
}

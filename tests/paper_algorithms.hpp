// The four paper algorithms over one workload, run the way the drivers run
// them: a serial SweepRunner over a one-workload WorkloadSpec::fixed matrix.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "sim/sweep.hpp"

namespace risa::sim {

/// Metrics of NULB, NALB, RISA and RISA-BF (paper order) on `workload`
/// under the paper scenario.  One lane, so each run's
/// scheduler_exec_seconds is timed with no other cell running.
inline std::vector<SimMetrics> run_paper_algorithms(wl::Workload workload,
                                                    std::string label) {
  SweepSpec spec;
  spec.scenarios = {{"paper", Scenario::paper_defaults()}};
  spec.workloads = {WorkloadSpec::fixed(std::move(label), std::move(workload))};
  spec.seeds = {0};  // a fixed workload ignores its seed
  spec.algorithms = core::algorithm_names();
  return metrics_of(SweepRunner(1).run(spec));
}

}  // namespace risa::sim

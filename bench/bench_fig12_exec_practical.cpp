// Figure 12: scheduler execution time on the Azure subsets
// (google-benchmark harness).
//
//   paper (Azure-7500): NULB 10361 s, NALB 15929 s, RISA 3679 s,
//   RISA-BF 4013 s -- RISA 2.81x faster than NULB, 4.33x faster than NALB.
//   reproduced claim: the ordering NALB > NULB > RISA-BF ~ RISA and the
//   growth with subset size.
// Driver mode: `--emit_json[=path]` additionally replays every (subset,
// algorithm) pair once with per-placement latency recording and writes the
// practical-workload scheduler baseline as JSON.
// `--threads N` controls the paper-shape summary sweep; it defaults to 1
// (serial) because this binary's whole point is timing fidelity, and the
// JSON baseline always runs serial regardless (see DESIGN.md §6).
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>

#include "common/flags.hpp"
#include "core/registry.hpp"
#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"

namespace {

const std::vector<std::pair<std::string, risa::wl::Workload>>& subsets() {
  static const auto w = risa::sim::azure_workloads();
  return w;
}

void run_case(benchmark::State& state, const char* algo, std::size_t subset) {
  const auto& [label, workload] = subsets()[subset];
  risa::sim::Engine engine(risa::sim::Scenario::paper_defaults(), algo);
  double sched_seconds = 0.0;
  for (auto _ : state) {
    const risa::sim::SimMetrics m = engine.run(workload, label);
    sched_seconds += m.scheduler_exec_seconds;
    benchmark::DoNotOptimize(m.placed);
  }
  state.counters["sched_s"] = benchmark::Counter(
      sched_seconds, benchmark::Counter::kAvgIterations);
  state.SetLabel(label);
}

void BM_Exec(benchmark::State& state) {
  static const char* kAlgos[] = {"NULB", "NALB", "RISA", "RISA-BF"};
  run_case(state, kAlgos[state.range(0)],
           static_cast<std::size_t>(state.range(1)));
}

// No hardcoded MinTime so --benchmark_min_time (CI smoke, baseline recipe)
// stays effective.
BENCHMARK(BM_Exec)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

risa::sim::SweepSpec fig12_spec() {
  risa::sim::SweepSpec spec;
  spec.scenarios = {{"paper", risa::sim::Scenario::paper_defaults()}};
  spec.workloads = risa::sim::WorkloadSpec::azure_all();
  spec.seeds = {risa::sim::kDefaultSeed};
  spec.algorithms = risa::core::algorithm_names();
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  risa::Flags flags;
  flags.define("emit_json", "",
               "Write the scheduler perf baseline JSON to this path",
               "BENCH_scheduler_practical.json");
  risa::define_threads_flag(flags, /*default_value=*/1);
  if (!flags.parse_benchmark_or_usage(argc, argv)) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::string json_path = flags.str("emit_json");
  const int threads = risa::thread_count(flags);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const auto runs = risa::sim::metrics_of(
      risa::sim::SweepRunner(threads).run(fig12_spec()));
  std::cout << "\n=== Figure 12: scheduler execution time, practical ===\n"
            << risa::sim::exec_time_table(runs, "fig12");

  if (!json_path.empty()) {
    risa::sim::SweepSpec spec = fig12_spec();
    spec.record_latency = true;
    const auto entries = risa::sim::scheduler_bench_entries(
        risa::sim::SweepRunner(1).run(spec));
    if (!risa::sim::write_scheduler_bench_json(
            json_path, "fig12_exec_practical", entries)) {
      return 1;
    }
    std::cout << "\nwrote scheduler baseline: " << json_path << "\n";
  }
  return 0;
}

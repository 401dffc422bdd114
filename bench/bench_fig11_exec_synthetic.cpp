// Figure 11: scheduler execution time on the synthetic workload
// (google-benchmark harness).
//
//   paper (AMD Ryzen 7 2700X): NULB 233 s, NALB 865 s, RISA 111 s,
//   RISA-BF 112 s -- i.e. NALB ~7.8x RISA, NULB ~2.1x RISA.
//   reproduced claim is the ORDERING and rough ratios, not absolute time
//   (this implementation is C++ and orders of magnitude faster).
//
// Each benchmark replays the full 2500-VM discrete-event simulation; the
// `sched_s` counter isolates time spent inside Allocator::try_place, which
// is what the paper's figure measures.
// Driver mode: `--emit_json[=path]` additionally replays every algorithm
// once with per-placement latency recording and writes the scheduler perf
// baseline (sched_s, placements/sec, p50/p99 latency) as JSON -- the
// committed BENCH_scheduler.json is produced this way.
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

const risa::wl::Workload& workload() {
  static const risa::wl::Workload w = risa::sim::synthetic_workload();
  return w;
}

void run_algorithm(benchmark::State& state, const char* algo) {
  risa::sim::Engine engine(risa::sim::Scenario::paper_defaults(), algo);
  double sched_seconds = 0.0;
  std::uint64_t placed = 0;
  for (auto _ : state) {
    const risa::sim::SimMetrics m = engine.run(workload(), "Synthetic");
    sched_seconds += m.scheduler_exec_seconds;
    placed = m.placed;
    benchmark::DoNotOptimize(m.placed);
  }
  state.counters["sched_s"] = benchmark::Counter(
      sched_seconds, benchmark::Counter::kAvgIterations);
  state.counters["placed"] = static_cast<double>(placed);
}

void BM_Nulb(benchmark::State& s) { run_algorithm(s, "NULB"); }
void BM_Nalb(benchmark::State& s) { run_algorithm(s, "NALB"); }
void BM_Risa(benchmark::State& s) { run_algorithm(s, "RISA"); }
void BM_RisaBf(benchmark::State& s) { run_algorithm(s, "RISA-BF"); }

// No hardcoded MinTime: google-benchmark gives per-benchmark MinTime()
// precedence over --benchmark_min_time, which would make the CI smoke cap
// (and the DESIGN.md 0.25s baseline recipe) silently ineffective.
BENCHMARK(BM_Nulb)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Nalb)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Risa)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RisaBf)->Unit(benchmark::kMillisecond);

risa::sim::SweepSpec fig11_spec() {
  risa::sim::SweepSpec spec;
  spec.scenarios = {{"paper", risa::sim::Scenario::paper_defaults()}};
  spec.workloads = {risa::sim::WorkloadSpec::synthetic()};
  spec.seeds = {risa::sim::kDefaultSeed};
  spec.algorithms = risa::core::algorithm_names();
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  risa::Flags flags;
  flags.define("emit_json", "",
               "Write the scheduler perf baseline JSON to this path",
               "BENCH_scheduler.json");
  risa::define_threads_flag(flags, /*default_value=*/1);
  if (!flags.parse_benchmark_or_usage(argc, argv)) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::string json_path = flags.str("emit_json");
  const int threads = risa::thread_count(flags);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Paper-shape summary from one clean sweep (serial by default: this
  // table reports per-cell scheduler wall-clock).
  const auto runs = risa::sim::metrics_of(
      risa::sim::SweepRunner(threads).run(fig11_spec()));
  std::cout << "\n=== Figure 11: scheduler execution time, synthetic ===\n"
            << risa::sim::exec_time_table(runs, "fig11");

  if (!json_path.empty()) {
    // The committed baseline always comes from a serial latency-recording
    // sweep so sched_s / p50 / p99 are free of cross-cell interference.
    risa::sim::SweepSpec spec = fig11_spec();
    spec.record_latency = true;
    const auto entries = risa::sim::scheduler_bench_entries(
        risa::sim::SweepRunner(1).run(spec));
    if (!risa::sim::write_scheduler_bench_json(json_path,
                                               "fig11_exec_synthetic", entries)) {
      return 1;
    }
    std::cout << "\nwrote scheduler baseline: " << json_path << "\n";
  }
  return 0;
}

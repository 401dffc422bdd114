// Engine-scale churn: end-to-end DES throughput as the workload grows
// from 10k to 500k VMs (google-benchmark harness); the committed baseline
// additionally measures a 5M-VM row.
//
// Where Figures 11/12 isolate the *policy* (sched_s = time inside
// Allocator::try_place), this bench measures the *dispatch loop* around
// it: sim_s (whole Engine::run wall time) and events/sec (one event per
// arrival plus one per departure).  Under the paper's arrival process the
// live-VM census is bounded (by lifetime/interarrival, and past ~10k VMs
// by cluster capacity -- the cluster saturates and placements ride on
// departures), so larger N means a longer steady-state churn phase at the
// same heap depth -- exactly the regime the typed calendar + arrival
// cursor design targets (DESIGN.md §7).
//
// Driver mode: `--emit_json[=path]` replays every (count x algorithm)
// cell through a serial latency-recording sweep and writes the committed
// BENCH_engine.json baseline via the unified emitter.  One unrecorded
// warmup sweep always runs first (page faults, allocator pools and the
// workload cache land outside the measurement), and `--repeat=N` measures
// N recorded sweeps keeping each cell's best (lowest sim_s) -- placement
// counts must be identical across repeats or the driver aborts, so the
// baseline stays a determinism witness.
// CI smoke: `--benchmark_filter=10000$ --benchmark_min_time=...` runs
// just the smallest count per algorithm.
//
// Streaming mode: `--streaming[=COUNT]` (default 10M VMs) replaces the
// interactive grid with pull-based Engine::run_stream rows at 500k VMs
// (the materialized-comparison point) and COUNT VMs, recording peak RSS
// (VmHWM from /proc/self/status) per row.  Streaming rows execute before
// anything materializes a workload, so the process-wide high-water mark
// they record is genuinely the streaming pipeline's.  Each row also
// records source_s -- the stream drained standalone -- because sim_s in a
// pull run includes on-the-fly synthesis that materialized rows pay
// before their timer starts; events / (sim_s - source_s) is the
// apples-to-apples engine throughput (Engine::run and run_stream share
// one loop, so the pipeline itself adds no per-event work).  `--rss_limit_mb=N`
// exits nonzero when the post-streaming VmHWM exceeds N (the CI bounded-
// memory assertion), and `--rss` prints the final VmHWM for any mode.
// With `--emit_json`, streaming rows are appended to the committed
// baseline after the materialized grid.
//
// `--trace[=PATH]` (default bench_engine_trace.json) runs one extra
// telemetry-armed 500k streaming row at the very end -- outside every
// timed window, so the measured rows stay a fair disabled-path baseline
// (the CI telemetry job compares a traced risa_cli run against them).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.hpp"
#include "common/histogram.hpp"
#include "common/string_util.hpp"
#include "core/registry.hpp"
#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "sim/telemetry.hpp"
#include "workload/arrival_source.hpp"
#include "workload/synthetic.hpp"

namespace {

constexpr std::size_t kScaleCounts[] = {10'000, 50'000, 100'000, 500'000};

/// Driver-mode grid: the committed baseline additionally carries a 5M-VM
/// row (events scale 10x past the largest interactive count; the live-VM
/// census stays cluster-bounded, so this probes the long steady-state
/// churn phase, not a bigger heap).  Kept out of the google-benchmark grid
/// to keep interactive runs quick.
constexpr std::size_t kBaselineCounts[] = {10'000, 50'000, 100'000, 500'000,
                                           5'000'000};

const risa::wl::Workload& workload(std::size_t count) {
  static std::map<std::size_t, risa::wl::Workload> cache;
  auto it = cache.find(count);
  if (it == cache.end()) {
    risa::wl::SyntheticConfig cfg;
    cfg.count = count;
    it = cache.emplace(count, risa::wl::generate_synthetic(
                                  cfg, risa::sim::kDefaultSeed)).first;
  }
  return it->second;
}

std::string scale_label(std::size_t count) {
  return "synthetic-" + std::to_string(count);
}

void run_churn(benchmark::State& state, const char* algo) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const risa::wl::Workload& w = workload(count);
  risa::sim::Engine engine(risa::sim::Scenario::paper_defaults(), algo);
  // One unmeasured warmup run: the engine's pools/calendars reach their
  // high-water marks, so measured iterations see the steady-state reuse
  // path (and first-touch page faults stay out of the numbers).
  { const auto warm = engine.run(w, scale_label(count)); benchmark::DoNotOptimize(warm.placed); }
  double sim_seconds = 0.0;
  double sched_seconds = 0.0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const risa::sim::SimMetrics m = engine.run(w, scale_label(count));
    sim_seconds += m.sim_wall_seconds;
    sched_seconds += m.scheduler_exec_seconds;
    events = m.events_executed;
    benchmark::DoNotOptimize(m.placed);
  }
  state.counters["sim_s"] =
      benchmark::Counter(sim_seconds, benchmark::Counter::kAvgIterations);
  state.counters["sched_s"] =
      benchmark::Counter(sched_seconds, benchmark::Counter::kAvgIterations);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events) * static_cast<double>(state.iterations()) /
          sim_seconds,
      benchmark::Counter::kDefaults);
}

void BM_Churn_Nulb(benchmark::State& s) { run_churn(s, "NULB"); }
void BM_Churn_Nalb(benchmark::State& s) { run_churn(s, "NALB"); }
void BM_Churn_Risa(benchmark::State& s) { run_churn(s, "RISA"); }
void BM_Churn_RisaBf(benchmark::State& s) { run_churn(s, "RISA-BF"); }

void scale_args(benchmark::internal::Benchmark* b) {
  for (std::size_t count : kScaleCounts) {
    b->Arg(static_cast<std::int64_t>(count));
  }
  b->Unit(benchmark::kMillisecond);
}

// No hardcoded MinTime (see bench_fig11): the CI smoke cap must win.
BENCHMARK(BM_Churn_Nulb)->Apply(scale_args);
BENCHMARK(BM_Churn_Nalb)->Apply(scale_args);
BENCHMARK(BM_Churn_Risa)->Apply(scale_args);
BENCHMARK(BM_Churn_RisaBf)->Apply(scale_args);

/// The --profile rider: per-phase wall-time delta of a freshly measured
/// row against the committed baseline, so a perf PR's attribution shift is
/// visible in the bench output itself (phases the baseline predates --
/// e.g. `merge` before §13 -- are marked "new").
void print_profile_delta(
    const risa::sim::SchedulerBenchEntry& e,
    const std::vector<risa::sim::SchedulerBenchEntry>& baseline,
    const std::string& baseline_path) {
  const auto base = std::find_if(
      baseline.begin(), baseline.end(), [&](const auto& b) {
        return b.workload == e.workload && b.algorithm == e.algorithm;
      });
  if (base == baseline.end()) return;
  std::cout << "  delta vs " << baseline_path << ":";
  for (std::size_t p = 0; p < risa::sim::kNumPhases; ++p) {
    std::cout << " " << risa::sim::kPhaseNames[p] << "=";
    const double was = base->profile.seconds[p];
    if (base->profile.recorded && !std::isnan(was)) {
      const double d = e.profile.seconds[p] - was;
      std::cout << (d >= 0.0 ? "+" : "") << d;
    } else {
      std::cout << "+" << e.profile.seconds[p] << "(new)";
    }
  }
  std::cout << " | sim_s " << base->sim_s << "->" << e.sim_s;
  if (base->events_per_sec > 0.0) {
    const double pct =
        100.0 * (e.events_per_sec / base->events_per_sec - 1.0);
    std::cout << " events_per_sec " << (pct >= 0.0 ? "+" : "") << pct << "%";
  }
  std::cout << "\n";
}

/// Process-wide peak resident set (VmHWM) in MB, or -1 when unreadable.
/// Monotone over the process lifetime -- which is exactly why the streaming
/// rows run before anything materializes a workload.
double read_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const std::string_view kb = std::string_view(line).substr(6);
      return static_cast<double>(risa::parse_i64(kb.substr(0, kb.find("kB")))) /
             1024.0;  // value is in kB
    }
  }
  return -1.0;
}

/// One streaming row: a pull-based run over the on-demand synthetic
/// generator with the bounded Log2Histogram as the latency sink (a vector
/// sink would itself be O(N) memory and defeat the measurement).
risa::sim::SchedulerBenchEntry run_streaming_row(const std::string& algo,
                                                 std::size_t count,
                                                 bool profile) {
  risa::sim::Engine engine(risa::sim::Scenario::paper_defaults(), algo);
  engine.set_profiling(profile);
  risa::wl::SyntheticConfig cfg;
  {
    // Unmeasured warmup at 100k: pools and calendars reach their
    // cluster-bounded high-water marks outside the timed run.
    cfg.count = 100'000;
    risa::wl::SyntheticStreamSource warm(cfg, risa::sim::kDefaultSeed);
    const auto m = engine.run_stream(warm, "warmup");
    benchmark::DoNotOptimize(m.placed);
  }
  cfg.count = count;
  risa::wl::SyntheticStreamSource source(cfg, risa::sim::kDefaultSeed);
  risa::Log2Histogram latency;
  // Best of two recorded runs, mirroring the materialized grid's
  // warmup-then-measure discipline (run_stream rewinds the source; the
  // second run rides the engine's steady-state reuse path).  Counts are
  // deterministic, so keeping the faster run only picks wall-clock.
  engine.set_latency_histogram(&latency);
  risa::sim::SimMetrics m =
      engine.run_stream(source, scale_label(count) + "-stream");
  latency.clear();
  const risa::sim::SimMetrics again =
      engine.run_stream(source, scale_label(count) + "-stream");
  if (again.sim_wall_seconds < m.sim_wall_seconds) m = again;
  engine.set_latency_histogram(nullptr);

  risa::sim::SchedulerBenchEntry e;
  e.workload = m.workload;
  e.algorithm = m.algorithm;
  e.total_vms = m.total_vms;
  e.placed = m.placed;
  e.dropped = m.dropped;
  e.inter_rack = m.inter_rack_placements;
  e.sched_s = m.scheduler_exec_seconds;
  e.placements_per_sec =
      e.sched_s > 0.0 ? static_cast<double>(m.total_vms) / e.sched_s : 0.0;
  e.sim_s = m.sim_wall_seconds;
  e.events_per_sec = m.events_per_sec();
  if (latency.total() > 0) {
    e.p50_ns = latency.percentile(50.0);
    e.p99_ns = latency.percentile(99.0);
  }
  e.profile = m.profile;  // from the kept (faster) run; empty when not asked
  // The generator's own synthesis cost, measured by draining the same
  // stream without the engine.  sim_s above *includes* it (a pull run
  // synthesizes arrivals inside the timed window; a materialized row pays
  // generation before its timer starts), so the engine-only throughput
  // comparable with the materialized grid is events / (sim_s - source_s).
  {
    std::array<risa::wl::ArrivalItem, 1024> buf;
    double best = -1.0;
    for (int rep = 0; rep < 2; ++rep) {
      source.rewind();
      const auto t0 = std::chrono::steady_clock::now();
      while (const std::size_t n = source.next_batch(buf)) {
        benchmark::DoNotOptimize(buf[n - 1].index);
      }
      const double s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (best < 0.0 || s < best) best = s;
    }
    e.source_s = best;
  }
  e.peak_rss_mb = read_peak_rss_mb();
  return e;
}

/// The streaming grid: the 500k materialized-comparison point plus the
/// headline `big_count` row, per algorithm (workload outer, algorithm
/// inner, matching the baseline's row order).
std::vector<risa::sim::SchedulerBenchEntry> run_streaming_rows(
    std::size_t big_count, bool profile,
    const std::vector<risa::sim::SchedulerBenchEntry>& baseline,
    const std::string& baseline_path) {
  std::vector<risa::sim::SchedulerBenchEntry> rows;
  std::vector<std::size_t> counts = {500'000};
  if (big_count != 500'000) counts.push_back(big_count);
  for (std::size_t count : counts) {
    for (const std::string& algo : risa::core::algorithm_names()) {
      rows.push_back(run_streaming_row(algo, count, profile));
      const risa::sim::SchedulerBenchEntry& e = rows.back();
      // engine_only backs the synthesis seconds out of the timed window,
      // making the figure comparable with the materialized grid (which
      // pays generation before its timer starts).
      const double engine_s = std::max(e.sim_s - e.source_s, 1e-9);
      std::cout << e.workload << " " << e.algorithm << ": events_per_sec="
                << static_cast<std::uint64_t>(e.events_per_sec)
                << " engine_only="
                << static_cast<std::uint64_t>(e.events_per_sec * e.sim_s /
                                              engine_s)
                << " sim_s=" << e.sim_s << " source_s=" << e.source_s
                << " peak_rss_mb=" << e.peak_rss_mb << "\n";
      if (e.profile.recorded) {
        std::cout << "  profile:";
        for (std::size_t p = 0; p < risa::sim::kNumPhases; ++p) {
          std::cout << " " << risa::sim::kPhaseNames[p] << "="
                    << e.profile.seconds[p];
        }
        std::cout << " (sum=" << e.profile.total() << " of sim_s=" << e.sim_s
                  << ")\n";
        print_profile_delta(e, baseline, baseline_path);
      }
    }
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  risa::Flags flags;
  flags.define("emit_json", "", "Write the engine-scale baseline JSON here",
               "BENCH_engine.json");
  flags.define_i64("repeat", 1,
                   "Recorded baseline sweeps; each cell keeps its best sim_s");
  flags.define_i64("streaming", 0,
                   "Run the pull-based streaming rows at 500k and this many "
                   "VMs instead of the interactive grid (0 = off)",
                   10'000'000);
  flags.define_i64("rss_limit_mb", 0,
                   "Fail when the streaming peak RSS exceeds this (0 = off)");
  flags.define("rss", "false", "Print the final peak RSS");
  flags.define("profile", "false",
               "Record the phase profile and check and diff it per row");
  flags.define_i64("events_floor", 0,
                   "Fail when a headline streaming row runs below this many "
                   "events/s (0 = off)");
  flags.define("baseline", "BENCH_engine.json",
               "Committed baseline the --profile rows are diffed against",
               "BENCH_engine.json");
  flags.define("trace", "",
               "Run one traced 500k streaming row last and write its trace "
               "here",
               "bench_engine_trace.json");
  if (!flags.parse_benchmark_or_usage(argc, argv)) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::string json_path = flags.str("emit_json");
  const auto repeats = std::max<std::int64_t>(flags.i64("repeat"), 1);
  const std::int64_t streaming_count = flags.i64("streaming");
  const std::int64_t rss_limit_mb = flags.i64("rss_limit_mb");
  const bool profile = flags.b("profile");
  const std::int64_t events_floor = flags.i64("events_floor");
  const std::string baseline_path = flags.str("baseline");
  const std::string trace_path = flags.str("trace");

  // Load the committed baseline once for the --profile delta rider; a
  // missing file just disables the diff (fresh clones, renamed baselines).
  std::vector<risa::sim::SchedulerBenchEntry> baseline;
  if (profile) {
    std::ifstream in(baseline_path);
    try {
      if (in.good()) baseline = risa::sim::read_scheduler_bench_json(in);
    } catch (const std::runtime_error& err) {
      std::cerr << "bench_engine_scale: " << baseline_path << ": "
                << err.what() << "\n";
      return 1;
    }
  }

  // Streaming rows first: VmHWM is process-wide and monotone, so they must
  // run before the interactive grid / baseline sweep materializes anything.
  std::vector<risa::sim::SchedulerBenchEntry> streaming_rows;
  if (streaming_count > 0) {
    streaming_rows = run_streaming_rows(
        static_cast<std::size_t>(streaming_count), profile, baseline,
        baseline_path);
    const double peak = read_peak_rss_mb();
    if (rss_limit_mb > 0 && !(peak >= 0.0 && peak <= static_cast<double>(rss_limit_mb))) {
      std::cerr << "bench_engine_scale: streaming peak RSS " << peak
                << " MB exceeds limit " << rss_limit_mb << " MB\n";
      return 1;
    }
    if (profile) {
      // CI smoke contract: a recorded profile with any negative phase or a
      // phase sum past the measured wall time means the span accounting
      // broke (the spans are exclusive, so sum <= sim_s by construction).
      // On the headline rows the sum must also cover >= 90% of sim_s with
      // the merge phase present -- the honest-attribution floor: §13's
      // Merge span exists precisely so the loop's residual scaffolding is
      // measured instead of vanishing into the sum-vs-wall gap.
      const std::string headline =
          scale_label(static_cast<std::size_t>(streaming_count)) + "-stream";
      for (const risa::sim::SchedulerBenchEntry& e : streaming_rows) {
        if (!e.profile.recorded) {
          std::cerr << "bench_engine_scale: --profile row missing profile\n";
          return 1;
        }
        for (double s : e.profile.seconds) {
          if (!(s >= 0.0)) {
            std::cerr << "bench_engine_scale: negative profile phase\n";
            return 1;
          }
        }
        if (e.profile.total() > e.sim_s * 1.001) {
          std::cerr << "bench_engine_scale: profile sum " << e.profile.total()
                    << " exceeds sim_s " << e.sim_s << "\n";
          return 1;
        }
        if (e.workload != headline) continue;
        if (!(e.profile[risa::sim::Phase::Merge] > 0.0)) {
          std::cerr << "bench_engine_scale: " << e.workload << " "
                    << e.algorithm << " recorded no merge-phase time\n";
          return 1;
        }
        if (e.profile.total() < 0.90 * e.sim_s) {
          std::cerr << "bench_engine_scale: " << e.workload << " "
                    << e.algorithm << " attributed only " << e.profile.total()
                    << " of sim_s " << e.sim_s << " (< 90%)\n";
          return 1;
        }
      }
    }
    if (events_floor > 0) {
      // Throughput floor over the headline-count rows (the 10M churn smoke
      // in CI): a regression past the floor fails the job.
      const std::string headline =
          scale_label(static_cast<std::size_t>(streaming_count)) + "-stream";
      for (const risa::sim::SchedulerBenchEntry& e : streaming_rows) {
        if (e.workload != headline) continue;
        if (e.events_per_sec < static_cast<double>(events_floor)) {
          std::cerr << "bench_engine_scale: " << e.workload << " "
                    << e.algorithm << " events_per_sec " << e.events_per_sec
                    << " below floor " << events_floor << "\n";
          return 1;
        }
      }
    }
  } else if (rss_limit_mb > 0 || events_floor > 0) {
    std::cerr << "bench_engine_scale: --rss_limit_mb/--events_floor require "
                 "--streaming\n";
    return 1;
  }

  if (streaming_count <= 0) {
    // Streaming mode is a driver mode: it replaces the interactive grid
    // (whose materialized workload cache would dwarf the streaming RSS).
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }

  if (!json_path.empty()) {
    // The committed baseline comes from serial latency-recording sweeps
    // (SweepRunner(1)): each cell's sim_s/sched_s is measured alone, so the
    // JSON is comparable run to run (DESIGN.md §5-6).
    risa::sim::SweepSpec spec;
    spec.scenarios = {{"paper", risa::sim::Scenario::paper_defaults()}};
    for (std::size_t count : kBaselineCounts) {
      spec.workloads.push_back(risa::sim::WorkloadSpec::fixed(
          scale_label(count), workload(count)));
    }
    spec.seeds = {risa::sim::kDefaultSeed};
    spec.algorithms = risa::core::algorithm_names();
    spec.record_latency = true;
    spec.record_profile = profile;

    // Warmup sweep (unrecorded), then best-of-N recorded sweeps.  Counts
    // must be byte-identical across repeats -- only the wall-clock fields
    // may differ -- which doubles as a determinism check on the whole grid.
    (void)risa::sim::SweepRunner(1).run(spec);
    auto entries =
        risa::sim::scheduler_bench_entries(risa::sim::SweepRunner(1).run(spec));
    for (std::int64_t rep = 1; rep < repeats; ++rep) {
      const auto again = risa::sim::scheduler_bench_entries(
          risa::sim::SweepRunner(1).run(spec));
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (again[i].placed != entries[i].placed ||
            again[i].dropped != entries[i].dropped ||
            again[i].inter_rack != entries[i].inter_rack) {
          throw std::logic_error(
              "bench_engine_scale: placement counts diverged across repeats");
        }
        if (again[i].sim_s < entries[i].sim_s) entries[i] = again[i];
      }
    }
    // Streaming rows ride along after the materialized grid (single-shot:
    // they were measured before anything materialized, so repeating them
    // here would record a polluted RSS high-water mark).
    entries.insert(entries.end(), streaming_rows.begin(), streaming_rows.end());
    if (!risa::sim::write_scheduler_bench_json(json_path, "engine_scale_churn",
                                               entries)) {
      return 1;
    }
    std::cout << "\nwrote engine-scale baseline: " << json_path << " (best of "
              << repeats << ")\n";
  }
  if (!trace_path.empty()) {
    // One telemetry-armed 500k streaming row, deliberately last: every
    // timed measurement above ran with the disabled (null-pointer) path,
    // so the trace costs nothing they could have absorbed.
    risa::sim::TelemetryConfig cfg;
    cfg.trace_path = trace_path;
    risa::sim::Telemetry tel(cfg);
    risa::sim::Engine engine(risa::sim::Scenario::paper_defaults(), "RISA");
    engine.set_telemetry(&tel);
    risa::wl::SyntheticConfig wcfg;
    wcfg.count = 500'000;
    risa::wl::SyntheticStreamSource source(wcfg, risa::sim::kDefaultSeed);
    const auto m = engine.run_stream(source, scale_label(500'000) + "-stream");
    engine.set_telemetry(nullptr);
    tel.close();
    std::cout << "traced run: " << m.events_executed << " sim events -> "
              << trace_path << " (" << tel.writer().emitted()
              << " trace events, " << tel.writer().dropped()
              << " overflow-dropped)\n";
  }
  if (flags.b("rss")) {
    std::cout << "peak_rss_mb: " << read_peak_rss_mb() << "\n";
  }
  return 0;
}

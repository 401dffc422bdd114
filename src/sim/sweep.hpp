// The scenario-sweep layer: turns "one engine, one run" into "a
// deterministic matrix of (scenario x workload x seed x algorithm) cells
// executed on a thread pool".
//
// Determinism contract: every cell is a self-contained computation -- its
// workload is generated from the cell's own seed (no shared RNG stream is
// consumed across cells), the engine it runs on is reset to a pristine
// state first, and its result is written to a slot owned by that cell
// alone.  SweepRunner therefore yields byte-identical SimMetrics at every
// thread count, including 1 (the single timing field,
// scheduler_exec_seconds, is wall-clock and excluded from that contract;
// see metrics_fingerprint).  Per-cell scheduler timing itself stays valid
// under the pool because each cell's discrete-event loop -- including the
// timed Allocator::place section -- executes on exactly one thread;
// drivers reproducing Figures 11/12 run the sweep serially so concurrent
// cells cannot inflate each other's wall-clock either (DESIGN.md §6).
//
// Engine pooling: each worker lane owns one reusable Engine, rebound to a
// cell's algorithm via set_algorithm (allocator swap, no topology rebuild)
// and rebuilt only when the lane crosses into a different scenario.  Cells
// are expanded scenario-major so lanes cross scenarios O(scenarios) times,
// not O(cells).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"
#include "sim/telemetry.hpp"
#include "workload/vm.hpp"

namespace risa::sim {

/// A named workload generator.  `generate` must be a pure function of the
/// seed (thread-safe by construction: each call owns its RNG), which is
/// what makes the per-cell seeding scheme deterministic under threading.
struct WorkloadSpec {
  std::string label;
  std::function<wl::Workload(std::uint64_t seed)> generate;

  /// The paper's 2500-VM synthetic random workload (§5.1); `count`
  /// overrides the VM count when positive.
  [[nodiscard]] static WorkloadSpec synthetic(std::size_t count = 0);
  /// One Azure-like subset (§5.2): "azure-3000" | "azure-5000" |
  /// "azure-7500" (matching by label substring, case-insensitive).
  [[nodiscard]] static WorkloadSpec azure(const std::string& subset);
  /// All three Azure-like subsets in paper order.
  [[nodiscard]] static std::vector<WorkloadSpec> azure_all();
  /// A pre-materialized workload; the seed is ignored.  The workload is
  /// shared (read-only) across all cells that use it.
  [[nodiscard]] static WorkloadSpec fixed(std::string label, wl::Workload w);
};

/// The declarative matrix.  Cells expand in scenario-major order:
///   for scenario / for workload / for seed / for fault plan /
///   for migration plan / for algorithm
/// which keeps per-lane engine rebuilds rare and matches the row order the
/// paper's figure tables print (workload outer, algorithm inner).
struct SweepSpec {
  std::vector<std::pair<std::string, Scenario>> scenarios;
  std::vector<WorkloadSpec> workloads;
  std::vector<std::uint64_t> seeds;
  std::vector<std::string> algorithms;
  /// Optional labeled fault-plan axis (DESIGN.md §8).  Empty (the usual
  /// case) leaves every scenario's own plan in force and contributes no
  /// axis factor, so existing specs and cell indices are unchanged.  When
  /// nonempty, each cell's plan *overrides* the scenario's -- one engine
  /// stack per lane serves every plan (no topology rebuild), and fault
  /// matrices inherit the bit-exact thread-count determinism because the
  /// plan's RNG stream is private to the cell's run.
  std::vector<std::pair<std::string, FaultPlan>> fault_plans;
  /// Optional labeled migration-plan axis (DESIGN.md §9), with exactly the
  /// same override/axis-factor semantics as fault_plans.  The natural
  /// defragmentation study is {"none", MigrationPlan{}} next to budgeted
  /// variants: the empty plan reproduces the fault-only run bit-for-bit.
  std::vector<std::pair<std::string, MigrationPlan>> migration_plans;
  bool record_latency = false;   ///< fill SweepResult::latency per cell
  /// Enable the phase-attributed profiler (sim/phase_profiler.hpp) for
  /// every cell: SimMetrics::profile reports where each run's wall time
  /// went.  Wall-clock measurement only -- cell results stay bit-identical
  /// with it on or off (the profile is excluded from metrics_fingerprint
  /// like scheduler_exec_seconds).
  bool record_profile = false;
  /// Per-cell run traces (DESIGN.md §14).  When nonempty, every cell runs
  /// with a private Telemetry writing
  ///   <trace_dir>/cell<i>.<workload>.<algorithm>.trace.json
  /// (labels sanitized to [A-Za-z0-9_-]).  The directory must exist.
  /// Observation only: cell metrics and fingerprints are byte-identical
  /// with tracing on or off, at any thread count.
  std::string trace_dir;
  /// Template config for per-cell telemetry (trace_path is overridden per
  /// cell as above); used only when trace_dir is set.
  TelemetryConfig telemetry;

  void validate() const;

  /// Fault-axis factor: 1 when the axis is unused.
  [[nodiscard]] std::size_t fault_count() const noexcept {
    return fault_plans.empty() ? 1 : fault_plans.size();
  }

  /// Migration-axis factor: 1 when the axis is unused.
  [[nodiscard]] std::size_t migration_count() const noexcept {
    return migration_plans.empty() ? 1 : migration_plans.size();
  }

  [[nodiscard]] std::size_t cell_count() const noexcept {
    return scenarios.size() * workloads.size() * seeds.size() *
           fault_count() * migration_count() * algorithms.size();
  }

  /// Flat index of one cell in expansion (= result) order.
  [[nodiscard]] std::size_t cell_index(std::size_t scenario,
                                       std::size_t workload, std::size_t seed,
                                       std::size_t fault,
                                       std::size_t migration,
                                       std::size_t algorithm) const noexcept {
    return ((((scenario * workloads.size() + workload) * seeds.size() + seed) *
                 fault_count() +
             fault) *
                migration_count() +
            migration) *
               algorithms.size() +
           algorithm;
  }

  /// Four-axis form (fault + migration axes unused or index 0).
  [[nodiscard]] std::size_t cell_index(std::size_t scenario,
                                       std::size_t workload, std::size_t seed,
                                       std::size_t algorithm) const noexcept {
    return cell_index(scenario, workload, seed, 0, 0, algorithm);
  }

  /// The full figure-suite matrix (Figures 5, 7-12 + §5.1 text): the paper
  /// scenario, all four algorithms, Synthetic + the three Azure subsets.
  [[nodiscard]] static SweepSpec figure_matrix(
      std::uint64_t seed /* = kDefaultSeed (sim/experiments.hpp) */);
};

/// One executed cell, in expansion order.
struct SweepResult {
  std::size_t cell = 0;  ///< flat index (== position in the result vector)
  std::size_t scenario_index = 0;
  std::size_t workload_index = 0;
  std::size_t seed_index = 0;
  std::size_t fault_index = 0;
  std::size_t migration_index = 0;
  std::size_t algorithm_index = 0;
  std::string scenario;   ///< scenario label
  std::string fault_plan; ///< fault-plan label ("none" when axis unused)
  std::string migration_plan;  ///< migration-plan label ("none" when unused)
  std::uint64_t seed = 0; ///< the cell's seed (workload RNG stream root)
  SimMetrics metrics;     ///< carries the workload label and algorithm name
  /// Per-placement place() latency in ns (arrivals and retries), filled
  /// when record_latency.
  Log2Histogram latency;
};

class SweepRunner {
 public:
  /// `threads` <= 0 resolves via default_thread_count() (RISA_THREADS env
  /// override, else hardware concurrency).  Pass 1 for timing-faithful
  /// serial execution (Figures 11/12).
  explicit SweepRunner(int threads = 0);

  [[nodiscard]] int threads() const noexcept { return threads_; }

  /// Execute every cell; results are indexed by SweepSpec::cell_index and
  /// independent of the thread count.  Throws the first worker exception.
  [[nodiscard]] std::vector<SweepResult> run(const SweepSpec& spec) const;

 private:
  int threads_;
};

/// Extract just the metrics, in cell order -- the shape the report tables
/// consume.
[[nodiscard]] std::vector<SimMetrics> metrics_of(
    const std::vector<SweepResult>& results);

/// Canonical bit-exact digest of one SimMetrics, excluding the wall-clock
/// field scheduler_exec_seconds (doubles are rendered from their IEEE-754
/// bit patterns, so two digests match iff the metrics match bit-for-bit).
/// Used by the determinism tests and available to drivers for run-to-run
/// verification.
[[nodiscard]] std::string metrics_fingerprint(const SimMetrics& m);

}  // namespace risa::sim

// Report rendering: turns SimMetrics into the paper-style tables the bench
// harness prints ("measured" next to "paper" for every figure).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "workload/vm.hpp"

namespace risa::sim {

/// Figure 5: inter-rack VM assignment counts (one workload, all algorithms).
[[nodiscard]] TextTable figure5_table(const std::vector<SimMetrics>& runs);

/// Figure 7: % inter-rack assignments (several workloads x algorithms).
[[nodiscard]] TextTable figure7_table(const std::vector<SimMetrics>& runs);

/// Figure 8: intra- and inter-rack network utilization.
[[nodiscard]] TextTable figure8_table(const std::vector<SimMetrics>& runs);

/// Figure 9: optical-component power (kW).
[[nodiscard]] TextTable figure9_table(const std::vector<SimMetrics>& runs);

/// Figure 9's headline claim: RISA's optical-power reduction against NULB,
/// one row per workload that has both runs; the paper column derives from
/// the paper's own Figure 9 values.
[[nodiscard]] TextTable figure9_reduction_table(
    const std::vector<SimMetrics>& runs);

/// Figure 10: average CPU-RAM round-trip latency (ns).
[[nodiscard]] TextTable figure10_table(const std::vector<SimMetrics>& runs);

/// Figures 11/12: scheduler execution time.  `figure` is "fig11"/"fig12".
[[nodiscard]] TextTable exec_time_table(const std::vector<SimMetrics>& runs,
                                        const std::string& figure);

/// §5.1 text: average utilization per resource (one workload).
[[nodiscard]] TextTable utilization_table(const std::vector<SimMetrics>& runs);

/// Full diagnostic dump of every collected metric.
[[nodiscard]] TextTable full_metrics_table(const std::vector<SimMetrics>& runs);

/// Lifecycle outcomes of a fault-scenario sweep (DESIGN.md §8): per cell,
/// the kill/requeue/retry counters, final placement outcomes and the
/// degraded-operation time.  One row per sweep cell, labeled by the cell's
/// fault plan.
[[nodiscard]] TextTable lifecycle_table(const std::vector<SweepResult>& results);

/// Defragmentation outcomes of a migration sweep (DESIGN.md §9): per cell,
/// committed migrations, inter-rack recoveries, the double-charge window
/// total, the admission vs net-of-recovered inter-rack fractions and the
/// resulting optical power.  One row per sweep cell, labeled by the cell's
/// migration and fault plans.
[[nodiscard]] TextTable migration_table(const std::vector<SweepResult>& results);

// --- Unified sweep emitters --------------------------------------------------
//
// Every driver (figure benches, ablations, examples) emits machine-readable
// results through these two functions, so output formats live in exactly one
// place.  One row/object per sweep cell, stable key order, full SimMetrics.

/// JSON document: {"benchmark": ..., "cells": [...]}.
[[nodiscard]] std::string sweep_json(const std::string& benchmark,
                                     const std::vector<SweepResult>& results);
bool write_sweep_json(const std::string& path, const std::string& benchmark,
                      const std::vector<SweepResult>& results);

/// CSV: header + one row per cell (same fields as sweep_json).
[[nodiscard]] std::string sweep_csv(const std::vector<SweepResult>& results);
bool write_sweep_csv(const std::string& path,
                     const std::vector<SweepResult>& results);

// --- Scheduler perf baseline (BENCH_scheduler*.json) ------------------------
//
// The fig11/fig12 bench binaries emit a machine-readable baseline so every
// future change can be diffed against the committed numbers: per-algorithm
// total scheduler time, placement throughput, and per-placement latency
// percentiles (p50/p99 via the bounded-memory Log2Histogram, whose
// log-scale bins keep sub-microsecond resolution even when millions of
// samples share a tail -- the fixed 1000-bin linear histogram collapsed
// p50 and p99 into one bin at 5M+ VMs).

/// One (workload, algorithm) row of the baseline.
struct SchedulerBenchEntry {
  std::string workload;
  std::string algorithm;
  std::uint64_t total_vms = 0;
  std::uint64_t placed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t inter_rack = 0;
  double sched_s = 0.0;             ///< total seconds inside place
  double placements_per_sec = 0.0;  ///< attempts / sched_s
  double sim_s = 0.0;               ///< end-to-end Engine::run wall seconds
  double events_per_sec = 0.0;      ///< DES events / sim_s
  double p50_ns = 0.0;              ///< median per-placement latency
  double p99_ns = 0.0;
  /// Streaming rows only: the source's standalone synthesis seconds (the
  /// stream drained without an engine).  sim_s *includes* this -- a pull
  /// run generates arrivals inside the timed window, which a materialized
  /// row pays before its timer starts -- so the engine-only throughput
  /// comparable with materialized rows is events / (sim_s - source_s).
  /// <0 = not recorded (materialized rows).
  double source_s = -1.0;
  double peak_rss_mb = -1.0;        ///< VmHWM when measured; <0 = not recorded
  /// Phase-attributed wall-time breakdown (sim/phase_profiler.hpp), emitted
  /// as a `profile` block when the run enabled profiling.
  PhaseProfile profile{};
};

/// Distill baseline entries from a latency-recording sweep (the unified
/// path: SweepRunner(1) with record_latency keeps the timed sections both
/// single-threaded and serial, so sched_s stays comparable across
/// baselines).  Throws std::invalid_argument when latency was not recorded.
[[nodiscard]] std::vector<SchedulerBenchEntry> scheduler_bench_entries(
    const std::vector<SweepResult>& results);

/// Serialize entries as a stable-keyed JSON document.
[[nodiscard]] std::string scheduler_bench_json(
    const std::string& benchmark, const std::vector<SchedulerBenchEntry>& entries);

/// Write the JSON to `path`; returns false (after logging to stderr) on
/// I/O failure.
bool write_scheduler_bench_json(const std::string& path,
                                const std::string& benchmark,
                                const std::vector<SchedulerBenchEntry>& entries);

/// Read back a document scheduler_bench_json wrote (the committed
/// BENCH_scheduler*.json and BENCH_engine.json baselines) through
/// JsonCursor; any malformed input or unknown key throws
/// "scheduler bench JSON (byte N): ...".  A `profile` block's missing
/// phases (a baseline older than the phase) read as NaN.
[[nodiscard]] std::vector<SchedulerBenchEntry> read_scheduler_bench_json(
    std::istream& in);

}  // namespace risa::sim

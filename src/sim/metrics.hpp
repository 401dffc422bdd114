// Metrics collected by one simulation run -- the union of everything the
// paper's Figures 5 and 7-12 report, plus diagnostics (drops by reason,
// fallback counts, peak utilizations).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/placement.hpp"
#include "photonics/power_ledger.hpp"
#include "sim/phase_profiler.hpp"

namespace risa::sim {

/// Drops per core::DropReason, plus the order in which each reason first
/// occurred: metrics_fingerprint hashes `name=count|` in that order.
struct DropTally {
  std::array<std::int64_t, core::kNumDropReasons> counts{};
  std::array<core::DropReason, core::kNumDropReasons> first_seen{};
  std::size_t kinds = 0;  ///< reasons seen so far: first_seen[0, kinds)

  void add(core::DropReason r) noexcept {
    if (counts[static_cast<std::size_t>(r)]++ == 0) first_seen[kinds++] = r;
  }
  [[nodiscard]] std::int64_t operator[](core::DropReason r) const noexcept {
    return counts[static_cast<std::size_t>(r)];
  }
  /// The reasons seen, in first-seen order.
  [[nodiscard]] std::span<const core::DropReason> seen() const noexcept {
    return {first_seen.data(), kinds};
  }
  /// Whether seen() lists exactly the reasons with a nonzero count, none
  /// negative.  A restored tally must be, or add() would write past
  /// first_seen.  Requires kinds <= kNumDropReasons.
  [[nodiscard]] bool consistent() const noexcept {
    std::size_t listed = 0;
    for (std::size_t r = 0; r < core::kNumDropReasons; ++r) {
      if (counts[r] < 0) return false;
      if (counts[r] == 0) continue;
      ++listed;
      if (std::find(seen().begin(), seen().end(),
                    static_cast<core::DropReason>(r)) == seen().end()) {
        return false;
      }
    }
    return listed == kinds;
  }
};

struct SimMetrics {
  std::string algorithm;
  std::string workload;

  // Placement outcomes (Figures 5 and 7).
  std::uint64_t total_vms = 0;
  std::uint64_t placed = 0;
  std::uint64_t dropped = 0;
  /// "Inter-rack VM assignments" as the paper's Figures 5/7/10 count them:
  /// the VM's CPU and RAM land in different racks.  (Figure 10's averages
  /// -- e.g. 226 ns = 110 + 220 * 0.527 -- tie the latency directly to this
  /// fraction, which pins the definition; see DESIGN.md §2.4.)
  std::uint64_t inter_rack_placements = 0;
  /// Broader diagnostic: any resource pair (CPU-RAM or RAM-storage) spans
  /// racks.  NULB/NALB routinely split RAM from storage even when CPU-RAM
  /// stay together, which is what drives their Figure 9 power gap.
  std::uint64_t any_pair_inter_rack = 0;
  std::uint64_t fallback_placements = 0;  ///< RISA SUPER_RACK path uses
  DropTally drops_by_reason;

  // Lifecycle outcomes (DESIGN.md §8).  All zero when the scenario's
  // FaultPlan is empty; deliberately EXCLUDED from metrics_fingerprint so
  // the frozen digest field set stays comparable across engine generations.
  /// Placements terminated early because their box went offline.  A killed
  /// VM still counts in `placed` (it was admitted); kills are orthogonal.
  std::uint64_t killed = 0;
  /// RETRY events scheduled (one per requeue of a dropped or killed VM).
  std::uint64_t requeued = 0;
  /// Successful placements that happened via a RETRY event (re-admission
  /// of a dropped VM or re-placement of a killed one).
  std::uint64_t retry_placed = 0;
  /// Simulated time with at least one box offline or link failed
  /// (degraded operation).
  double degraded_tu = 0.0;

  // Migration outcomes (DESIGN.md §9).  All zero when the scenario's
  // MigrationPlan is empty; EXCLUDED from metrics_fingerprint like the
  // lifecycle counters above.
  /// Committed live migrations (a MIGRATE sweep re-placed the VM and the
  /// new placement stuck; rejected or failed attempts do not count).
  std::uint64_t migrated = 0;
  /// Total double-charge window time: per-migration cost (fixed + RAM
  /// transfer over the CPU-RAM circuit) summed over committed migrations.
  /// During these windows the VM was charged on both placements.
  double migration_tu = 0.0;
  /// Migrations whose new placement removed the CPU-RAM rack split -- the
  /// paper's "inter-rack VM" definition recovered after the fact.  Under
  /// `only_if_improves` (the default) a commit can never introduce a
  /// CPU-RAM split (any placement with one scores above any without), so
  /// inter_rack_placements minus this is the effective live inter-rack
  /// count; with the stress mode (`only_if_improves = false`) moves may
  /// re-spread VMs and that derivation overstates recovery.
  std::uint64_t interrack_vms_recovered = 0;

  [[nodiscard]] double inter_rack_fraction() const noexcept {
    return total_vms > 0 ? static_cast<double>(inter_rack_placements) /
                               static_cast<double>(total_vms)
                         : 0.0;
  }
  [[nodiscard]] double drop_fraction() const noexcept {
    return total_vms > 0
               ? static_cast<double>(dropped) / static_cast<double>(total_vms)
               : 0.0;
  }

  // Time-weighted compute utilization over the horizon (§5.1 text).
  PerResource<double> avg_utilization{0.0, 0.0, 0.0};
  PerResource<double> peak_utilization{0.0, 0.0, 0.0};

  // Network utilization (Figure 8).
  double avg_intra_net_utilization = 0.0;
  double avg_inter_net_utilization = 0.0;
  double peak_intra_net_utilization = 0.0;
  double peak_inter_net_utilization = 0.0;

  // Optical power (Figure 9).
  double avg_optical_power_w = 0.0;
  phot::VmEnergy energy{};

  // CPU-RAM round-trip latency (Figure 10).
  RunningStats cpu_ram_latency_ns;

  // Scheduler execution time (Figures 11-12): wall-clock seconds spent
  // inside Allocator::place across the run.
  double scheduler_exec_seconds = 0.0;

  // End-to-end engine wall time: the whole Engine::run body (reset, event
  // loop, metric finalization), wall-clock seconds.  sched_s isolates the
  // policy; this captures the dispatch loop around it (DESIGN.md §7).
  double sim_wall_seconds = 0.0;

  // Discrete events executed: one per arrival plus one per departure
  // (= total_vms + placed under an empty FaultPlan/MigrationPlan; fault,
  // retry and migration events add to it.  Deterministic, unlike the
  // wall-clock fields).
  std::uint64_t events_executed = 0;

  /// Event throughput of the DES loop, events per wall-clock second.
  [[nodiscard]] double events_per_sec() const noexcept {
    return sim_wall_seconds > 0.0
               ? static_cast<double>(events_executed) / sim_wall_seconds
               : 0.0;
  }

  // Simulated horizon (last event time), time units.
  double horizon_tu = 0.0;

  // Phase-attributed wall-time breakdown (sim/phase_profiler.hpp), filled
  // only when the run enabled profiling (Engine::set_profiling).
  // Wall-clock measurement like sim_wall_seconds: never fingerprinted,
  // never checkpointed.
  PhaseProfile profile{};
};

}  // namespace risa::sim

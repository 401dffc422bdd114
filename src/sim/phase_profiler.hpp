// Phase-attributed engine profiler (DESIGN.md §12): answers "where did the
// wall time go" for every run that asks, so perf work ships with an
// attribution table instead of guesses.
//
// The engine brackets its event-loop phases with cycle-clock spans
// (common/cycle_clock.hpp CycleSpanStack): raw TSC reads accumulated per
// phase with exclusive nesting (an inner span pauses its enclosing one), so
// the phase times always sum to <= sim_wall_seconds.  Ticks convert to
// seconds with the same end-of-run calibration scheduler_exec_seconds uses.
//
// Compiled in always, enabled per run (Engine::set_profiling /
// SweepSpec::record_profile): disabled, every hook is one predictable
// branch; enabled, each instrumented span costs two TSC reads per entry --
// except placement, which is carved out of the admission span for free by
// reusing the reads the run already makes for scheduler_exec_seconds
// (CycleSpanStack::carve).  Sub-span work cheaper than a TSC pair (the
// per-arrival ledger charge, the ladder's O(1) push) deliberately rides in
// its enclosing phase rather than being measured at ~2x its own cost.
// The result is measurement, not simulation -- it is never hashed into the
// metrics fingerprint and never serialized into checkpoints, exactly like
// sim_wall_seconds.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>

#include "common/cycle_clock.hpp"

namespace risa::sim {

/// The engine's instrumented event-loop phases.
enum class Phase : std::size_t {
  SourcePull = 0,  ///< arrival intake: ArrivalSource::next_batch + validation
  Admission,       ///< admission windows: place, state updates, ledger
  Placement,       ///< Allocator::place (carved; == scheduler_exec span)
  Calendar,        ///< LadderCalendar dequeue: merge query + tier surfacing
  Settlement,      ///< departure windows, fault kills, migration sweeps
  Ledger,          ///< PowerLedger lifecycle settlements (refunds, migrations)
  Checkpoint,      ///< checkpoint serialization + emit
  Merge,           ///< merge-loop residual: ring bookkeeping, event dispatch
};

inline constexpr std::size_t kNumPhases = 8;

/// CycleSpanStack slot index for a phase.
[[nodiscard]] inline constexpr std::size_t phase_slot(Phase p) noexcept {
  return static_cast<std::size_t>(p);
}

inline constexpr std::array<std::string_view, kNumPhases> kPhaseNames = {
    "source_pull", "admission",  "placement", "calendar",
    "settlement",  "ledger",     "checkpoint", "merge"};

/// Per-phase wall seconds for one run.  `recorded` distinguishes "profiling
/// was off" from an all-zero profile of a degenerate run.
struct PhaseProfile {
  std::array<double, kNumPhases> seconds{};
  bool recorded = false;

  [[nodiscard]] double total() const noexcept {
    double t = 0.0;
    for (const double s : seconds) t += s;
    return t;
  }
  [[nodiscard]] double operator[](Phase p) const noexcept {
    return seconds[static_cast<std::size_t>(p)];
  }
};

/// The engine's in-run accumulator: one slot per phase, nesting depth
/// bounded by the deepest hook chain (merge > settlement > ledger is
/// depth 3; 8 leaves headroom).  The Merge span wraps the whole event
/// loop and every other span nests inside it, so with exclusive
/// attribution Merge captures exactly the loop's residual scaffolding --
/// the ring/dispatch bookkeeping that was unattributed before §13.
using PhaseTimer = CycleSpanStack<kNumPhases, 8>;

inline void profile_from_ticks(PhaseProfile& out, const PhaseTimer& timer,
                               double seconds_per_tick) noexcept {
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    out.seconds[p] = static_cast<double>(timer.ticks(p)) * seconds_per_tick;
  }
  out.recorded = true;
}

}  // namespace risa::sim

// Run telemetry: Perfetto-compatible lifecycle tracing + a unified
// MetricsRegistry over the engine's event loop (DESIGN.md §14).
//
// A Telemetry object bundles one TraceWriter and one MetricsRegistry
// and exposes the narrow hook surface the engine calls from sites that
// already branch (window close, fault dispatch, drop/kill/requeue).
// The contract mirrors every prior observability layer:
//
//   * Disabled costs nothing.  The engine holds a `Telemetry*`; every
//     hook sits behind `if (tel != nullptr)` on branches the loop takes
//     anyway.  No TSC reads, no stores, no allocation on the disabled
//     path.
//
//   * Invisible when enabled.  Hooks only *read* simulation state;
//     metrics fingerprints are byte-identical with tracing on or off,
//     and telemetry state is never checkpointed -- resume re-arms the
//     sampler at the restored sim time (begin_run) and continues.
//
//   * Deterministic given a deterministic run.  Sim-time tracks derive
//     every ts from SimTime (1 tu -> 1 us); only the synthetic phase
//     track (wall seconds from the §13 profiler) varies run to run.
//
// Track layout (pid 1): tid 0 counter tracks, tid 1 "sim.windows"
// spans (admission / settlement / migration), tid 2 "sim.events"
// instants (drops, kills, requeues, retries, faults), tid 3
// "phases.wall" profiler spans.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics_registry.hpp"
#include "common/trace_writer.hpp"
#include "core/placement.hpp"
#include "des/lifecycle.hpp"
#include "sim/phase_profiler.hpp"

namespace risa::sim {

// Category bits: each trace event belongs to exactly one category and
// is emitted only when its bit is set in TelemetryConfig::categories.
// Registry counters always accrue (they are O(1) adds, exported once).
inline constexpr std::uint32_t kTraceLifecycle = 1u << 0;  ///< drops/kills/retries/faults + census counters
inline constexpr std::uint32_t kTracePlacement = 1u << 1;  ///< window spans + arrival-ring depth
inline constexpr std::uint32_t kTracePower = 1u << 2;      ///< holding/optical power track
inline constexpr std::uint32_t kTraceCalendar = 1u << 3;   ///< calendar census track
inline constexpr std::uint32_t kTraceAllCategories =
    kTraceLifecycle | kTracePlacement | kTracePower | kTraceCalendar;

/// Parse "lifecycle,placement,power,calendar" (or "all" / "none");
/// throws std::invalid_argument on an unknown token.
[[nodiscard]] std::uint32_t parse_trace_categories(std::string_view csv);

struct TelemetryConfig {
  /// Trace output path; empty writes no trace (registry still accrues
  /// when the ostream constructor is not used).
  std::string trace_path;
  std::uint32_t categories = kTraceAllCategories;
  /// Minimum sim-time between counter-track samples; 0 samples at every
  /// eligible window/event boundary.
  double sample_cadence_tu = 0.0;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config);
  /// Trace into a caller-owned stream (tests); config.trace_path ignored.
  Telemetry(TelemetryConfig config, std::ostream& sink);
  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] const TelemetryConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] bool category(std::uint32_t bit) const noexcept {
    return (config_.categories & bit) != 0;
  }
  [[nodiscard]] MetricsRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const MetricsRegistry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] TraceWriter& writer() noexcept { return *writer_; }
  /// Flush + finalize the trace file (also done by the destructor).
  void close();

  // --- engine-facing hooks (all cold relative to the event loop) ------
  /// Called at the top of every run/resume: registers the series (ids
  /// are cached; re-registration is a no-op), re-arms the sampler at
  /// `now_tu` (resume picks up mid-run cleanly), emits run metadata.
  void begin_run(std::string_view algorithm, std::string_view workload,
                 double now_tu);

  /// Cheap cadence gate so the engine can skip building a sample.
  [[nodiscard]] bool sample_due(double t) const noexcept {
    return t >= next_sample_;
  }
  struct CounterSample {
    std::uint64_t live_vms = 0;
    std::uint64_t offline_boxes = 0;
    std::uint64_t failed_links = 0;
    std::uint64_t arrival_ring_depth = 0;
    std::uint64_t calendar_events = 0;
    double holding_power_w = 0.0;
  };
  void sample(double t, const CounterSample& s);

  void admission_window(double t0, double t1, std::uint64_t arrivals,
                        std::uint64_t placed);
  void settlement_window(double t);
  void migration_sweep(double t, std::uint64_t migrated);
  void drop(double t, core::DropReason reason);
  void kill(double t, des::LifecycleKind cause);
  void requeue(double t);
  void retry(double t, bool placed);
  void fault(double t, des::LifecycleKind kind);

  /// End of run: optional phase-profile export as a synthetic thread
  /// track (sequential wall-time spans; the cursor persists across runs
  /// so sweep reuse keeps spans disjoint), final flush.
  void finish_run(const PhaseProfile* profile);

 private:
  void emit_counter(const char* name, std::uint32_t cat_bit,
                    const char* cat_name, double t, double v);

  TelemetryConfig config_;
  MetricsRegistry registry_;
  std::unique_ptr<TraceWriter> writer_;
  double next_sample_ = 0.0;
  double phase_cursor_us_ = 0.0;  ///< wall-track write head (tid 3)
  bool series_ready_ = false;

  // Cached registry ids (registered in begin_run, stable across runs).
  MetricsRegistry::Id admitted_ = 0;
  MetricsRegistry::Id dropped_ = 0;
  std::array<MetricsRegistry::Id, core::kNumDropReasons> drop_reason_{};
  MetricsRegistry::Id killed_ = 0;
  MetricsRegistry::Id requeued_ = 0;
  MetricsRegistry::Id retries_ = 0;
  MetricsRegistry::Id retry_placed_ = 0;
  MetricsRegistry::Id migrated_ = 0;
  MetricsRegistry::Id faults_ = 0;
  MetricsRegistry::Id windows_ = 0;
  MetricsRegistry::Id window_span_ = 0;  ///< histogram: arrivals per window
  MetricsRegistry::Id live_vms_ = 0;
  MetricsRegistry::Id holding_power_ = 0;
};

// ---------------------------------------------------------------------
// Offline trace inspection (risa_cli --trace-summary).  A streaming
// single-pass reader over the Chrome-trace JSON: O(distinct names)
// memory, throws std::runtime_error on malformed JSON, and checks the
// §14 well-formedness contract on the fly (spans strictly nest per
// track, counter samples monotone in ts).

struct TraceSummary {
  struct SpanAgg {
    std::string name;
    std::uint64_t count = 0;
    double total_us = 0.0;
    double max_us = 0.0;
  };
  struct CounterAgg {
    std::string name;
    std::uint64_t samples = 0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
  };
  struct InstantAgg {
    std::string name;
    std::uint64_t count = 0;
  };
  std::vector<SpanAgg> spans;        ///< sorted by total_us descending
  std::vector<CounterAgg> counters;  ///< first-seen order
  std::vector<InstantAgg> instants;  ///< first-seen order
  std::uint64_t events = 0;
  std::uint64_t overflow_dropped = 0;
  bool spans_nest = true;          ///< X spans strictly nest per tid
  bool counters_monotone = true;   ///< per-name ts nondecreasing
  [[nodiscard]] bool well_formed() const noexcept {
    return spans_nest && counters_monotone;
  }
};

/// Parse + aggregate; throws std::runtime_error on malformed JSON.
[[nodiscard]] TraceSummary summarize_trace(std::istream& in);
[[nodiscard]] TraceSummary summarize_trace_file(const std::string& path);

/// Human-readable report (top-N spans by total time, counter
/// min/mean/max, instant counts, overflow drops).
[[nodiscard]] std::string format_trace_summary(const TraceSummary& summary,
                                               std::size_t top_n = 10);

}  // namespace risa::sim

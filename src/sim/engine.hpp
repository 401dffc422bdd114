// The DDC simulation engine: owns one cluster + fabric + allocator stack
// and replays a workload through the discrete-event kernel.
//
// Arrival event   -> Allocator::place (wall-clock timed: Figures 11-12)
//                    success: record placement, open the photonic charging
//                             interval (Eq.(1)+transceiver energy for the
//                             expected hold), schedule departure
//                    failure: drop, or requeue when the FaultPlan's retry
//                             policy allows (the paper's algorithms never
//                             queue; an empty plan keeps that semantics)
// Departure event -> release circuits + compute units
// BoxFail event   -> box offline, resident VMs killed (power interval
//                    settled at kill time, circuits torn down), optional
//                    requeue of the victims
// BoxRepair event -> box rejoins the pool
// LinkFail event  -> link fails; VMs whose circuits traverse it are killed
//                    (same settlement as a box kill), optional requeue
// LinkRepair event-> link admits circuits again
// Retry event     -> re-placement attempt for a dropped/killed VM
// Migrate event   -> defragmentation sweep (DESIGN.md §9): worst-spread
//                    live VMs re-placed with their current boxes excluded,
//                    old circuits retired, power settled with a
//                    double-charge window of the migration cost
// After every event the time-weighted utilization integrals advance.
//
// The event loop is typed and allocation-free in steady state (DESIGN.md
// §7-§8): arrivals are PULLED in chunks from a wl::ArrivalSource (DESIGN.md
// §11) while every *injected* event -- departures, scripted faults/repairs,
// retries, migration sweeps -- lives in one O(1)-amortized ladder-queue
// calendar of POD des::LifecycleEvent entries (des::LadderCalendar,
// DESIGN.md §12), and the two streams are merged on (time, seq).  Arrivals
// carry seq 0..N-1 (their workload index) and injected events number from
// N, which preserves the historical FIFO order exactly: with an empty
// FaultPlan the metrics are bit-identical to the closure-calendar
// reference loop in tests/test_engine_equivalence.cpp, and a streaming run
// is bit-identical to the materialized run over the same requests.  Each
// event family has its own handler on Engine::Run (DESIGN.md §16).
//
// Memory is bounded by the live census, not the stream length: per-VM state
// lives in a generation-stamped slot arena of VmState records created at
// admission (or first requeue) and erased at the VM's final event, so a
// 10M+-VM streaming run holds only the resident VMs plus one refill chunk
// (the arena's paged directory recycles itself behind the sliding index
// window -- DESIGN.md §13).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/slot_arena.hpp"
#include "core/allocator.hpp"
#include "core/registry.hpp"
#include "des/ladder_calendar.hpp"
#include "des/lifecycle.hpp"
#include "network/circuit.hpp"
#include "photonics/power_ledger.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"
#include "sim/timeline.hpp"
#include "workload/arrival_source.hpp"
#include "workload/vm.hpp"

namespace risa::sim {

class Telemetry;  // sim/telemetry.hpp (DESIGN.md §14)

/// Periodic checkpointing for streaming runs.  When attached to run_stream
/// / resume_stream, the engine serializes its complete mid-run state every
/// `every_events` executed events -- at the next arrival-chunk boundary,
/// the loop's safe point (DESIGN.md §11) -- and hands the bytes to `emit`.
/// A run resumed from any emitted checkpoint (Engine::resume_stream)
/// continues bit-identically.  Wall-clock metrics (sim_wall_seconds,
/// scheduler_exec_seconds) and the optional latency histogram restart at
/// the resume point; every deterministic metric continues exactly.
struct CheckpointPolicy {
  /// Checkpoint cadence in executed events; 0 disables checkpointing.
  std::uint64_t every_events = 0;
  /// Receives each serialized checkpoint (opaque bytes; write to a file).
  std::function<void(const std::string&)> emit;
};

class Engine {
 public:
  /// Build the stack for `scenario` with the named algorithm.  The heavy
  /// components (cluster, fabric, router, circuit table) are built once
  /// here and then *reused* across runs: run() wipes occupancy in place
  /// instead of reallocating, so back-to-back runs are allocation-cheap
  /// and a pool of engines can be pinned per worker thread (sim/sweep).
  Engine(const Scenario& scenario, const std::string& algorithm);

  /// Replay `workload`; returns the collected metrics.  Every call starts
  /// from a pristine cluster state (reset() runs first), and a reused
  /// engine produces bit-identical results to a freshly constructed one.
  /// The workload need not be sorted by arrival time: the engine orders
  /// arrivals by (arrival, index) itself, matching calendar FIFO order.
  /// Implemented as a wl::WorkloadSource adapter over run_stream's loop,
  /// so both front ends execute the identical event sequence.
  [[nodiscard]] SimMetrics run(const wl::Workload& workload,
                               const std::string& workload_label);

  /// Replay a pull-based arrival stream (rewound first, so a reused source
  /// behaves like a fresh one).  The source must satisfy the ArrivalSource
  /// ordering contract -- nondecreasing arrival, strictly increasing index
  /// within equal arrivals -- which the engine validates per chunk,
  /// throwing std::invalid_argument on violation.  Peak memory is bounded
  /// by the live census, independent of the stream length.  `checkpoint`
  /// optionally snapshots the run periodically (see CheckpointPolicy).
  [[nodiscard]] SimMetrics run_stream(
      wl::ArrivalSource& source, const std::string& workload_label,
      const CheckpointPolicy* checkpoint = nullptr);

  /// Continue a run from a serialized checkpoint: restores every
  /// deterministic component (cluster occupancy, circuits, calendar,
  /// metrics accumulators, allocator cursors, fault RNG, source position)
  /// and resumes the merged event loop bit-identically.  `source` must be
  /// constructed over the same stream the checkpointing run used; the
  /// engine must run the same algorithm (validated, std::runtime_error on
  /// mismatch).  `policy` re-arms periodic checkpointing for the resumed
  /// segment.
  [[nodiscard]] SimMetrics resume_stream(
      std::istream& checkpoint, wl::ArrivalSource& source,
      const CheckpointPolicy* policy = nullptr);

  /// Swap the scheduling algorithm without rebuilding the topology stack.
  /// Only the allocator is reconstructed (a few hundred bytes), and only
  /// when the name actually changes.
  void set_algorithm(const std::string& algorithm);
  [[nodiscard]] const std::string& algorithm() const noexcept {
    return algorithm_;
  }
  [[nodiscard]] const Scenario& scenario() const noexcept { return scenario_; }

  /// Override the scenario's FaultPlan for subsequent runs without
  /// rebuilding the stack -- the sweep layer's fault axis (one engine,
  /// many plans).  The plan must outlive the runs; nullptr restores the
  /// scenario's own plan.
  void set_fault_plan(const FaultPlan* plan) noexcept { fault_plan_ = plan; }
  [[nodiscard]] const FaultPlan& fault_plan() const noexcept {
    return fault_plan_ != nullptr ? *fault_plan_ : scenario_.faults;
  }

  /// Override the scenario's MigrationPlan for subsequent runs -- the
  /// sweep layer's migration axis.  Same lifetime contract as
  /// set_fault_plan; nullptr restores the scenario's own plan.
  void set_migration_plan(const MigrationPlan* plan) noexcept {
    migration_plan_ = plan;
  }
  [[nodiscard]] const MigrationPlan& migration_plan() const noexcept {
    return migration_plan_ != nullptr ? *migration_plan_
                                      : scenario_.migrations;
  }

  /// Restore the pristine state in place: box occupancy, link reservations,
  /// circuit records and allocator cursors all return to their
  /// just-constructed values with zero topology reallocation.
  void reset();

  /// Optional time-series recording: when set, every placement/departure
  /// (and every fault/repair/kill under a nonempty FaultPlan) appends a
  /// TimelinePoint.  The pointer must outlive run(); pass nullptr to
  /// disable.  Recording is skipped inside the timed scheduler section,
  /// so Figures 11/12 are unaffected.
  void set_timeline(Timeline* timeline) noexcept { timeline_ = timeline; }

  /// Optional per-placement latency recording: every Allocator::place
  /// (success or drop, arrivals and retries alike) adds its wall-clock
  /// duration to a log-scale histogram, bounded memory at any stream
  /// length.  Samples are added as raw ticks; at the end of the run the
  /// engine installs the ticks-to-nanoseconds scale via
  /// Log2Histogram::set_value_scale, so percentiles read out in ns.
  /// Samples are taken outside the timed section, so
  /// scheduler_exec_seconds is unaffected.  The histogram must outlive the
  /// run and is NOT cleared between runs (nor serialized into checkpoints
  /// -- latency is wall-clock state); pass nullptr to disable.
  void set_latency_histogram(Log2Histogram* sink) noexcept {
    latency_hist_ = sink;
  }

  /// Per-run phase attribution (sim/phase_profiler.hpp): when enabled, the
  /// engine brackets its event-loop phases with cycle-clock spans and
  /// fills SimMetrics::profile (seconds per phase, exclusive nesting, sum
  /// <= sim_wall_seconds).  Off by default: disabled hooks cost one
  /// predictable branch each.  Sticky across runs until changed.
  void set_profiling(bool on) noexcept { profiling_ = on; }
  [[nodiscard]] bool profiling() const noexcept { return profiling_; }

  /// Run telemetry (sim/telemetry.hpp, DESIGN.md §14): when set, the
  /// event loop emits lifecycle spans/instants/counter tracks into the
  /// telemetry's trace writer and accrues its MetricsRegistry series.
  /// Every hook rides a branch the loop takes anyway, so nullptr (the
  /// default) costs one pointer test per hook site -- no TSC reads, no
  /// stores.  Telemetry is observation only: metrics fingerprints are
  /// byte-identical with it on or off, and none of its state is
  /// checkpointed (resume re-arms the sampler at the restored sim
  /// time).  The object must outlive the runs; sticky until changed.
  void set_telemetry(Telemetry* telemetry) noexcept { telemetry_ = telemetry; }
  [[nodiscard]] Telemetry* telemetry() const noexcept { return telemetry_; }

  // Component access for tests and examples.
  [[nodiscard]] topo::Cluster& cluster() noexcept { return *cluster_; }
  [[nodiscard]] net::Fabric& fabric() noexcept { return *fabric_; }
  [[nodiscard]] core::Allocator& allocator() noexcept { return *allocator_; }

 private:
  /// One run's loop state and per-event-family handlers (engine.cpp,
  /// DESIGN.md §16).
  class Run;

  [[nodiscard]] core::AllocContext context() noexcept;

  /// The shared merged event loop behind run/run_stream/resume_stream:
  /// set up a Run, restore or start it, dispatch (time, seq)-ordered
  /// events to its handlers, finalize.  When `resume` is non-null, the
  /// serialized state it holds replaces the fresh-run initialization
  /// (including `workload_label`, which the checkpoint carries).
  [[nodiscard]] SimMetrics run_impl(wl::ArrivalSource& source,
                                    const std::string& workload_label,
                                    const CheckpointPolicy* ckpt,
                                    std::istream* resume);

  Scenario scenario_;
  std::string algorithm_;
  std::unique_ptr<topo::Cluster> cluster_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<net::Router> router_;
  std::unique_ptr<net::CircuitTable> circuits_;
  std::unique_ptr<core::Allocator> allocator_;
  Timeline* timeline_ = nullptr;
  Telemetry* telemetry_ = nullptr;  ///< run telemetry hub (DESIGN.md §14)
  Log2Histogram* latency_hist_ = nullptr;
  bool profiling_ = false;  ///< fill SimMetrics::profile on each run
  const FaultPlan* fault_plan_ = nullptr;  ///< non-owning per-run override
  const MigrationPlan* migration_plan_ = nullptr;  ///< same, migration axis

  // --- Typed event-loop state, reused across runs (capacity retained) ----
  /// Injected-event calendar: POD {time, seq, LifecycleEvent} entries
  /// (departures + scripted faults/repairs + retries).  Its size is
  /// bounded by live VMs + pending injections, not the event count; seq
  /// numbering starts at the source's size hint each run (arrivals own
  /// seq 0..N-1; an unknown hint of 0 is behaviorally identical because
  /// arrivals win every merge tie structurally -- DESIGN.md §11).
  /// A ladder queue: O(1) amortized push/pop with exactly a heap's
  /// (time, seq) pop order, pinned by the differential tests in
  /// tests/test_ladder_calendar.cpp against the test-side BasicCalendar
  /// oracle (DESIGN.md §12).
  des::LadderCalendar<des::LifecycleEvent> events_;

  // VmState is public so bench_fabric's record-churn row can hold the
  // engine's own record type, reset the way the engine's arena resets it.
 public:
  /// Per-VM state, keyed by workload index.  A record is created when a VM
  /// is admitted (or first requeued) and erased at its final event
  /// (departure, kill without requeue, or last failed retry), so the table
  /// holds the live census plus pending retries -- bounded by the cluster,
  /// never by the stream length.  Replaces the PR 3 workload-length dense
  /// vectors (live/slot/epoch/hold/attempt arrays), whose O(N) footprint
  /// and per-run O(N) clears were the last scaling wall to 10M+ VMs.
  ///
  /// A SlotArena (DESIGN.md §13): every per-event lookup is a direct
  /// paged index instead of a hash probe, and the references it hands out
  /// are stable until the key is erased, which the admission and retry
  /// paths rely on.  Intake sets vm.id to the workload index, so the
  /// record key, vm.id and the circuit table's key are one number.
  ///
  /// The record carries its own placement (boxes, racks, demand), so one
  /// lookup reaches everything settlement, kills and migration need.
  /// Admission places straight into it (DESIGN.md §13).
  struct VmState {
    wl::VmRequest vm{};          ///< the request (streams are not replayable)
    core::Placement placement{}; ///< the current placement, meaningful iff live
    std::uint32_t attempts = 0;  ///< retry attempts consumed
    std::uint32_t epoch = 0;     ///< placement epoch (departure tombstones)
    SimTime place_time = 0.0;    ///< when the current placement opened
    double expected_hold = 0.0;  ///< prepaid hold (remaining hold after kill)
    /// Instantaneous optical W of the VM's circuits, feeding the timeline's
    /// and the telemetry power track's holding-power sum.
    double holding_power = 0.0;
    std::uint8_t live = 0;
    std::uint8_t ever_placed = 0;

    /// The arena's reset of a vacated record (SlotArena's insert
    /// contract): the lifecycle scalars return to their defaults, and
    /// spilled brick slices are freed.  `vm` and the rest of `placement`
    /// keep the last occupant's bytes: every path that claims a record
    /// writes `vm` first, and `placement` is read only while `live`, which
    /// a successful place() sets after overwriting all of it.
    void recycle() noexcept {
      for (topo::BoxAllocation& a : placement.compute) a.slices.clear();
      attempts = 0;
      epoch = 0;
      place_time = 0.0;
      expected_hold = 0.0;
      holding_power = 0.0;
      live = 0;
      ever_placed = 0;
    }
  };

  /// Bytes one live VM holds in the engine's two arenas -- its VmState
  /// slot and its CircuitTable slot -- slot headers included (DESIGN.md
  /// §13).
  static constexpr std::size_t kLiveVmRecordBytes =
      SlotArena<VmState>::slot_bytes() + net::CircuitTable::slot_bytes();
  static_assert(kLiveVmRecordBytes <= 384);

 private:
  SlotArena<VmState> vms_;  ///< the live-VM records described above

  /// Arrival refill chunk: the engine pulls the source in batches of this
  /// ring's size.  Chunk boundaries (ring empty, top of the merge loop)
  /// are the checkpoint safe points.
  std::vector<wl::ArrivalItem> arrival_ring_;

  /// Deterministic-scan scratch: the record arena iterates in slot order
  /// (reuse-dependent), so fault scans (their victims only) and checkpoint
  /// serialization collect VM indices here and sort ascending before
  /// acting (the historical scan order).
  std::vector<std::uint32_t> scan_scratch_;

  // --- Lifecycle state, sized only when the run's FaultPlan is nonempty --
  /// Admission-count-triggered action indices, sorted by threshold.
  std::vector<std::uint32_t> admission_actions_;
  /// Migration-sweep candidate arena: packed (spread score, VM index) keys
  /// (sim/migration.hpp), reused across events so candidate selection is
  /// allocation-free in steady state.
  std::vector<std::uint64_t> mig_keys_;
  /// One placement with spread score > 0, named by VM index and placement
  /// epoch; stale once the record is gone, not live, or in another epoch.
  struct SpreadEntry {
    std::uint32_t vm;
    std::uint32_t epoch;
  };
  /// Migration candidate list (DESIGN.md §9.1): every spread placement
  /// opened while a migration plan runs, so a sweep walks the spread VMs
  /// instead of every live record.  Derived state: rebuilt on restore,
  /// never serialized.  Stale entries are compacted away by each sweep and
  /// by any push that takes the list past 2 * max(live, 64).
  std::vector<SpreadEntry> spread_;
};

}  // namespace risa::sim

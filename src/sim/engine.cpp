#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cmath>
#include <istream>
#include <limits>
#include <optional>
#include <ranges>
#include <span>
#include <sstream>
#include <stdexcept>

#include "common/binio.hpp"
#include "common/cycle_clock.hpp"
#include "common/rng.hpp"
#include "sim/migration.hpp"
#include "sim/phase_profiler.hpp"
#include "sim/telemetry.hpp"

namespace risa::sim {

namespace {
/// Arrival refill size: large enough to amortize the virtual next_batch
/// call across the merge loop, small enough that the in-flight chunk is
/// noise next to the live census.  Chunk boundaries double as checkpoint
/// safe points (DESIGN.md §11).
constexpr std::size_t kArrivalChunk = 1024;
/// Checkpoint stream magic + format version ("RSK1").
constexpr std::uint32_t kCheckpointMagic = 0x314B5352u;
/// Upper bound on size_hint-driven pre-sizing (the calendar and scan
/// scratch are census-bounded, so reserving past any plausible live census
/// only wastes RSS on streaming runs).
constexpr std::uint64_t kCensusReserveCap = 1u << 16;
constexpr SimTime kNeverTime = std::numeric_limits<SimTime>::infinity();

using des::LifecycleEvent;
using des::LifecycleKind;
using Calendar = des::LadderCalendar<LifecycleEvent>;

SimTime head_time(Calendar& events) {
  return events.empty() ? kNeverTime : events.next_time();
}

LifecycleKind action_kind(const FaultAction& a) {
  switch (a.kind) {
    case FaultAction::Kind::Fail: return LifecycleKind::BoxFail;
    case FaultAction::Kind::Repair: return LifecycleKind::BoxRepair;
    case FaultAction::Kind::LinkFail: return LifecycleKind::LinkFail;
    case FaultAction::Kind::LinkRepair: return LifecycleKind::LinkRepair;
  }
  throw std::logic_error("Engine: bad FaultAction kind");
}

/// Intake check on every arrival, before it touches any state: a negative
/// lifetime would put a departure before its own arrival, and a NaN or
/// infinite arrival or departure time would stall the merge loop (NaN
/// compares false against every calendar time).
void check_times(const wl::VmRequest& vm, std::size_t index) {
  if (!(vm.lifetime >= 0.0 && std::isfinite(vm.arrival + vm.lifetime))) {
    throw std::invalid_argument(
        "Engine: workload VM " + std::to_string(index) +
        " has a negative lifetime or a non-finite arrival or departure");
  }
}

/// Calendar kinds whose subject indexes the fault plan's actions.
bool is_fault_kind(LifecycleKind k) {
  return k == LifecycleKind::BoxFail || k == LifecycleKind::BoxRepair ||
         k == LifecycleKind::LinkFail || k == LifecycleKind::LinkRepair;
}

// ---- Checkpoint archives (DESIGN.md §16) ------------------------------------
// Engine::Run::transfer walks the format-v1 fields once against one of
// these two: the writer serializes each field it is handed, the reader
// overwrites it.  The bounded u8/u32 overloads fail closed on load -- a
// value at or past the bound throws "checkpoint: <what>" -- and every id
// or enum tag that later reaches an unchecked accessor is read that way.

template <typename T>
std::uint64_t to_u64(const T& v) {
  if constexpr (requires { v.value(); }) {
    return v.value();
  } else {
    return static_cast<std::uint64_t>(v);
  }
}

constexpr std::uint64_t kUnbounded = std::numeric_limits<std::uint64_t>::max();

struct CkptWriter {
  static constexpr bool kLoading = false;
  std::ostream& os;

  void u8(const auto& v, std::uint64_t = 0, const char* = nullptr) {
    bin::put_u8(os, static_cast<std::uint8_t>(to_u64(v)));
  }
  void u32(const auto& v, std::uint64_t = 0, const char* = nullptr) {
    bin::put_u32(os, static_cast<std::uint32_t>(to_u64(v)));
  }
  void u64(const auto& v) { bin::put_u64(os, to_u64(v)); }
  void i64(const auto& v) { bin::put_i64(os, static_cast<std::int64_t>(v)); }
  void f64(double v) { bin::put_f64(os, v); }
  void str(const std::string& s) { bin::put_str(os, s); }
  /// Length-prefixed sequence; `f` transfers one element.  The length
  /// bound is the reader's.
  template <typename Seq, typename F>
  void seq(const Seq& s, F&& f, std::uint64_t = 0, const char* = nullptr) {
    bin::put_u64(os, s.size());
    for (const auto& x : s) f(x);
  }
};

struct CkptReader {
  static constexpr bool kLoading = true;
  std::istream& is;

  template <typename T>
  void u8(T& v, std::uint64_t bound = kUnbounded, const char* what = nullptr) {
    v = checked<T>(bin::get_u8(is), bound, what);
  }
  template <typename T>
  void u32(T& v, std::uint64_t bound = kUnbounded, const char* what = nullptr) {
    v = checked<T>(bin::get_u32(is), bound, what);
  }
  template <typename T>
  void u64(T& v) {
    v = static_cast<T>(bin::get_u64(is));
  }
  template <typename T>
  void i64(T& v) {
    v = static_cast<T>(bin::get_i64(is));
  }
  void f64(double& v) { v = bin::get_f64(is); }
  void str(std::string& s) { s = bin::get_str(is); }
  /// Elements are read one at a time and never reserved from the stored
  /// count, so a corrupt length runs into end-of-stream, not the allocator.
  /// A length past `max_len` throws "checkpoint: <what>" before any
  /// element is read.
  template <typename Seq, typename F>
  void seq(Seq& s, F&& f, std::uint64_t max_len = kUnbounded,
           const char* what = nullptr) {
    const std::uint64_t n = bin::get_u64(is);
    if (n > max_len) {
      throw std::runtime_error(std::string("checkpoint: ") + what);
    }
    s.clear();
    for (std::uint64_t k = 0; k < n; ++k) {
      std::ranges::range_value_t<Seq> x{};
      f(x);
      s.push_back(std::move(x));
    }
  }

 private:
  template <typename T>
  static T checked(std::uint64_t raw, std::uint64_t bound, const char* what) {
    if (raw >= bound) throw std::runtime_error(std::string("checkpoint: ") + what);
    if constexpr (requires { typename T::underlying_type; }) {
      return T{static_cast<typename T::underlying_type>(raw)};
    } else {
      return static_cast<T>(raw);
    }
  }
};

// Field lists of the save()/restore() state records the walk carries.
template <typename Ar>
void fields(Ar& ar, RunningStats::State& s) {
  ar.u64(s.n);
  ar.f64(s.mean);
  ar.f64(s.m2);
  ar.f64(s.sum);
  ar.f64(s.min);
  ar.f64(s.max);
}
template <typename Ar>
void fields(Ar& ar, TimeWeightedMean::State& s) {
  ar.u8(s.started);
  ar.f64(s.t_first);
  ar.f64(s.t_last);
  ar.f64(s.value);
  ar.f64(s.area);
  ar.f64(s.peak);
}
template <typename Ar>
void fields(Ar& ar, phot::PowerLedger::State& s) {
  ar.f64(s.total.switch_switching_j);
  ar.f64(s.total.switch_trimming_j);
  ar.f64(s.total.transceiver_j);
  ar.u64(s.charged);
  ar.u64(s.refunded);
  fields(ar, s.per_circuit_energy);
}
/// A component with save()/restore() of a POD state record.
template <typename Ar, typename T>
void transfer_saved(Ar& ar, T& obj) {
  auto s = obj.save();
  fields(ar, s);
  if constexpr (Ar::kLoading) obj.restore(s);
}

constexpr std::uint64_t kNumLifecycleKinds =
    static_cast<std::uint64_t>(LifecycleKind::Migrate) + 1;
constexpr std::uint64_t kNumFlowKinds =
    static_cast<std::uint64_t>(net::FlowKind::RamStorage) + 1;

/// Restore-side checks on the compact placement records (DESIGN.md §13):
/// each restored live placement must be one the restored cluster could
/// have produced, and together their slices must account for exactly the
/// units each restored brick holds.
class BrickLedger {
 public:
  explicit BrickLedger(const topo::Cluster& cluster) : cluster_(cluster) {
    base_.reserve(cluster.num_boxes());
    std::size_t total = 0;
    for (std::uint32_t b = 0; b < cluster.num_boxes(); ++b) {
      base_.push_back(total);
      total += cluster.box_unchecked(BoxId{b}).brick_count();
    }
    held_.assign(total, 0);
  }

  /// Check one placement's allocations (box ids and types, allocation
  /// units, brick indices and slice units were checked as they were read)
  /// and add its slices.
  void add(const core::Placement& p) {
    for (const topo::BoxAllocation& a : p.compute) {
      Units sum = 0;
      for (const topo::BrickSlice& sl : a.slices) {
        sum += sl.units;
        held_[base_[a.box.value()] + sl.brick] += sl.units;
      }
      if (sum != a.units) {
        throw std::runtime_error(
            "checkpoint: slice units do not sum to the allocation");
      }
    }
  }

  /// Once every record is in: each brick's allocated units are exactly
  /// the live slices on it.
  void check_conservation() const {
    for (std::uint32_t b = 0; b < cluster_.num_boxes(); ++b) {
      const topo::Box& box = cluster_.box_unchecked(BoxId{b});
      for (std::uint32_t k = 0; k < box.brick_count(); ++k) {
        const Units allocated = box.brick_capacity(k) - box.brick_available(k);
        if (held_[base_[b] + k] != allocated) {
          throw std::runtime_error(
              "checkpoint: live slices do not match brick occupancy");
        }
      }
    }
  }

 private:
  const topo::Cluster& cluster_;
  std::vector<std::size_t> base_;  ///< first ledger cell of each box
  std::vector<Units> held_;        ///< live slice units per (box, brick)
};

bool holds_box(const core::Placement& p, BoxId box) noexcept {
  return std::ranges::any_of(p.compute, [&](const topo::BoxAllocation& held) {
    return held.box == box;
  });
}

/// Necessary for any of `p`'s circuits to cross `l`: a circuit uses only
/// its endpoint boxes' uplinks, plus, when inter-rack, its endpoint racks'
/// uplinks and (across pods) pod uplinks.
bool may_cross(const core::Placement& p, const net::Link& l) noexcept {
  switch (l.kind()) {
    case net::LinkKind::BoxUplink:
      return holds_box(p, l.box());
    case net::LinkKind::RackUplink:
      return p.inter_rack &&
             std::ranges::find(p.racks, l.rack()) != p.racks.end();
    case net::LinkKind::PodUplink:
      return p.inter_rack;
  }
  return true;
}
}  // namespace

/// One run of the merged event loop (DESIGN.md §16).  Every loop-carried
/// value is a member, and each event family has one handler that
/// run_impl's dispatch loop calls.  Engine-owned containers (record arena,
/// calendar, ring, scratch) are reached through `e` so their capacity
/// survives across runs.
class Engine::Run {
 public:
  using Clock = std::chrono::steady_clock;
  using Entry = Calendar::Entry;

  Run(Engine& engine, wl::ArrivalSource& source, const std::string& label,
      const CheckpointPolicy* ckpt);

  /// Restore-or-start: replay a checkpoint, or take the fresh run's t=0
  /// signal sample.
  void start(std::istream* resume);
  [[nodiscard]] SimMetrics finish();

  // Event-family handlers.
  void checkpoint_safe_point();
  void admit_window(SimTime limit);
  void settle_departures(const Entry& first);
  void settle(std::uint32_t index, VmState& st);
  void fault_action(const Entry& ev);
  void retry(const Entry& ev);
  void migration_sweep(const Entry& ev);

  [[nodiscard]] bool arrivals_pending() const noexcept {
    return ring_pos < ring_len;
  }
  /// Ring drained with the source still open: the checkpoint safe point.
  [[nodiscard]] bool at_chunk_boundary() const noexcept {
    return ring_pos >= ring_len && !source_done;
  }
  [[nodiscard]] SimTime next_arrival_time() const noexcept {
    return e.arrival_ring_[ring_pos].vm.arrival;
  }

  /// Phase attribution (sim/phase_profiler.hpp): cycle-clock spans around
  /// the loop's phases, exclusive under nesting.  Disabled, every hook is a
  /// single predictable branch.
  PhaseTimer prof;

 private:
  // Shared helpers.
  bool admit(std::uint32_t vm_index, VmState& st, double expected);
  bool requeue(std::uint32_t vm_index, VmState& st);
  void drop();
  void kill_vm(std::uint32_t vm_index, VmState& st);
  bool try_migrate(std::uint32_t vm_index);
  void note_spread(std::uint32_t vm_index, const VmState& st);
  template <typename Fn>
  void walk_spread(Fn&& fn);
  [[nodiscard]] std::size_t spread_bound() const noexcept {
    return 2 * std::max<std::size_t>(live_count, 64);
  }
  [[nodiscard]] bool outlasts_cost(const VmState& st) const noexcept;
  void migrate_worst_spread();
#ifndef NDEBUG
  void check_spread_list(std::size_t spread) const;
#endif
  template <typename Toggle, typename Hit>
  void fault_scan(std::uint32_t target, std::uint32_t none,
                  std::uint32_t random_draws, std::size_t population, bool fail,
                  Toggle&& toggle, Hit&& hit);
  VmState* departing(const LifecycleEvent& ev);
  void fire_admission_triggers();
  void refill_ring();
  [[nodiscard]] bool degraded() const noexcept;
  void note_time(SimTime t);
  [[nodiscard]] double circuit_power(VmId vm) const;
  void sample_signals(SimTime t);
  void record_state();
  void tel_sample();
  template <typename Hook>
  void observe(Hook&& hook);

  // The checkpoint walk (format v1).
  template <typename Ar>
  void transfer(Ar& ar);
  template <typename Ar>
  void transfer_cluster(Ar& ar, std::vector<LinkId>& failed_links);
  template <typename Ar>
  void transfer_records(Ar& ar);

  Engine& e;
  topo::Cluster& cluster;
  net::Fabric& fabric;
  net::CircuitTable& circuits;
  core::Allocator& alloc;
  wl::ArrivalSource& source;
  const CheckpointPolicy* const ckpt;
  // Scheduler timing runs on raw cycle ticks (~5 ns a read vs ~30 ns for
  // steady_clock through the vDSO), converted to seconds once at the end
  // of the run against the steady_clock span sim_wall_seconds measures.
  const Clock::time_point run_t0 = Clock::now();
  const std::uint64_t run_ticks0 = CycleClock::now();
  /// Run telemetry (DESIGN.md §14): every hook rides a branch the loop
  /// takes anyway behind `tel != nullptr`.
  Telemetry* const tel;
  /// The run's fault and migration scripts (the scenario's, unless the
  /// sweep layer swapped in other plans for this cell).
  const FaultPlan& plan;
  const MigrationPlan& mig;
  const bool migrating;
  /// Faults, retries or migrations are active.  Gates only what a
  /// plan-free run must not touch: state the checkpoint carries (placement
  /// epochs, ever_placed, last_event_t).
  const bool lifecycle;
  /// Maintain the instantaneous holding power for the timeline and the
  /// telemetry power track (observation only, never a metric).
  const bool track_power;

  SimMetrics m;
  phot::PowerLedger ledger;
  PerResource<TimeWeightedMean> util;
  TimeWeightedMean intra_util, inter_util;
  Rng fault_rng;

  SimTime now = 0.0;
  /// Degraded-operation integral bookkeeping: simulated time spent with a
  /// box offline or a link failed accrues per inter-event gap.
  SimTime last_event_t = 0.0;
  std::uint64_t executed = 0;
  std::uint64_t last_ckpt_executed = 0;
  std::size_t live_count = 0;
  std::size_t admissions = 0;
  std::size_t next_admission_action = 0;
  /// Keeps the migration schedule alive across windows where every VM is
  /// dead but re-placements are still coming.
  std::size_t pending_retries = 0;
  std::uint32_t migration_budget = 0;
  double holding_power_w = 0.0;
  std::uint64_t sched_ticks = 0;

  // Arrival intake: chunked pulls into a fixed ring, validated against the
  // (arrival, index) ordering contract.  After a top-of-loop refill an
  // empty ring means the source is exhausted.
  std::size_t ring_pos = 0;
  std::size_t ring_len = 0;
  bool source_done = false;
  SimTime last_arrival = 0.0;
  std::uint32_t last_arrival_index = 0;
  bool seen_arrival = false;

  /// Reason of the latest failed placement.
  core::DropReason drop_reason{};
  /// The record a migration's make-before-break placement is written into
  /// while the VM's record still holds the old one; a committed migration
  /// moves it into the record.  Admission and retries place straight into
  /// the VM's record.
  core::Placement placing;
  /// Cause reported for kills by the current teardown scan.
  LifecycleKind kill_cause = LifecycleKind::BoxFail;
};

Engine::Engine(const Scenario& scenario, const std::string& algorithm)
    : scenario_(scenario), algorithm_(algorithm) {
  scenario_.validate();
  cluster_ = std::make_unique<topo::Cluster>(scenario_.cluster);
  fabric_ = std::make_unique<net::Fabric>(scenario_.cluster, scenario_.fabric);
  router_ = std::make_unique<net::Router>(*fabric_);
  circuits_ = std::make_unique<net::CircuitTable>(*router_);
  allocator_ = core::make_allocator(algorithm_, context(), scenario_.allocator);
}

core::AllocContext Engine::context() noexcept {
  core::AllocContext ctx;
  ctx.cluster = cluster_.get();
  ctx.fabric = fabric_.get();
  ctx.router = router_.get();
  ctx.circuits = circuits_.get();
  ctx.bandwidth = scenario_.bandwidth;
  return ctx;
}

void Engine::set_algorithm(const std::string& algorithm) {
  if (algorithm == algorithm_) return;
  // make_allocator validates the name; algorithm_ only changes on success.
  allocator_ = core::make_allocator(algorithm, context(), scenario_.allocator);
  algorithm_ = algorithm;
}

void Engine::reset() {
  // Order matters only for clarity: circuits are records over fabric state,
  // so both are wiped; nothing here touches the heap-allocated topology.
  cluster_->reset();
  fabric_->reset();
  circuits_->clear();
  allocator_->reset();
}

SimMetrics Engine::run(const wl::Workload& workload,
                       const std::string& workload_label) {
  // Fail fast on malformed input, before any event mutates state.  (A
  // streaming run applies the identical check per chunk at intake -- the
  // whole stream cannot be pre-scanned.)
  for (std::size_t i = 0; i < workload.size(); ++i) {
    check_times(workload[i], i);
  }
  wl::WorkloadSource source(workload);
  return run_impl(source, workload_label, nullptr, nullptr);
}

SimMetrics Engine::run_stream(wl::ArrivalSource& source,
                              const std::string& workload_label,
                              const CheckpointPolicy* checkpoint) {
  source.rewind();
  return run_impl(source, workload_label, checkpoint, nullptr);
}

SimMetrics Engine::resume_stream(std::istream& checkpoint,
                                 wl::ArrivalSource& source,
                                 const CheckpointPolicy* policy) {
  // The label travels inside the checkpoint; run_impl restores it.
  return run_impl(source, std::string(), policy, &checkpoint);
}

SimMetrics Engine::run_impl(wl::ArrivalSource& source,
                            const std::string& workload_label,
                            const CheckpointPolicy* ckpt,
                            std::istream* resume) {
  Run run(*this, source, workload_label, ckpt);
  run.start(resume);

  // The merged event loop.  Next event = min over the arrival ring head
  // (time = arrival, seq = index) and the injected-event calendar head; at
  // equal times the arrival's smaller seq wins, so the comparison reduces
  // to arrival_time <= injected_time.
  //
  // The whole loop runs under the Merge span: every other phase span nests
  // inside it, so with exclusive attribution the Merge slot collects
  // exactly the loop's residual scaffolding -- ring bookkeeping, the
  // window condition, event dispatch (DESIGN.md §13).
  run.prof.begin(phase_slot(Phase::Merge));
  while (true) {
    if (run.at_chunk_boundary()) run.checkpoint_safe_point();
    const bool have_arrival = run.arrivals_pending();
    if (!have_arrival && events_.empty()) break;
    // The Calendar span brackets the merge query *and* the pop: the
    // ladder's real dequeue work (lazy tier surfacing) runs inside
    // next_time(), not inside the subsequent cursor-bump pop.
    run.prof.begin(phase_slot(Phase::Calendar));
    const SimTime limit = head_time(events_);
    if (have_arrival && run.next_arrival_time() <= limit) {
      run.prof.end();
      run.admit_window(limit);
      continue;
    }
    const auto ev = events_.pop();
    run.prof.end();
    switch (ev.payload.kind) {
      case LifecycleKind::Departure:
        run.settle_departures(ev);
        break;
      case LifecycleKind::BoxFail:
      case LifecycleKind::BoxRepair:
      case LifecycleKind::LinkFail:
      case LifecycleKind::LinkRepair:
        run.fault_action(ev);
        break;
      case LifecycleKind::Migrate:
        run.migration_sweep(ev);
        break;
      case LifecycleKind::Retry:
        run.retry(ev);
        break;
      case LifecycleKind::Arrival:
        throw std::logic_error("Engine: arrival event in injected calendar");
    }
  }
  run.prof.end();  // Merge: the loop's residual scaffolding
  return run.finish();
}

// ---- Setup, start, finish ---------------------------------------------------

Engine::Run::Run(Engine& engine, wl::ArrivalSource& src,
                 const std::string& label, const CheckpointPolicy* policy)
    : e(engine),
      cluster(*engine.cluster_),
      fabric(*engine.fabric_),
      circuits(*engine.circuits_),
      alloc(*engine.allocator_),
      source(src),
      ckpt(policy),
      tel(engine.telemetry_),
      plan(engine.fault_plan()),
      mig(engine.migration_plan()),
      migrating(!mig.empty()),
      lifecycle(!plan.empty() || migrating),
      track_power(engine.timeline_ != nullptr ||
                  (tel != nullptr && tel->category(kTracePower))),
      ledger(engine.scenario_.photonics, fabric),
      fault_rng(plan.seed) {
  prof.reset();
  prof.enable(e.profiling_);
  e.reset();
  m.algorithm = std::string(alloc.name());
  m.workload = label;

  plan.validate();
  mig.validate();
  for (const FaultAction& a : plan.actions) {
    if (a.box != FaultAction::kNoBox && a.box >= cluster.num_boxes()) {
      throw std::invalid_argument("Engine: FaultAction box id out of range");
    }
    if (a.link != FaultAction::kNoLink && a.link >= fabric.num_links()) {
      throw std::invalid_argument("Engine: FaultAction link id out of range");
    }
  }

  // Per-VM records live from admission (or first requeue) to the VM's
  // final event.  clear() keeps the slab, so a reused engine assigns the
  // same slot sequence as a fresh one.
  e.vms_.clear();
  e.spread_.clear();

  // Injected events restart their sequence numbering at the source's size
  // hint so every equal-time tie against a pending arrival (seq = workload
  // index < N) resolves in the arrival's favor.  A source that cannot know
  // its length reports 0, which is equally sound: the merge comparison is
  // structural (arrivals win ties), so a uniform shift of every injected
  // seq is behaviorally unobservable (DESIGN.md §11).
  e.events_.reset(/*first_seq=*/source.size_hint());

  // Pre-size the census-bounded containers from the size hint, capped by
  // the cluster's own hosting bound (every VM holds >= 1 CPU unit), so no
  // regrow lands inside the measured loop.  The record arena is not
  // pre-sized: it grows a page at a time without moving any record, and a
  // reserve at this cap would commit tens of MB of records no run fills.
  if (const std::uint64_t hint = source.size_hint(); hint > 0) {
    const auto cpu_units = static_cast<std::uint64_t>(
        std::max<Units>(cluster.total_capacity(ResourceType::Cpu), 0));
    const std::uint64_t census = std::min(
        hint, std::min(std::max<std::uint64_t>(cpu_units, 1), kCensusReserveCap));
    e.events_.reserve(static_cast<std::size_t>(census));
    e.scan_scratch_.reserve(static_cast<std::size_t>(census));
  }

  // Time-triggered actions enter the calendar up front (in plan order, so
  // their seq assignment is deterministic); admission-triggered ones wait
  // in a threshold-sorted queue until an admission crosses their threshold.
  e.admission_actions_.clear();
  for (std::uint32_t i = 0; i < plan.actions.size(); ++i) {
    const FaultAction& a = plan.actions[i];
    if (a.time_triggered()) {
      e.events_.push(a.at_time, LifecycleEvent{action_kind(a), i, 0});
    } else {
      e.admission_actions_.push_back(i);
    }
  }
  std::stable_sort(e.admission_actions_.begin(), e.admission_actions_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return plan.actions[a].after_admissions <
                            plan.actions[b].after_admissions;
                   });

  // Migration budget + the seed sweep, pushed after the time-triggered
  // actions: plan actions in plan order, then the first MIGRATE, then
  // stream-order events (DESIGN.md §9 extends the §8 contract).
  if (migrating) {
    migration_budget = mig.total_budget;
    e.events_.push(mig.first_sweep_time(),
                   LifecycleEvent{LifecycleKind::Migrate, 0, 0});
  }

  if (e.arrival_ring_.size() < kArrivalChunk) {
    e.arrival_ring_.resize(kArrivalChunk);
  }
}

void Engine::Run::start(std::istream* resume) {
  if (resume != nullptr) {
    CkptReader in{*resume};
    transfer(in);
  } else {
    sample_signals(0.0);
  }
  if (tel != nullptr) {
    // After restore: the sampler re-arms at the restored `now` (fresh
    // runs at 0), so no telemetry state crosses the checkpoint.
    tel->begin_run(e.algorithm_, m.workload, now);
    tel_sample();
  }
  last_ckpt_executed = executed;
}

SimMetrics Engine::Run::finish() {
  m.horizon_tu = now;
  if (m.horizon_tu <= 0.0) m.horizon_tu = 1.0;  // degenerate empty workload
  m.events_executed = executed;

  for (ResourceType ty : kAllResources) {
    m.avg_utilization[ty] = util[ty].mean(m.horizon_tu);
    m.peak_utilization[ty] = util[ty].peak();
  }
  m.avg_intra_net_utilization = intra_util.mean(m.horizon_tu);
  m.avg_inter_net_utilization = inter_util.mean(m.horizon_tu);
  m.peak_intra_net_utilization = intra_util.peak();
  m.peak_inter_net_utilization = inter_util.peak();
  m.energy = ledger.totals();
  m.avg_optical_power_w = ledger.average_power_w(m.horizon_tu);

  if (m.placed + m.dropped != m.total_vms) {
    throw std::logic_error("Engine: placement accounting mismatch");
  }
  if (live_count != 0) {
    throw std::logic_error("Engine: placements leaked past their departure");
  }
  if (!e.vms_.empty()) {
    throw std::logic_error("Engine: VM records leaked past the run end");
  }
  cluster.check_invariants();
  fabric.check_invariants();

  // Calibrate the tick rate over the whole run and settle the wall-clock
  // metrics.  Both clocks bracket the same span, so seconds-per-tick is
  // exact up to scheduling noise; a zero-tick span reports zero scheduler
  // time rather than NaN.  A resumed run's wall metrics cover only the
  // resumed segment.
  const std::uint64_t run_ticks = CycleClock::now() - run_ticks0;
  m.sim_wall_seconds =
      std::chrono::duration<double>(Clock::now() - run_t0).count();
  const double seconds_per_tick =
      run_ticks > 0 ? m.sim_wall_seconds / static_cast<double>(run_ticks) : 0.0;
  m.scheduler_exec_seconds =
      static_cast<double>(sched_ticks) * seconds_per_tick;
  if (prof.enabled()) profile_from_ticks(m.profile, prof, seconds_per_tick);
  if (tel != nullptr) {
    tel_sample();  // closing sample: the run's final (empty) census
    tel->finish_run(m.profile.recorded ? &m.profile : nullptr);
  }
  if (e.latency_hist_ != nullptr) {
    e.latency_hist_->set_value_scale(seconds_per_tick * 1e9);
  }
  return std::move(m);
}

// ---- Event-family handlers --------------------------------------------------

void Engine::Run::checkpoint_safe_point() {
  // Every pulled arrival is fully settled here, so this is where a
  // checkpoint may be taken (if due) before the next refill.
  if (ckpt != nullptr && ckpt->every_events != 0 && ckpt->emit &&
      executed - last_ckpt_executed >= ckpt->every_events) {
    last_ckpt_executed = executed;
    const ScopedCycleSpan<PhaseTimer> span(prof, phase_slot(Phase::Checkpoint));
    std::ostringstream os(std::ios::out | std::ios::binary);
    CkptWriter out{os};
    transfer(out);
    ckpt->emit(os.str());
  }
  refill_ring();
}

// Admission window (DESIGN.md §13).  The maximal run of ring arrivals that
// sorts before the calendar head is admitted under one bracket: one
// Admission span, one telemetry window and batched executed/total_vms
// counters.  Every admission pushes straight to the calendar (its
// departure, a retry, a triggered fault), and the head is re-read after
// each push, so "arrival <= limit" is exactly the merge loop's own test,
// ties included: a window reorders no event.
void Engine::Run::admit_window(SimTime limit) {
  std::uint64_t window_events = 0;
  const SimTime window_t0 = tel != nullptr ? next_arrival_time() : SimTime{0};
  const std::uint64_t placed_before = m.placed;
  prof.begin(phase_slot(Phase::Admission));
  do {
    const wl::ArrivalItem& item = e.arrival_ring_[ring_pos++];
    now = item.vm.arrival;
    if (lifecycle) note_time(now);
    ++window_events;
    // The arrival's record is claimed first and placed into; a refused VM
    // keeps it only when requeued (the retry path needs the request after
    // the ring moves on).
    VmState& st = e.vms_.find_or_insert(item.index);
    st.vm = item.vm;
    bool pushed = admit(item.index, st, item.vm.lifetime);
    if (pushed) {
      fire_admission_triggers();
    } else {
      pushed = requeue(item.index, st);
      if (!pushed) e.vms_.erase(item.index);
    }
    if (pushed) {
      limit = head_time(e.events_);
    } else {
      drop();
    }
  } while (arrivals_pending() && next_arrival_time() <= limit);
  executed += window_events;
  m.total_vms += window_events;
  prof.end();
  observe([&](Telemetry& t) {
    t.admission_window(window_t0, now, window_events, m.placed - placed_before);
  });
}

// Settlement window (DESIGN.md §12): the whole same-timestamp departure
// run (ties are contiguous at the ladder's sorted bottom tier) is popped
// and settled in one pass under one begin/end_release_batch bracket, and
// the time-weighted signals are sampled once per window (equal-time
// samples add zero area and releases never set a peak; timeline runs
// keep per-event samples because the exported series is observable).
// Settling pushes nothing onto the calendar, so the run popped here is
// exactly the equal-time departures queued when the window opened.  No
// placement can interleave: equal-time arrivals were all consumed first,
// and any other injected kind pops after the run since the calendar is
// (time, seq) ordered.  One span covers the window.
void Engine::Run::settle_departures(const Entry& first) {
  VmState* st = departing(first.payload);
  if (st == nullptr) return;
  now = first.time;
  if (lifecycle) note_time(now);
  prof.begin(phase_slot(Phase::Settlement));
  cluster.begin_release_batch();
  settle(first.payload.subject, *st);
  while (!e.events_.empty() && e.events_.next_time() == now &&
         e.events_.top().payload.kind == LifecycleKind::Departure) {
    const Entry d = e.events_.pop();
    st = departing(d.payload);
    if (st != nullptr) settle(d.payload.subject, *st);
  }
  cluster.end_release_batch();
  if (e.timeline_ == nullptr) sample_signals(now);
  prof.end();
  observe([&](Telemetry& t) { t.settlement_window(now); });
}

// One live departure of a settlement window: release, then drop the record
// (the departure is the VM's final event, so `st` dies here).
void Engine::Run::settle(std::uint32_t index, VmState& st) {
  ++executed;
  alloc.release_batched(st.placement);
  --live_count;
  if (track_power) holding_power_w -= st.holding_power;
  if (e.timeline_ != nullptr) record_state();
  e.vms_.erase(index);
}

// One scripted fail/repair action.  Random victims are drawn here, in
// merged-stream order, from the plan's own RNG stream.  Transitions are
// idempotent (re-failing an offline victim is a no-op), so duplicate
// random draws are harmless.  A failing box kills every resident VM; a
// failing link kills every live VM holding a circuit across it.
void Engine::Run::fault_action(const Entry& ev) {
  now = ev.time;
  note_time(now);
  ++executed;
  const FaultAction& a = plan.actions[ev.payload.subject];
  const bool fail = ev.payload.kind == LifecycleKind::BoxFail ||
                    ev.payload.kind == LifecycleKind::LinkFail;
  {
    const ScopedCycleSpan<PhaseTimer> span(prof, phase_slot(Phase::Settlement));
    if (a.targets_links()) {
      kill_cause = LifecycleKind::LinkFail;
      fault_scan(
          a.link, FaultAction::kNoLink, a.random_links, fabric.num_links(),
          fail,
          [&](std::uint32_t id) {
            if (fabric.link(LinkId{id}).failed() == fail) return false;
            fabric.set_link_failed(LinkId{id}, fail);
            return true;
          },
          [&](std::uint32_t id, const VmState& st) {
            if (!may_cross(st.placement, fabric.link_unchecked(LinkId{id}))) {
              return false;
            }
            bool hit = false;
            circuits.for_each_circuit_of(st.vm.id, [&](const net::Circuit& c) {
              const auto links = c.path.links();
              hit = hit || std::ranges::find(links, LinkId{id}) != links.end();
            });
            return hit;
          });
    } else {
      kill_cause = LifecycleKind::BoxFail;
      fault_scan(
          a.box, FaultAction::kNoBox, a.random_boxes, cluster.num_boxes(), fail,
          [&](std::uint32_t id) {
            if (cluster.box_unchecked(BoxId{id}).offline() == fail) return false;
            cluster.set_box_offline(BoxId{id}, fail);
            return true;
          },
          [&](std::uint32_t id, const VmState& st) {
            return holds_box(st.placement, BoxId{id});
          });
    }
    record_state();
  }
  observe([&](Telemetry& t) { t.fault(now, ev.payload.kind); });
}

void Engine::Run::retry(const Entry& ev) {
  const std::uint32_t vm_index = ev.payload.subject;
  --pending_retries;
  now = ev.time;
  note_time(now);
  ++executed;
  VmState* st = e.vms_.find(vm_index);
  if (st == nullptr) {
    throw std::logic_error("Engine: retry for unknown VM");
  }
  const bool was_placed = st->ever_placed != 0;
  const double expected = was_placed ? st->expected_hold : st->vm.lifetime;
  prof.begin(phase_slot(Phase::Admission));
  const bool readmitted = admit(vm_index, *st, expected);
  prof.end();
  if (readmitted) {
    ++m.retry_placed;
    fire_admission_triggers();
  } else if (!requeue(vm_index, *st)) {
    // Retry budget exhausted: the VM's final event, so the record goes.  A
    // VM that never ran is a final drop (killed VMs already count in
    // `placed`; their lost remainder shows in `killed` and the energy).
    if (!was_placed) drop();
    e.vms_.erase(vm_index);
  }
  if (tel != nullptr) tel->retry(now, readmitted);
}

void Engine::Run::migration_sweep(const Entry& ev) {
  // A sweep landing after the run's real work (no pending arrivals,
  // nothing live, no retries in flight) is skipped like a tombstone: it
  // neither advances the horizon nor reschedules, so periodic plans end.
  if (!arrivals_pending() && live_count == 0 && pending_retries == 0) return;
  now = ev.time;
  note_time(now);
  ++executed;
  const std::uint64_t migrated_before = m.migrated;
  {
    const ScopedCycleSpan<PhaseTimer> span(prof, phase_slot(Phase::Settlement));
    migrate_worst_spread();
  }
  observe([&](Telemetry& t) {
    t.migration_sweep(now, m.migrated - migrated_before);
  });
  if (migration_budget > 0 &&
      (arrivals_pending() || live_count > 0 || pending_retries > 0)) {
    e.events_.push(now + mig.period_tu,
                   LifecycleEvent{LifecycleKind::Migrate,
                                  ev.payload.subject + 1, 0});
  }
}

// ---- Shared helpers ---------------------------------------------------------

// One placement attempt (arrival or retry) for `vm_index` into its record
// `st`, whose request is already in place, holding for `expected` time
// units when it sticks.  On success all metrics/state updates happen here,
// in the historical order that keeps the empty-plan run bit-identical; on
// failure `st.placement` is unspecified (it is read only while live), the
// reason lands in `drop_reason`, and the caller applies its retry/drop
// policy and erases a record it claimed.  The caller holds the Admission
// span open.
bool Engine::Run::admit(std::uint32_t vm_index, VmState& st, double expected) {
  const wl::VmRequest& vm = st.vm;
  // Placement attribution is free: the run times every placement for
  // scheduler_exec_seconds anyway, so the same two reads are carved out of
  // the admission span instead of paying two more.
  const std::uint64_t t0 = CycleClock::now();
  const std::optional<core::DropReason> refused =
      alloc.place(vm, st.placement);
  const std::uint64_t t1 = CycleClock::now();
  prof.carve(phase_slot(Phase::Placement), t1 - t0);
  sched_ticks += t1 - t0;
  if (e.latency_hist_ != nullptr) {
    e.latency_hist_->add(static_cast<double>(t1 - t0));
  }
  if (refused) {
    drop_reason = *refused;
    return false;
  }
  const core::Placement& p = st.placement;
  st.live = 1;
  ++live_count;
  ++admissions;
  if (!lifecycle) {
    ++m.placed;
  } else if (!st.ever_placed) {
    ++m.placed;
    st.ever_placed = 1;
  }
  if (p.inter_rack) ++m.any_pair_inter_rack;
  if (p.used_fallback) ++m.fallback_placements;

  // Figures 5/7/10 count a VM as inter-rack when its CPU and RAM racks
  // differ; the same flag drives the RTT sample (pod-aware in the
  // three-tier extension).  Counted per placement event, so a requeued
  // VM's re-placement samples again.
  const bool cpu_ram_inter =
      p.rack(ResourceType::Cpu) != p.rack(ResourceType::Ram);
  if (cpu_ram_inter) ++m.inter_rack_placements;
  const bool cross_pod =
      cpu_ram_inter && !fabric.same_pod(p.rack(ResourceType::Cpu),
                                        p.rack(ResourceType::Ram));
  m.cpu_ram_latency_ns.add(e.scenario_.latency.rtt_ns(cpu_ram_inter, cross_pod));

  // Open the photonic charging interval at its expected length (Eq. (1)
  // prepay; a later kill settles the difference -- DESIGN.md §8).  It
  // rides in the admission span: a TSC pair would cost as much as the
  // charge itself.
  ledger.charge_vm(circuits, vm.id, expected);
  if (track_power) {
    st.holding_power = circuit_power(vm.id);
    holding_power_w += st.holding_power;
  }
  record_state();
  std::uint32_t epoch = 0;
  if (lifecycle) {
    st.place_time = now;
    st.expected_hold = expected;
    epoch = ++st.epoch;
    if (migrating) note_spread(vm_index, st);
  }
  e.events_.push(now + expected,
                 LifecycleEvent{LifecycleKind::Departure, vm_index, epoch});
  return true;
}

// Requeue `vm_index` when the retry budget allows; returns whether a RETRY
// event was scheduled.
bool Engine::Run::requeue(std::uint32_t vm_index, VmState& st) {
  if (plan.retry.max_attempts == 0 || st.attempts >= plan.retry.max_attempts) {
    return false;
  }
  ++st.attempts;
  ++m.requeued;
  ++pending_retries;
  if (tel != nullptr) tel->requeue(now);
  e.events_.push(now + plan.retry.delay_tu,
                 LifecycleEvent{LifecycleKind::Retry, vm_index, 0});
  return true;
}

void Engine::Run::drop() {
  ++m.dropped;
  m.drops_by_reason.add(drop_reason);
  if (tel != nullptr) tel->drop(now, drop_reason);
}

// Kill a resident VM at `now`: settle its charging interval, tear down
// circuits + compute, and requeue the remaining hold when policy allows.
// Without a retry this is the VM's final event and its record is erased (a
// stale Departure then tombstones on the missing record), so the caller's
// `st` is dead after this returns.  Runs inside the caller's open release
// batch.
void Engine::Run::kill_vm(std::uint32_t vm_index, VmState& st) {
  const double held = now - st.place_time;
  const double unused = st.expected_hold - held;
  prof.begin(phase_slot(Phase::Ledger));
  ledger.refund_vm_truncation(circuits, st.vm.id, unused);
  prof.end();
  alloc.release_batched(st.placement);
  st.live = 0;
  --live_count;
  ++m.killed;
  if (tel != nullptr) tel->kill(now, kill_cause);
  if (track_power) {
    holding_power_w -= st.holding_power;
    st.holding_power = 0.0;
  }
  bool retained = false;
  if (unused > 0.0) {
    st.expected_hold = unused;  // the re-placement's hold
    retained = requeue(vm_index, st);
  }
  if (!retained) e.vms_.erase(vm_index);
}

// The teardown shared by box and link faults: draw `random_draws` victims
// from [0, population) (or take the fixed `target` once), toggle each, and
// when a failure actually took effect kill every live VM `hit` names, in
// ascending VM-index order, as one settlement window.  The arena iterates
// in slot order (reuse-dependent), so the VMs `hit` names are collected
// and sorted first.  That equals the historical scan over every sorted
// live index: `hit` reads only the VM's own placement and circuits, and
// kill_vm releases and erases only the victim's own resources and record.
template <typename Toggle, typename Hit>
void Engine::Run::fault_scan(std::uint32_t target, std::uint32_t none,
                             std::uint32_t random_draws, std::size_t population,
                             bool fail, Toggle&& toggle, Hit&& hit) {
  const std::uint32_t draws = target != none ? 1 : random_draws;
  for (std::uint32_t k = 0; k < draws; ++k) {
    const std::uint32_t victim =
        target != none ? target
                       : static_cast<std::uint32_t>(fault_rng.uniform_int(
                             0, static_cast<std::int64_t>(population) - 1));
    if (!toggle(victim) || !fail) continue;
    e.scan_scratch_.clear();
    e.vms_.for_each([&](std::uint32_t i, const VmState& st) {
      if (st.live && hit(victim, st)) e.scan_scratch_.push_back(i);
    });
    std::sort(e.scan_scratch_.begin(), e.scan_scratch_.end());
    cluster.begin_release_batch();
    for (const std::uint32_t i : e.scan_scratch_) kill_vm(i, *e.vms_.find(i));
    cluster.end_release_batch();
  }
}

// One live-migration attempt at `now` (DESIGN.md §9).  Make-before-break:
// the new placement is established through the normal allocator path
// while the old one still holds its resources (the old boxes are briefly
// taken offline so the search cannot pick them), then the old circuits and
// compute are retired.  The PowerLedger charges the old circuits through
// now + cost (the double-charge window) and the new ones prepay the
// remaining hold.  Returns whether the migration committed.  Nothing here
// inserts into or erases from the record table, so `st` stays valid.
bool Engine::Run::try_migrate(std::uint32_t vm_index) {
  VmState& st = *e.vms_.find(vm_index);
  const wl::VmRequest& vm = st.vm;
  const core::Placement& old_p = st.placement;
  const int old_score = migration_spread_score(old_p, fabric);
  const double remaining = st.place_time + st.expected_hold - now;
  // remaining > cost is guaranteed by the sweep's candidate filter.
  const double cost = migration_cost_tu(
      mig, vm.ram_mb, old_p.demand.cpu_ram,
      e.scenario_.photonics.switch_energy.seconds_per_time_unit);
  const auto k_old =
      static_cast<std::uint32_t>(circuits.circuit_count_of(vm.id));

  // Exclude the current boxes from the search (one box per resource type),
  // remembering exactly what was toggled.
  std::array<BoxId, kNumResourceTypes> toggled;
  std::size_t n_toggled = 0;
  for (ResourceType t : kAllResources) {
    const BoxId b = old_p.box(t);
    if (!cluster.box_unchecked(b).offline()) {
      cluster.set_box_offline(b, true);
      toggled[n_toggled++] = b;
    }
  }
  // Not counted into scheduler_exec_seconds or the latency histogram:
  // Figures 11/12 measure admission scheduling only.
  const bool placed = !alloc.place(vm, placing);
  for (std::size_t k = 0; k < n_toggled; ++k) {
    cluster.set_box_offline(toggled[k], false);
  }
  if (!placed) return false;  // nowhere better; placement untouched

  const core::Placement& new_p = placing;
  if (mig.only_if_improves &&
      migration_spread_score(new_p, fabric) >= old_score) {
    // No improvement: roll the fresh placement back.  Its circuits are
    // exactly the suffix after the old placement's.
    circuits.teardown_suffix(vm.id, k_old);
    for (ResourceType t : kAllResources) {
      cluster.release(new_p.compute[index(t)]);
    }
    return false;
  }

  // Settle the ledger at the migration instant: the old circuits (the
  // prefix, in establishment order) refund their tail beyond the cost
  // window; the new ones open an interval for the remaining hold.
  std::size_t pos = 0;
  prof.begin(phase_slot(Phase::Ledger));
  circuits.for_each_circuit_of(vm.id, [&](const net::Circuit& c) {
    if (pos < k_old) {
      ledger.refund_circuit_truncation(c, remaining - cost);
    } else {
      ledger.charge_circuit(c, remaining);
    }
    ++pos;
  });
  prof.end();

  // Retire the old placement: circuits, then compute.
  circuits.teardown_prefix(vm.id, k_old);
  const bool was_inter =
      old_p.rack(ResourceType::Cpu) != old_p.rack(ResourceType::Ram);
  for (ResourceType t : kAllResources) {
    cluster.release(old_p.compute[index(t)]);
  }

  const bool now_inter =
      new_p.rack(ResourceType::Cpu) != new_p.rack(ResourceType::Ram);
  st.placement = std::move(placing);  // old_p now reads the new placement
  st.place_time = now;
  st.expected_hold = remaining;
  const std::uint32_t epoch = ++st.epoch;
  note_spread(vm_index, st);
  e.events_.push(now + remaining,
                 LifecycleEvent{LifecycleKind::Departure, vm_index, epoch});

  ++m.migrated;
  m.migration_tu += cost;
  if (was_inter && !now_inter) ++m.interrack_vms_recovered;

  if (track_power) {
    const double vm_power = circuit_power(vm.id);
    holding_power_w += vm_power - st.holding_power;
    st.holding_power = vm_power;
  }
  record_state();
  return true;
}

// Enter a placement that just opened in the migration candidate list when
// it is spread (DESIGN.md §9.1).  A push that takes the list past
// spread_bound() first drops the stale entries, so the list stays O(live)
// however far apart (or skipped) the sweeps are.
void Engine::Run::note_spread(std::uint32_t vm_index, const VmState& st) {
  if (migration_spread_score(st.placement, fabric) <= 0) return;
  e.spread_.push_back({vm_index, st.epoch});
  if (e.spread_.size() > spread_bound()) {
    walk_spread([](std::uint32_t, const VmState&) {});
  }
  assert(e.spread_.size() <= spread_bound());
}

// Compact the candidate list in place, dropping every entry whose record
// is gone, not live or in another epoch, and hand each current one to
// `fn` with its record.
template <typename Fn>
void Engine::Run::walk_spread(Fn&& fn) {
  std::size_t kept = 0;
  for (const SpreadEntry c : e.spread_) {
    const VmState* st = e.vms_.find(c.vm);
    if (st == nullptr || !st->live || st->epoch != c.epoch) continue;
    e.spread_[kept++] = c;
    fn(c.vm, *st);
  }
  e.spread_.resize(kept);
}

// Whether `st`'s remaining hold outlasts its migration cost.
bool Engine::Run::outlasts_cost(const VmState& st) const noexcept {
  const double remaining = st.place_time + st.expected_hold - now;
  return remaining >
         migration_cost_tu(
             mig, st.vm.ram_mb, st.placement.demand.cpu_ram,
             e.scenario_.photonics.switch_energy.seconds_per_time_unit);
}

// The defragmentation sweep body: gather the spread live VMs whose
// remaining hold outlasts their migration cost, rank them worst-first,
// and attempt up to the per-sweep budget.  The candidate list holds every
// current spread placement in some order; the candidate keys are unique
// (the packed key embeds the VM index) and rank_worst_spread totally
// orders them, so list order is unobservable.
void Engine::Run::migrate_worst_spread() {
  if (mig.skip_while_degraded && degraded()) return;
  e.mig_keys_.clear();
  std::size_t spread = 0;
  walk_spread([&](std::uint32_t i, const VmState& st) {
    ++spread;  // counts toward the fraction trigger even when doomed
    // Filter doomed candidates here, not in try_migrate: a near-departure
    // VM ranked first would otherwise burn a per-sweep attempt slot.
    if (!outlasts_cost(st)) return;
    e.mig_keys_.push_back(
        pack_candidate(migration_spread_score(st.placement, fabric), i));
  });
#ifndef NDEBUG
  check_spread_list(spread);
#endif
  if (e.mig_keys_.empty() || live_count == 0) return;
  if (static_cast<double>(spread) <
      mig.min_interrack_fraction * static_cast<double>(live_count)) {
    return;
  }
  const std::size_t budget = std::min<std::size_t>(
      e.mig_keys_.size(),
      std::min<std::size_t>(mig.per_sweep_budget, migration_budget));
  rank_worst_spread(e.mig_keys_, budget);
  for (std::size_t k = 0; k < budget; ++k) {
    if (try_migrate(candidate_index(e.mig_keys_[k]))) --migration_budget;
  }
}

#ifndef NDEBUG
// Debug cross-check of the candidate list against the full arena walk it
// replaces: the same live census, spread count and candidate keys.
void Engine::Run::check_spread_list(std::size_t spread) const {
  std::size_t live = 0, walked_spread = 0;
  std::vector<std::uint64_t> walked;
  e.vms_.for_each([&](std::uint32_t i, const VmState& st) {
    if (!st.live) return;
    ++live;
    const int score = migration_spread_score(st.placement, fabric);
    if (score <= 0) return;
    ++walked_spread;
    if (outlasts_cost(st)) walked.push_back(pack_candidate(score, i));
  });
  std::vector<std::uint64_t> listed = e.mig_keys_;
  std::ranges::sort(walked);
  std::ranges::sort(listed);
  assert(live == live_count);
  assert(walked_spread == spread);
  assert(walked == listed);
}
#endif

// The departure liveness test: the record `ev` ends, or nullptr for a
// tombstone -- the stale departure of a placement a kill or migration
// already closed (its record is gone, no longer live, or in a later epoch).
// Plan-free runs have no tombstones.
Engine::VmState* Engine::Run::departing(const LifecycleEvent& ev) {
  VmState* st = e.vms_.find(ev.subject);
  if (st != nullptr && st->live && ev.epoch == st->epoch) return st;
  if (!lifecycle) {
    throw std::logic_error("Engine: departure for unknown placement");
  }
  return nullptr;
}

// Inject admission-triggered fault actions whose threshold the latest
// successful placement crossed.  They enter the merged stream at `now`
// (seq > N), so they fire after the admission that tripped them and before
// any later-time event.
void Engine::Run::fire_admission_triggers() {
  while (next_admission_action < e.admission_actions_.size()) {
    const std::uint32_t ai = e.admission_actions_[next_admission_action];
    const FaultAction& a = plan.actions[ai];
    if (a.after_admissions > static_cast<std::int64_t>(admissions)) break;
    ++next_admission_action;
    e.events_.push(now, LifecycleEvent{action_kind(a), ai, 0});
  }
}

void Engine::Run::refill_ring() {
  const ScopedCycleSpan<PhaseTimer> span(prof, phase_slot(Phase::SourcePull));
  ring_len = source.next_batch(
      std::span<wl::ArrivalItem>(e.arrival_ring_.data(), kArrivalChunk));
  ring_pos = 0;
  if (ring_len == 0) {
    source_done = true;
    return;
  }
  for (std::size_t i = 0; i < ring_len; ++i) {
    wl::ArrivalItem& it = e.arrival_ring_[i];
    // A VM is its workload index from here on: the circuit table and the
    // placement records key on vm.id, and trace ids need not be unique.
    it.vm.id = VmId{it.index};
    check_times(it.vm, it.index);
    if (seen_arrival &&
        (it.vm.arrival < last_arrival ||
         (it.vm.arrival == last_arrival && it.index <= last_arrival_index))) {
      throw std::invalid_argument(
          "Engine: arrival source violates (arrival, index) ordering");
    }
    last_arrival = it.vm.arrival;
    last_arrival_index = it.index;
    seen_arrival = true;
  }
}

bool Engine::Run::degraded() const noexcept {
  return cluster.offline_box_count() > 0 || fabric.failed_link_count() > 0;
}

void Engine::Run::note_time(SimTime t) {
  if (degraded()) m.degraded_tu += t - last_event_t;
  last_event_t = t;
}

/// Instantaneous optical holding power of `vm`'s circuits.
double Engine::Run::circuit_power(VmId vm) const {
  double w = 0.0;
  circuits.for_each_circuit_of(vm, [&](const net::Circuit& c) {
    w += ledger.holding_power_w(c);
  });
  return w;
}

void Engine::Run::sample_signals(SimTime t) {
  for (ResourceType ty : kAllResources) {
    util[ty].update(t, cluster.utilization(ty));
  }
  intra_util.update(t, fabric.intra_utilization());
  inter_util.update(t, fabric.inter_utilization());
}

/// Sample the signals at `now` and append a timeline point (when one is
/// attached).
void Engine::Run::record_state() {
  sample_signals(now);
  if (e.timeline_ == nullptr) return;
  TimelinePoint p;
  p.time = now;
  p.active_vms = live_count;
  p.placed_total = m.placed;
  p.dropped_total = m.dropped;
  p.killed_total = m.killed;
  p.migrated_total = m.migrated;
  p.offline_boxes = cluster.offline_box_count();
  p.failed_links = fabric.failed_link_count();
  for (ResourceType ty : kAllResources) {
    p.utilization[ty] = cluster.utilization(ty);
  }
  p.intra_net_utilization = fabric.intra_utilization();
  p.inter_net_utilization = fabric.inter_utilization();
  p.optical_power_w = holding_power_w;
  e.timeline_->record(p);
}

/// One telemetry counter-track sample at `now` (tel != nullptr).
void Engine::Run::tel_sample() {
  Telemetry::CounterSample s;
  s.live_vms = live_count;
  s.offline_boxes = cluster.offline_box_count();
  s.failed_links = fabric.failed_link_count();
  s.arrival_ring_depth = ring_len - ring_pos;
  s.calendar_events = e.events_.size();
  s.holding_power_w = holding_power_w;
  tel->sample(now, s);
}

/// The telemetry tail every windowed handler shares: run `hook` on the
/// armed telemetry, then take a counter sample when the cadence is due.
template <typename Hook>
void Engine::Run::observe(Hook&& hook) {
  if (tel == nullptr) return;
  hook(*tel);
  if (tel->sample_due(now)) tel_sample();
}

// ---- Checkpoint format v1 (DESIGN.md §11, §16) ------------------------------
// The one definition of the v1 layout: checkpointing and resuming both run
// this walk, so each field is listed once.  Taken only at the loop's safe
// point (arrival ring empty, top of the merge loop): every consumed
// arrival has been fully admitted/dropped/requeued, and the source's own
// position marks the first unconsumed request.  Wall-clock state
// (sched_ticks, the latency histogram, the profiler, telemetry) is
// measurement, not simulation, and is never serialized.
template <typename Ar>
void Engine::Run::transfer(Ar& ar) {
  std::uint32_t magic = kCheckpointMagic;
  ar.u32(magic);
  if (magic != kCheckpointMagic) {
    throw std::runtime_error("checkpoint: bad magic");
  }
  ar.str(m.workload);
  std::string algo = e.algorithm_;
  ar.str(algo);
  if (algo != e.algorithm_) {
    throw std::runtime_error("checkpoint: algorithm mismatch (checkpoint '" +
                             algo + "', engine '" + e.algorithm_ + "')");
  }

  // Loop scalars.
  ar.f64(now);
  ar.f64(last_event_t);
  ar.u64(executed);
  ar.u64(live_count);
  ar.u64(admissions);
  ar.u64(next_admission_action);
  ar.u64(pending_retries);
  ar.u32(migration_budget);
  ar.f64(last_arrival);
  ar.u32(last_arrival_index);
  ar.u8(seen_arrival);

  // Deterministic metric accumulators.
  for (std::uint64_t* c :
       {&m.total_vms, &m.placed, &m.dropped, &m.inter_rack_placements,
        &m.any_pair_inter_rack, &m.fallback_placements, &m.killed,
        &m.requeued, &m.retry_placed, &m.migrated,
        &m.interrack_vms_recovered}) {
    ar.u64(*c);
  }
  ar.f64(m.degraded_tu);
  ar.f64(m.migration_tu);
  transfer_saved(ar, m.cpu_ram_latency_ns);
  DropTally& drops = m.drops_by_reason;
  ar.u64(drops.kinds);
  if (Ar::kLoading && drops.kinds > core::kNumDropReasons) {
    throw std::runtime_error("checkpoint: bad drop table");
  }
  for (std::size_t k = 0; k < drops.kinds; ++k) {
    ar.u8(drops.first_seen[k], core::kNumDropReasons, "bad drop reason");
  }
  for (std::int64_t& c : drops.counts) ar.i64(c);
  if (Ar::kLoading && !drops.consistent()) {
    throw std::runtime_error("checkpoint: bad drop table");
  }
  for (ResourceType ty : kAllResources) transfer_saved(ar, util[ty]);
  transfer_saved(ar, intra_util);
  transfer_saved(ar, inter_util);
  transfer_saved(ar, ledger);

  std::vector<LinkId> failed_links;
  transfer_cluster(ar, failed_links);
  transfer_records(ar);
  std::uint32_t next_circuit_id = circuits.next_id();
  ar.u32(next_circuit_id);
  if constexpr (Ar::kLoading) {
    circuits.set_next_id(next_circuit_id);
    // Link failures are re-applied only now: a consistent checkpoint has
    // no live circuit over a failed link, but the fabric cannot know that
    // until the adopted circuits' reservations exist.
    for (const LinkId l : failed_links) fabric.set_link_failed(l, true);
  }

  // Injected-event calendar as the canonical sorted (time, seq) entry
  // sequence -- the ladder's tiers are an implementation detail (DESIGN.md
  // §12).  Restore accepts any entry order, so verbatim heap arrays from
  // older checkpoints stay readable.
  std::uint64_t next_seq = e.events_.scheduled_total();
  ar.u64(next_seq);
  std::vector<Entry> entries;
  if constexpr (!Ar::kLoading) entries = e.events_.sorted_entries();
  ar.seq(entries, [&](auto& en) {
    ar.f64(en.time);
    ar.u64(en.seq);
    ar.u8(en.payload.kind, kNumLifecycleKinds, "bad event kind");
    ar.u32(en.payload.subject,
           is_fault_kind(en.payload.kind) ? plan.actions.size() : kUnbounded,
           "fault action index out of range");
    ar.u32(en.payload.epoch);
  });
  Xoshiro256::State rng_state = fault_rng.generator().state();
  for (std::uint64_t& w : rng_state) ar.u64(w);
  if constexpr (Ar::kLoading) {
    e.events_.restore(std::move(entries), next_seq);
    fault_rng.generator().set_state(rng_state);
    alloc.restore_state(ar.is);
    source.restore_position(ar.is);
  } else {
    alloc.save_state(ar.os);
    source.save_position(ar.os);
  }
}

// Cluster occupancy and fault flags.  Loading checks the snapshot's shape
// before applying it and hands the failed links back for deferred
// re-application.
template <typename Ar>
void Engine::Run::transfer_cluster(Ar& ar, std::vector<LinkId>& failed_links) {
  topo::ClusterSnapshot snap;
  std::vector<BoxId> offline;
  if constexpr (!Ar::kLoading) {
    snap = cluster.snapshot();
    for (std::uint32_t b = 0; b < cluster.num_boxes(); ++b) {
      if (cluster.box_unchecked(BoxId{b}).offline()) offline.push_back(BoxId{b});
    }
    for (std::uint32_t l = 0; l < fabric.num_links(); ++l) {
      if (fabric.link(LinkId{l}).failed()) failed_links.push_back(LinkId{l});
    }
  }
  ar.seq(snap.brick_available, [&](auto& bricks) {
    ar.seq(bricks, [&](auto& units) { ar.i64(units); });
  });
  ar.seq(offline, [&](auto& b) {
    ar.u32(b, cluster.num_boxes(), "box id out of range");
  });
  ar.seq(failed_links, [&](auto& l) {
    ar.u32(l, fabric.num_links(), "link id out of range");
  });
  if constexpr (Ar::kLoading) {
    bool fits = snap.brick_available.size() == cluster.num_boxes();
    for (std::uint32_t b = 0; fits && b < snap.brick_available.size(); ++b) {
      fits = snap.brick_available[b].size() ==
             cluster.box_unchecked(BoxId{b}).brick_count();
    }
    if (!fits) throw std::runtime_error("checkpoint: cluster shape mismatch");
    cluster.restore(snap);  // also clears every offline flag
    for (const BoxId b : offline) cluster.set_box_offline(b, true);
  }
}

// VM records in ascending index order (the arena iterates in slot order,
// so the bytes depend only on the record set, never the container --
// DESIGN.md §13).  Live records carry their placement and their circuits,
// the latter in establishment order so adopt() replays
// for_each_circuit_of identically.
//
// The stored widths are the v1 format's (i64 slice units, u64 sequence
// lengths); loading narrows them into the compact records only after a
// range check, bounds every path and slice list by its capacity, and
// hands each live placement to a BrickLedger.
template <typename Ar>
void Engine::Run::transfer_records(Ar& ar) {
  std::uint64_t n_records = 0;
  if constexpr (!Ar::kLoading) {
    e.scan_scratch_.clear();
    e.vms_.for_each([&](std::uint32_t idx, const VmState&) {
      e.scan_scratch_.push_back(idx);
    });
    std::sort(e.scan_scratch_.begin(), e.scan_scratch_.end());
    n_records = e.scan_scratch_.size();
  }
  ar.u64(n_records);
  const auto link_field = [&](auto& l) {
    ar.u32(l, fabric.num_links(), "link id out of range");
  };
  const auto switch_field = [&](auto& s) {
    ar.u32(s, fabric.num_switches(), "switch id out of range");
  };
  // The switch list and the inter-rack byte are derived from the links,
  // so the reader checks them against the links instead of storing them.
  const auto circuit_fields = [&](auto& c) {
    ar.u32(c.id);
    ar.u32(c.vm);
    ar.u8(c.flow, kNumFlowKinds, "bad circuit flow");
    ar.i64(c.bandwidth);
    if constexpr (Ar::kLoading) {
      std::vector<LinkId> links;
      std::vector<SwitchId> switches;
      ar.seq(links, link_field, net::CircuitPath::kMaxLinks,
             "circuit path too long");
      ar.seq(switches, switch_field, net::CircuitPath::kMaxSwitches,
             "circuit path too long");
      for (const LinkId l : links) c.path.push_link(l);
      const net::SwitchList derived = fabric.path_switches(c.path);
      if (derived.empty()) {
        throw std::runtime_error("checkpoint: circuit links do not chain");
      }
      if (!std::ranges::equal(derived, switches)) {
        throw std::runtime_error(
            "checkpoint: circuit switches do not match its links");
      }
    } else {
      ar.seq(c.path.links(), link_field);
      ar.seq(fabric.path_switches(c.path), switch_field);
    }
    ar.u8(c.path.inter_rack);
    // Only an inter-rack route climbs past the rack switch.
    if (Ar::kLoading && c.path.inter_rack != (c.path.hop_count() > 2)) {
      throw std::runtime_error(
          "checkpoint: circuit inter-rack flag does not match its hops");
    }
  };
  std::optional<BrickLedger> ledger;
  if constexpr (Ar::kLoading) ledger.emplace(cluster);
  std::size_t restored_live = 0;
  for (std::uint64_t r = 0; r < n_records; ++r) {
    std::uint32_t idx = Ar::kLoading ? 0 : e.scan_scratch_[r];
    VmState loaded;
    VmState& st = Ar::kLoading ? loaded : *e.vms_.find(idx);
    ar.u32(idx, SlotArena<VmState>::kEmptyKey, "record index out of range");
    ar.u32(st.vm.id);
    if (Ar::kLoading && st.vm.id.value() != idx) {
      throw std::runtime_error("checkpoint: vm id is not its record index");
    }
    ar.i64(st.vm.cores);
    ar.i64(st.vm.ram_mb);
    ar.i64(st.vm.storage_mb);
    ar.f64(st.vm.arrival);
    ar.f64(st.vm.lifetime);
    ar.u32(st.attempts);
    ar.u32(st.epoch);
    ar.f64(st.place_time);
    ar.f64(st.expected_hold);
    ar.f64(st.holding_power);
    ar.u8(st.live);
    ar.u8(st.ever_placed);
    if (st.live) {
      core::Placement& p = st.placement;
      ar.u32(p.vm);
      if (Ar::kLoading && p.vm != st.vm.id) {
        throw std::runtime_error(
            "checkpoint: placement vm is not its record's");
      }
      for (ResourceType t : kAllResources) {
        topo::BoxAllocation& a = p.compute[index(t)];
        ar.u32(a.box, cluster.num_boxes(), "box id out of range");
        const topo::Box& box = cluster.box_unchecked(a.box);
        // The type and the units are stored in the v1 widths: the type
        // is its box's, and the units fit a u32 because the box does.
        ResourceType type = box.type();
        ar.u8(type, kNumResourceTypes, "bad resource type");
        std::int64_t units = a.units;
        ar.i64(units);
        if constexpr (Ar::kLoading) {
          if (type != t || box.type() != t) {
            throw std::runtime_error(
                "checkpoint: allocation type is not its box's");
          }
          if (units < 1 || units > box.capacity_units()) {
            throw std::runtime_error(
                "checkpoint: allocation units out of range");
          }
          a.units = static_cast<std::uint32_t>(units);
        }
        ar.seq(
            a.slices,
            [&](auto& sl) {
              ar.u32(sl.brick, box.brick_count(), "brick index out of range");
              std::int64_t units = sl.units;
              ar.i64(units);
              if constexpr (Ar::kLoading) {
                if (units < 1 || units > box.brick_capacity(sl.brick)) {
                  throw std::runtime_error(
                      "checkpoint: slice units out of range");
                }
                sl.units = static_cast<std::uint32_t>(units);
              }
            },
            box.brick_count(), "more slices than bricks");
      }
      for (RackId& rack : p.racks) {
        ar.u32(rack, cluster.num_racks(), "rack id out of range");
      }
      for (const topo::BoxAllocation& a : p.compute) {
        std::int64_t demand = a.units;
        ar.i64(demand);
        if (Ar::kLoading && demand != a.units) {
          throw std::runtime_error(
              "checkpoint: allocation units are not the VM's demand");
        }
      }
      ar.i64(p.demand.cpu_ram);
      ar.i64(p.demand.ram_sto);
      ar.u8(p.inter_rack);
      ar.u8(p.used_fallback);
      if constexpr (Ar::kLoading) {
        ledger->add(p);
        ++restored_live;
        holding_power_w += st.holding_power;
        std::uint64_t n_circuits = 0;
        ar.u64(n_circuits);
        for (std::uint64_t k = 0; k < n_circuits; ++k) {
          net::Circuit c;
          circuit_fields(c);
          if (c.vm != st.vm.id) {
            throw std::runtime_error(
                "checkpoint: circuit vm is not its record's");
          }
          circuits.adopt(std::move(c));
        }
      } else {
        ar.u64(circuits.circuit_count_of(st.vm.id));
        circuits.for_each_circuit_of(st.vm.id, circuit_fields);
      }
    }
    if constexpr (Ar::kLoading) e.vms_.find_or_insert(idx) = std::move(st);
  }
  if (Ar::kLoading && restored_live != live_count) {
    throw std::runtime_error("checkpoint: live record count mismatch");
  }
  if constexpr (Ar::kLoading) {
    ledger->check_conservation();
    // The migration candidate list is derived state: rebuilt, not stored.
    if (migrating) {
      e.vms_.for_each([&](std::uint32_t i, const VmState& restored) {
        if (restored.live) note_spread(i, restored);
      });
    }
  }
}

}  // namespace risa::sim

#include "layer_replay.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/cycle_clock.hpp"
#include "common/rack_set.hpp"
#include "common/trace_writer.hpp"
#include "core/registry.hpp"
#include "des/ladder_calendar.hpp"
#include "network/circuit.hpp"
#include "network/fabric.hpp"
#include "network/routing.hpp"
#include "photonics/power_ledger.hpp"
#include "topology/cluster.hpp"

namespace risa::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Arrival refill size, the engine's own.
constexpr std::size_t kArrivalChunk = 1024;
/// VMs whose spans go to the trace file (about 10 spans each).
constexpr std::uint32_t kTracedVms = 20'000;
/// Trace id of spans that belong to no VM (calendar peeks).
constexpr std::uint32_t kNoVm = std::numeric_limits<std::uint32_t>::max();
/// Recorded network operations replayed per flush.
constexpr std::size_t kNetChunk = std::size_t{1} << 16;
constexpr std::size_t kEmptySpanSamples = std::size_t{1} << 16;

enum Layer : std::size_t {
  kCallPull,
  kCallPeek,
  kCallPop,
  kCallPush,
  kCallEligible,
  kCallPlaceOk,
  kCallPlaceFail,
  kCallCharge,
  kCallBeginBatch,
  kCallRelease,
  kCallEndBatch,
  kSpanArrival,    // trace only: encloses one VM's admission calls
  kSpanDeparture,  // trace only: encloses one VM's dequeue and release
  kNumLayers
};

struct LayerInfo {
  const char* name;
  const char* cat;
  bool loop_track;  // batch-level call: drawn on the loop track, not the VM's
};
constexpr std::array<LayerInfo, kNumLayers> kLayers{{
    {"workload.next_batch", "workload", true},
    {"des.next_time", "des", true},
    {"des.pop", "des", false},
    {"des.push", "des", false},
    {"topology.eligible_racks", "topology", false},
    {"core.try_place", "core", false},
    {"core.try_place", "core", false},
    {"photonics.charge_vm", "photonics", false},
    {"topology.begin_release_batch", "topology", true},
    {"core.release_batched", "core", false},
    {"topology.end_release_batch", "topology", true},
    {"sim.arrival", "sim", false},
    {"sim.departure", "sim", false},
}};

/// Per-layer call aggregates plus the buffered spans of the traced VMs.
class Recorder {
 public:
  Recorder() { spans_.reserve(std::size_t{kTracedVms} * 10); }

  void add(Layer layer, std::uint64_t t0, std::uint64_t t1, std::uint32_t vm) {
    ++calls_[layer];
    ticks_[layer] += t1 - t0;
    if (vm < kTracedVms) spans_.push_back({t0, t1, vm, layer});
  }

  [[nodiscard]] std::uint64_t calls(Layer l) const { return calls_[l]; }
  [[nodiscard]] std::uint64_t ticks(Layer l) const { return ticks_[l]; }

  /// Spans sorted so every enclosing span precedes the spans it contains.
  void write_trace(const std::string& path, std::uint64_t tick0,
                   double us_per_tick) {
    std::sort(spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
      return a.t0 != b.t0 ? a.t0 < b.t0 : a.t1 > b.t1;
    });
    TraceWriter w(path);
    if (!w.ok()) throw std::runtime_error("cannot write trace " + path);
    w.process_name("risa_benchmark layer replay");
    w.thread_name(0, "loop");
    for (const Span& s : spans_) {
      const LayerInfo& info = kLayers[s.layer];
      // tid 0 is the loop track; VM i's spans share tid i + 1.
      const std::uint32_t tid = info.loop_track ? 0 : s.vm + 1;
      w.span(info.name, info.cat,
             static_cast<double>(s.t0 - tick0) * us_per_tick,
             static_cast<double>(s.t1 - s.t0) * us_per_tick, tid);
    }
    w.close();
  }

 private:
  struct Span {
    std::uint64_t t0;
    std::uint64_t t1;
    std::uint32_t vm;
    Layer layer;
  };
  std::array<std::uint64_t, kNumLayers> calls_{};
  std::array<std::uint64_t, kNumLayers> ticks_{};
  std::vector<Span> spans_;
};

/// Mean ns per call of `calls` spans totalling `ticks`, each carrying
/// `overhead` ticks of clock reads; NaN when there were no calls.
double mean_ns(std::uint64_t ticks, std::uint64_t calls, double overhead,
               double ns_per_tick) {
  if (calls == 0) return std::numeric_limits<double>::quiet_NaN();
  return (static_cast<double>(ticks) / static_cast<double>(calls) - overhead) *
         ns_per_tick;
}

/// Ticks between two back-to-back clock reads: the cost every span adds to
/// the call it brackets.  The median, because one preemption of the VM
/// inside the sampling loop would shift a mean by tens of ns.
double empty_span_ticks() {
  std::vector<std::uint64_t> d(kEmptySpanSamples);
  for (std::uint64_t& x : d) {
    const std::uint64_t t0 = CycleClock::now();
    const std::uint64_t t1 = CycleClock::now();
    x = t1 - t0;
  }
  const auto mid = d.begin() + static_cast<std::ptrdiff_t>(d.size() / 2);
  std::nth_element(d.begin(), mid, d.end());
  return static_cast<double>(*mid);
}

/// Records the circuits of each placement and each teardown, and replays
/// them in order on a fresh fabric, timing every call.
class NetworkReplay {
 public:
  explicit NetworkReplay(const sim::Scenario& scenario)
      : fabric_(scenario.cluster, scenario.fabric),
        router_(fabric_),
        table_(router_) {
    ops_.reserve(kNetChunk);
  }

  void record_establish(const net::CircuitTable& live, VmId vm) {
    live.for_each_circuit_of(vm, [&](const net::Circuit& c) {
      ops_.push_back({vm, c.flow, c.bandwidth, c.path, true});
    });
  }
  void record_teardown(VmId vm) { ops_.push_back({vm, {}, 0, {}, false}); }
  [[nodiscard]] bool full() const { return ops_.size() >= kNetChunk; }

  /// Replays the recorded operations; returns the wall seconds it took.
  double flush() {
    const auto w0 = Clock::now();
    for (Op& op : ops_) {
      if (op.establish) {
        const std::uint32_t hops =
            static_cast<std::uint32_t>(op.path.hop_count());
        const bool inter = op.path.inter_rack;
        const std::uint64_t t0 = CycleClock::now();
        auto id = table_.establish(op.vm, op.flow, op.bw, std::move(op.path));
        const std::uint64_t t1 = CycleClock::now();
        if (!id.ok()) {
          throw std::runtime_error("network replay: establish diverged for VM " +
                                   std::to_string(op.vm.value()) + ": " +
                                   id.error());
        }
        establish_.add(t1 - t0);
        hops_ += hops;
        inter_ += inter ? 1 : 0;
      } else {
        const std::uint64_t t0 = CycleClock::now();
        (void)table_.teardown_vm(op.vm);
        const std::uint64_t t1 = CycleClock::now();
        teardown_.add(t1 - t0);
      }
    }
    ops_.clear();
    return std::chrono::duration<double>(Clock::now() - w0).count();
  }

  void finish(ReplayResult& out, double overhead, double ns_per_tick) {
    if (table_.active_count() != 0 || fabric_.intra_allocated() != 0 ||
        fabric_.inter_allocated() != 0) {
      throw std::runtime_error("network replay: circuits left after the run");
    }
    out.ns[kEstablish] = establish_.cost(overhead, ns_per_tick);
    out.ns[kTeardown] = teardown_.cost(overhead, ns_per_tick);
    if (establish_.calls > 0) {
      const auto n = static_cast<double>(establish_.calls);
      out.hops_mean = static_cast<double>(hops_) / n;
      out.inter_rack_circuit_ratio = static_cast<double>(inter_) / n;
    }
  }

 private:
  struct Op {
    VmId vm;
    net::FlowKind flow;
    MbitsPerSec bw;
    net::CircuitPath path;
    bool establish;
  };
  struct Stat {
    std::uint64_t calls = 0;
    std::uint64_t ticks = 0;
    void add(std::uint64_t t) {
      ++calls;
      ticks += t;
    }
    [[nodiscard]] double cost(double overhead, double ns_per_tick) const {
      return mean_ns(ticks, calls, overhead, ns_per_tick);
    }
  };

  net::Fabric fabric_;
  net::Router router_;
  net::CircuitTable table_;
  std::vector<Op> ops_;
  Stat establish_;
  Stat teardown_;
  std::uint64_t hops_ = 0;
  std::uint64_t inter_ = 0;
};

}  // namespace

ReplayResult run_layer_replay(const sim::Scenario& scenario,
                              const std::string& algorithm,
                              wl::ArrivalSource& source,
                              const std::string& trace_path) {
  const double overhead = empty_span_ticks();

  topo::Cluster cluster(scenario.cluster);
  net::Fabric fabric(scenario.cluster, scenario.fabric);
  net::Router router(fabric);
  net::CircuitTable circuits(router);
  core::AllocContext ctx;
  ctx.cluster = &cluster;
  ctx.fabric = &fabric;
  ctx.router = &router;
  ctx.circuits = &circuits;
  ctx.bandwidth = scenario.bandwidth;
  const std::unique_ptr<core::Allocator> allocator =
      core::make_allocator(algorithm, ctx, scenario.allocator);
  phot::PowerLedger ledger(scenario.photonics, fabric);
  NetworkReplay network(scenario);
  const UnitScale& scale = scenario.cluster.unit_scale;

  // A departure's calendar payload is its slot in the live-placement pool.
  struct Live {
    core::Placement placement;
    std::uint32_t vm = 0;  // workload index
  };
  std::vector<Live> slots;
  std::vector<std::uint32_t> free_slots;
  using Calendar = des::LadderCalendar<std::uint32_t>;
  Calendar calendar;
  std::vector<Calendar::Entry> batch;
  std::vector<std::uint64_t> batch_pop_t0;
  std::vector<wl::ArrivalItem> ring(kArrivalChunk);
  std::size_t ring_pos = 0;
  std::size_t ring_len = 0;
  bool source_done = false;
  RackSet pool;
  Recorder rec;
  ReplayResult out;
  std::uint64_t depth_sum = 0;
  double network_s = 0.0;

  source.rewind();
  const auto wall0 = Clock::now();
  const std::uint64_t tick0 = CycleClock::now();
  while (true) {
    if (ring_pos >= ring_len && !source_done) {
      const std::uint64_t t0 = CycleClock::now();
      ring_len = source.next_batch(std::span<wl::ArrivalItem>(ring));
      const std::uint64_t t1 = CycleClock::now();
      ring_pos = 0;
      if (ring_len == 0) {
        source_done = true;
      } else {
        rec.add(kCallPull, t0, t1, ring[0].index);
        out.total_vms += ring_len;
      }
    }
    const bool have_arrival = ring_pos < ring_len;
    if (!have_arrival && calendar.empty()) break;
    SimTime limit = std::numeric_limits<SimTime>::infinity();
    if (!calendar.empty()) {
      const std::uint64_t t0 = CycleClock::now();
      limit = calendar.next_time();
      rec.add(kCallPeek, t0, CycleClock::now(), kNoVm);
    }

    if (have_arrival && ring[ring_pos].vm.arrival <= limit) {
      // Arrival: arrivals win every time tie against a departure.
      const wl::ArrivalItem& item = ring[ring_pos++];
      const std::uint32_t id = item.index;
      const SimTime now = item.vm.arrival;
      const UnitVector demand = item.vm.units(scale);
      const std::uint64_t a0 = CycleClock::now();
      cluster.eligible_racks(demand, pool);
      std::uint64_t t0 = CycleClock::now();
      rec.add(kCallEligible, a0, t0, id);
      auto placed = allocator->try_place(item.vm);
      std::uint64_t t1 = CycleClock::now();
      if (!placed.ok()) {
        rec.add(kCallPlaceFail, t0, t1, id);
        rec.add(kSpanArrival, a0, t1, id);
        ++out.dropped;
        continue;
      }
      rec.add(kCallPlaceOk, t0, t1, id);
      core::Placement& p = placed.value();
      ++out.placed;
      if (p.rack(ResourceType::Cpu) != p.rack(ResourceType::Ram)) {
        ++out.inter_rack;
      }
      if (p.used_fallback) ++out.fallback;
      network.record_establish(circuits, item.vm.id);

      t0 = CycleClock::now();
      ledger.charge_vm(circuits, item.vm.id, item.vm.lifetime);
      t1 = CycleClock::now();
      rec.add(kCallCharge, t0, t1, id);

      std::uint32_t slot = 0;
      if (free_slots.empty()) {
        slot = static_cast<std::uint32_t>(slots.size());
        slots.emplace_back();
      } else {
        slot = free_slots.back();
        free_slots.pop_back();
      }
      slots[slot] = Live{std::move(p), id};
      t0 = CycleClock::now();
      calendar.push(now + item.vm.lifetime, slot);
      t1 = CycleClock::now();
      rec.add(kCallPush, t0, t1, id);
      rec.add(kSpanArrival, a0, t1, id);
      continue;
    }

    // Settlement window: the whole equal-time departure run, released
    // under one begin/end_release_batch bracket.
    batch.clear();
    batch_pop_t0.clear();
    depth_sum += calendar.size();
    std::uint64_t t0 = CycleClock::now();
    batch.push_back(calendar.pop());
    std::uint64_t t1 = CycleClock::now();
    rec.add(kCallPop, t0, t1, slots[batch.back().payload].vm);
    batch_pop_t0.push_back(t0);
    const SimTime now = batch.front().time;
    while (!calendar.empty()) {
      t0 = CycleClock::now();
      const SimTime next = calendar.next_time();
      rec.add(kCallPeek, t0, CycleClock::now(), kNoVm);
      if (next != now) break;
      depth_sum += calendar.size();
      t0 = CycleClock::now();
      batch.push_back(calendar.pop());
      t1 = CycleClock::now();
      rec.add(kCallPop, t0, t1, slots[batch.back().payload].vm);
      batch_pop_t0.push_back(t0);
    }
    const std::uint32_t first_vm = slots[batch.front().payload].vm;
    t0 = CycleClock::now();
    cluster.begin_release_batch();
    t1 = CycleClock::now();
    rec.add(kCallBeginBatch, t0, t1, first_vm);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::uint32_t slot = batch[i].payload;
      const Live& live = slots[slot];
      network.record_teardown(live.placement.vm);
      t0 = CycleClock::now();
      allocator->release_batched(live.placement);
      t1 = CycleClock::now();
      rec.add(kCallRelease, t0, t1, live.vm);
      rec.add(kSpanDeparture, batch_pop_t0[i], t1, live.vm);
      free_slots.push_back(slot);
    }
    t0 = CycleClock::now();
    cluster.end_release_batch();
    t1 = CycleClock::now();
    rec.add(kCallEndBatch, t0, t1, first_vm);
    if (network.full()) network_s += network.flush();
  }
  const std::uint64_t ticks = CycleClock::now() - tick0;
  const double wall =
      std::chrono::duration<double>(Clock::now() - wall0).count();
  const double ns_per_tick =
      ticks > 0 ? wall * 1e9 / static_cast<double>(ticks) : 0.0;
  network.flush();

  if (circuits.active_count() != 0 || fabric.intra_allocated() != 0 ||
      fabric.inter_allocated() != 0) {
    throw std::runtime_error("layer replay: circuits left after the run");
  }
  cluster.check_invariants();
  fabric.check_invariants();

  auto cost = [&](Layer l) {
    return mean_ns(rec.ticks(l), rec.calls(l), overhead, ns_per_tick);
  };
  // Per VM pulled rather than per call: one call pulls a whole chunk.
  const auto pulls = static_cast<double>(rec.calls(kCallPull));
  out.ns[kPullPerVm] =
      cost(kCallPull) * pulls / static_cast<double>(out.total_vms);
  out.ns[kPush] = cost(kCallPush);
  // Dequeue cost per departure: the lazy tier surfacing runs in next_time,
  // so every peek is charged to the pops it serves.
  const auto pops = static_cast<double>(rec.calls(kCallPop));
  const auto peeks = static_cast<double>(rec.calls(kCallPeek));
  out.ns[kPop] = (static_cast<double>(rec.ticks(kCallPeek) +
                                      rec.ticks(kCallPop)) -
                  overhead * (peeks + pops)) /
                 pops * ns_per_tick;
  out.depth_mean = static_cast<double>(depth_sum) / pops;
  out.ns[kPlaceOk] = cost(kCallPlaceOk);
  out.ns[kPlaceFail] = cost(kCallPlaceFail);
  out.ns[kEligibleRacks] = cost(kCallEligible);
  out.ns[kChargeVm] = cost(kCallCharge);
  out.ns[kRelease] = cost(kCallRelease);
  out.ns[kEndReleaseBatch] = cost(kCallEndBatch);
  network.finish(out, overhead, ns_per_tick);
  out.span_overhead_ns = overhead * ns_per_tick;
  out.wall_s = wall - network_s;
  if (!trace_path.empty()) {
    rec.write_trace(trace_path, tick0, ns_per_tick / 1000.0);
  }
  return out;
}

void ReplayResult::keep_fastest(const ReplayResult& other) {
  for (std::size_t i = 0; i < kNumCosts; ++i) {
    ns[i] = std::fmin(ns[i], other.ns[i]);  // NaN-aware: a never-run call
  }
  span_overhead_ns = std::fmin(span_overhead_ns, other.span_overhead_ns);
  wall_s = std::fmin(wall_s, other.wall_s);
}

}  // namespace risa::bench

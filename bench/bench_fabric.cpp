// Network-layer microbenchmark: best-uplink upkeep, path selection,
// circuit set-up/teardown, per-VM power-ledger settlement and NALB's
// bandwidth-ordered companion search, isolated from the engine loop on a
// churned 256-rack cluster (DESIGN.md §15), and the topology build itself
// (DESIGN.md §17).
//
//   ./bench_fabric [--benchmark_filter=...] [--benchmark_min_time=...]
//
// Rows:
//   BM_UplinkUpkeep/<group>      Fabric::allocate then release of one
//                                channel on the cached best uplink of a
//                                random box (0: 6-link group) or rack (1:
//                                18-link group): the allocation rescans
//                                the group, the release re-ranks one link;
//   BM_FirstFit/<group>          Fabric::first_fit on a box's 6-link (0)
//                                or a rack's 18-link (1) group, the fitting
//                                position drawn uniformly per call;
//   BM_FindPath/<policy>         Router::find_path over random box pairs
//                                (half intra-, half inter-rack);
//   BM_EstablishTeardown/<policy> the same path, routed and reserved
//                                through CircuitTable::connect, then
//                                teardown_vm;
//   BM_CircuitChurn              CircuitTable insert/erase at a fixed live
//                                census: each iteration establishes two
//                                pre-routed circuits for the newest VM id
//                                and tears down the oldest VM's two;
//   BM_LedgerChargeRefund        PowerLedger::charge_vm then
//                                refund_vm_truncation on the next of the
//                                same 13,000 live VMs, round robin;
//   BM_VmRecordChurn             the engine's two per-live-VM records at
//                                the same census: each iteration admits
//                                the newest VM (three box allocations into
//                                the placement of its arena-held
//                                sim::Engine::VmState, two routed
//                                circuits) and settles the oldest (circuits
//                                torn down, allocations released, record
//                                erased and reset by VmState::recycle(),
//                                as the engine's arena resets it); the
//                                record_bytes counter is
//                                what a live engine VM holds, both arena
//                                slots with their headers
//                                (Engine::kLiveVmRecordBytes);
//   BM_CompanionSearch/<order>   bfs_search(GlobalOrder) from random anchor
//                                racks for random (type, units) demands;
//   BM_FabricBuild/<racks>       net::Fabric construction for a Table 1
//                                rack shape (18 to 4,096 racks);
//   BM_ClusterBuild/<racks>      topo::Cluster construction;
//   BM_EngineBuild/<racks>       sim::Engine construction (cluster, fabric,
//                                router, circuit table, RISA allocator).
// The build rows report items_per_second in racks: 1e9 / items_per_second
// is the build cost per rack, flat when the build is linear in the racks.
// <policy> is 0 = FirstFit (NULB, RISA), 1 = MostAvailable (NALB); <order>
// is 0 = BoxIdOrder (NULB), 1 = BandwidthDescending (NALB).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/slot_arena.hpp"
#include "core/placement.hpp"
#include "core/search.hpp"
#include "network/circuit.hpp"
#include "network/fabric.hpp"
#include "network/routing.hpp"
#include "photonics/power_ledger.hpp"
#include "sim/engine.hpp"
#include "sim/scenario.hpp"
#include "topology/cluster.hpp"

namespace {

using namespace risa;

constexpr std::uint64_t kSeed = 20231112;
constexpr std::size_t kQueries = 4096;  // power of two: index by mask

topo::ClusterConfig cluster_shape() {
  topo::ClusterConfig config;
  config.racks = 256;
  return config;
}

/// Cluster and fabric in a steady-state-like condition: boxes about half
/// full, and whole channels reserved at random so rack uplinks (NALB's
/// inter-rack hops) are the most congested tier, leaving uneven headroom.
struct ChurnedStack {
  ChurnedStack()
      : cluster(cluster_shape()), fabric(cluster_shape(), net::FabricConfig{}) {
    Rng rng(kSeed);
    topo::BoxAllocation taken;
    for (std::size_t i = 0; i < cluster.num_boxes(); ++i) {
      const BoxId box{static_cast<std::uint32_t>(i)};
      (void)cluster.allocate_into(box, rng.uniform_int(0, 96), taken);
    }
    const MbitsPerSec channel = fabric.config().channel_rate;
    for (std::size_t i = 0; i < fabric.num_links(); ++i) {
      const LinkId id{static_cast<std::uint32_t>(i)};
      const std::int64_t max_channels =
          fabric.link(id).kind() == net::LinkKind::RackUplink ? 8 : 4;
      (void)fabric.allocate(id, channel * rng.uniform_int(0, max_channels));
    }
  }

  topo::Cluster cluster;
  net::Fabric fabric;
};

ChurnedStack& stack() {
  static ChurnedStack s;
  return s;
}

struct PathQuery {
  BoxId src, dst;
  RackId src_rack, dst_rack;
};

std::vector<PathQuery> make_path_queries(const topo::Cluster& cluster) {
  Rng rng(kSeed + 1);
  const auto racks = static_cast<std::int64_t>(cluster.num_racks());
  const auto per_rack =
      static_cast<std::int64_t>(cluster.config().total_boxes_per_rack());
  std::vector<PathQuery> queries;
  while (queries.size() < kQueries) {
    const auto src_rack = rng.uniform_int(0, racks - 1);
    const auto dst_rack =
        queries.size() % 2 == 0 ? src_rack : rng.uniform_int(0, racks - 1);
    const BoxId src{static_cast<std::uint32_t>(
        src_rack * per_rack + rng.uniform_int(0, per_rack - 1))};
    const BoxId dst{static_cast<std::uint32_t>(
        dst_rack * per_rack + rng.uniform_int(0, per_rack - 1))};
    if (src == dst) continue;
    queries.push_back({src, dst, RackId{static_cast<std::uint32_t>(src_rack)},
                       RackId{static_cast<std::uint32_t>(dst_rack)}});
  }
  return queries;
}

void BM_UplinkUpkeep(benchmark::State& state) {
  net::Fabric& fabric = stack().fabric;
  const bool rack = state.range(0) == 1;
  const auto groups = static_cast<std::int64_t>(
      rack ? stack().cluster.num_racks() : stack().cluster.num_boxes());
  Rng rng(kSeed + 4);
  std::vector<std::uint32_t> owners(kQueries);
  for (std::uint32_t& owner : owners) {
    owner = static_cast<std::uint32_t>(rng.uniform_int(0, groups - 1));
  }
  const MbitsPerSec bw = fabric.config().channel_rate;
  std::size_t i = 0;
  for (auto _ : state) {
    const LinkId best = rack ? fabric.best_rack_uplink(RackId{owners[i]})
                             : fabric.best_box_uplink(BoxId{owners[i]});
    const bool taken = fabric.allocate(best, bw);
    benchmark::DoNotOptimize(taken);
    if (taken) fabric.release(best, bw);
    i = (i + 1) & (kQueries - 1);
  }
  const std::uint32_t links =
      rack ? fabric.config().links_per_rack : fabric.config().links_per_box;
  state.SetLabel(std::to_string(links) + (rack ? "-link rack" : "-link box"));
}
BENCHMARK(BM_UplinkUpkeep)->Arg(0)->Arg(1);

/// Fabric::first_fit over the uplink groups of a Table 1 fabric whose free
/// bandwidth rises along each group: link i of an n-link group keeps
/// (i + 1) / n of its capacity, so a demand of k / n first fits at position
/// k - 1.  Each query draws its group and k uniformly, so the fitting
/// position changes from call to call, as on the placement path.
void BM_FirstFit(benchmark::State& state) {
  const topo::ClusterConfig shape;
  net::Fabric fabric(shape, net::FabricConfig{});
  const bool rack = state.range(0) == 1;
  const std::uint32_t groups = rack ? shape.racks : shape.total_boxes();
  const auto group_of = [&](std::uint32_t g) {
    return rack ? fabric.rack_uplinks(RackId{g}) : fabric.box_uplinks(BoxId{g});
  };
  const auto n = static_cast<std::int64_t>(group_of(0).size());
  const MbitsPerSec step = fabric.config().link_capacity / n;
  for (std::uint32_t g = 0; g < groups; ++g) {
    const std::span<const LinkId> group = group_of(g);
    for (std::size_t i = 0; i < group.size(); ++i) {
      const auto keep = static_cast<std::int64_t>(i) + 1;
      if (!fabric.allocate(group[i], fabric.config().link_capacity - keep * step)) {
        state.SkipWithError("uplink allocation failed");
        return;
      }
    }
  }
  struct Query {
    std::span<const LinkId> group;
    MbitsPerSec bw;
  };
  Rng rng(kSeed + 5);
  std::vector<Query> queries(kQueries);
  for (Query& q : queries) {
    q.group = group_of(static_cast<std::uint32_t>(rng.uniform_int(0, groups - 1)));
    q.bw = rng.uniform_int(1, n) * step;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fabric.first_fit(queries[i].group, queries[i].bw));
    i = (i + 1) & (kQueries - 1);
  }
  state.SetLabel(std::to_string(n) + (rack ? "-link rack" : "-link box"));
}
BENCHMARK(BM_FirstFit)->Arg(0)->Arg(1);

net::LinkSelectPolicy policy_arg(const benchmark::State& state) {
  return state.range(0) == 0 ? net::LinkSelectPolicy::FirstFit
                             : net::LinkSelectPolicy::MostAvailable;
}

void BM_FindPath(benchmark::State& state) {
  net::Router router(stack().fabric);
  const auto queries = make_path_queries(stack().cluster);
  const auto policy = policy_arg(state);
  const MbitsPerSec bw = gbps(25.0);
  std::size_t i = 0;
  net::CircuitPath path;
  for (auto _ : state) {
    const PathQuery& q = queries[i];
    benchmark::DoNotOptimize(router.find_path(q.src, q.src_rack, q.dst,
                                              q.dst_rack, bw, policy, path));
    benchmark::DoNotOptimize(path);
    i = (i + 1) & (kQueries - 1);
  }
  state.SetLabel(std::string(net::name(policy)));
}
BENCHMARK(BM_FindPath)->Arg(0)->Arg(1);

void BM_EstablishTeardown(benchmark::State& state) {
  net::Router router(stack().fabric);
  net::CircuitTable circuits(router);
  const auto queries = make_path_queries(stack().cluster);
  const auto policy = policy_arg(state);
  const MbitsPerSec bw = gbps(25.0);
  const VmId vm{1};
  std::size_t i = 0;
  for (auto _ : state) {
    const PathQuery& q = queries[i];
    if (circuits.connect(vm, net::FlowKind::CpuRam, bw, q.src, q.src_rack,
                         q.dst, q.dst_rack, policy)) {
      benchmark::DoNotOptimize(circuits.teardown_vm(vm));
    }
    i = (i + 1) & (kQueries - 1);
  }
  state.SetLabel(std::string(net::name(policy)));
}
BENCHMARK(BM_EstablishTeardown)->Arg(0)->Arg(1);

/// Live VMs in BM_CircuitChurn and BM_LedgerChargeRefund: the census of
/// the end-to-end benchmark's rack256-load090-risa workload.
constexpr std::uint32_t kChurnLiveVms = 13000;

/// kChurnLiveVms VMs holding two pre-routed circuits each (CPU-RAM, then
/// RAM-storage), oldest first.  A failed reservation skips the row; the
/// destructor tears every circuit down, leaving the shared fabric as found.
class LiveCircuits {
 public:
  explicit LiveCircuits(benchmark::State& state)
      : state_(state), router_(stack().fabric), circuits_(router_) {
    // First-fit paths at 10 Mb/s only cross links with a free 25 Gb/s
    // channel, and the window's 26k circuits put about 1 Gb/s on the
    // busiest rack uplink, so no reservation fails.
    for (const PathQuery& q : make_path_queries(stack().cluster)) {
      net::CircuitPath path;
      if (router_.find_path(q.src, q.src_rack, q.dst, q.dst_rack, kBw,
                            net::LinkSelectPolicy::FirstFit, path)) {
        paths_.push_back(path);
      }
    }
    while (full_ && live_.size() < kChurnLiveVms) full_ = admit();
  }
  LiveCircuits(const LiveCircuits&) = delete;
  LiveCircuits& operator=(const LiveCircuits&) = delete;
  ~LiveCircuits() {
    for (const VmId vm : live_) circuits_.teardown_vm(vm);
  }

  /// Establish the next VM's two circuits; false (row skipped) on failure.
  bool admit() {
    const VmId vm{next_vm_++};
    live_.push_back(vm);
    for (const net::FlowKind flow :
         {net::FlowKind::CpuRam, net::FlowKind::RamStorage}) {
      if (!circuits_.establish(vm, flow, kBw, paths_[next_path_]).ok()) {
        state_.SkipWithError("circuit reservation failed");
        return false;
      }
      next_path_ = (next_path_ + 1) % paths_.size();
    }
    return true;
  }

  /// Setup reached the full census.
  [[nodiscard]] bool full() const noexcept { return full_; }
  [[nodiscard]] net::CircuitTable& table() noexcept { return circuits_; }
  [[nodiscard]] std::deque<VmId>& vms() noexcept { return live_; }

 private:
  static constexpr MbitsPerSec kBw = 10;

  benchmark::State& state_;
  net::Router router_;
  net::CircuitTable circuits_;
  std::vector<net::CircuitPath> paths_;
  std::size_t next_path_ = 0;
  std::uint32_t next_vm_ = 0;
  std::deque<VmId> live_;
  bool full_ = true;
};

void BM_CircuitChurn(benchmark::State& state) {
  LiveCircuits live(state);
  if (live.full()) {
    for (auto _ : state) {
      if (!live.admit()) break;
      benchmark::DoNotOptimize(live.table().teardown_vm(live.vms().front()));
      live.vms().pop_front();
    }
  }
  state.SetLabel(std::to_string(kChurnLiveVms) + " live VMs");
}
BENCHMARK(BM_CircuitChurn);

void BM_LedgerChargeRefund(benchmark::State& state) {
  LiveCircuits live(state);
  phot::PowerLedger ledger(phot::PhotonicConfig{}, stack().fabric);
  std::size_t next = 0;
  if (live.full()) {
    for (auto _ : state) {
      const VmId vm = live.vms()[next];
      benchmark::DoNotOptimize(ledger.charge_vm(live.table(), vm, 6300.0));
      benchmark::DoNotOptimize(
          ledger.refund_vm_truncation(live.table(), vm, 3150.0));
      next = next + 1 == live.vms().size() ? 0 : next + 1;
    }
  }
  state.SetLabel(std::to_string(kChurnLiveVms) + " live VMs");
}
BENCHMARK(BM_LedgerChargeRefund);

/// kChurnLiveVms placed VMs, oldest first: each holds a sim::Engine::VmState
/// in a VM-keyed SlotArena (the engine's record arena and record type, so
/// an erase runs VmState::recycle(), DESIGN.md §13) and two circuits in the
/// CircuitTable (§7.2).  Every VM is intra-rack -- CPU, RAM
/// and storage boxes of one rack, 1-4 units each, the rack256 RISA
/// workload's success path -- on a fresh cluster, with its circuits
/// reserved at 10 Mb/s on the shared churned fabric.  VMs go round robin
/// over racks, then over each rack's boxes, so the live window puts at most
/// 26 VMs (104 units) on any 128-unit box and no allocation fails.  A
/// failed allocation or reservation would skip the row; the destructor
/// settles every VM, leaving the shared fabric as found.
class LiveRecords {
 public:
  explicit LiveRecords(benchmark::State& state)
      : state_(state),
        cluster_(cluster_shape()),
        router_(stack().fabric),
        circuits_(router_) {
    Rng rng(kSeed + 3);
    const std::size_t racks = cluster_.num_racks();
    specs_.resize(kSpecs);
    for (std::size_t i = 0; i < kSpecs; ++i) {
      VmSpec& spec = specs_[i];
      spec.rack = RackId{static_cast<std::uint32_t>(i % racks)};
      for (const ResourceType t : kAllResources) {
        const std::span<const BoxId> boxes = cluster_.rack(spec.rack).boxes(t);
        spec.boxes[t] = boxes[(i / racks) % boxes.size()];
        spec.units[t] = rng.uniform_int(1, 4);
      }
    }
    while (full_ && live_.size() < kChurnLiveVms) full_ = admit();
  }
  LiveRecords(const LiveRecords&) = delete;
  LiveRecords& operator=(const LiveRecords&) = delete;
  ~LiveRecords() {
    while (!live_.empty()) settle_oldest();
  }

  /// Place the next VM; false (row skipped) on failure.
  bool admit() {
    const VmSpec& spec = specs_[next_vm_ & (kSpecs - 1)];
    const VmId vm{next_vm_++};
    sim::Engine::VmState& st = records_.find_or_insert(vm.value());
    st.vm.id = vm;
    core::Placement& p = st.placement;
    p.vm = vm;
    live_.push_back(vm);
    for (const ResourceType t : kAllResources) {
      if (!cluster_.allocate_into(spec.boxes[t], spec.units[t],
                                  p.compute[index(t)])) {
        state_.SkipWithError("box allocation failed");
        return false;
      }
      p.racks[index(t)] = spec.rack;
    }
    const std::pair<ResourceType, ResourceType> flows[] = {
        {ResourceType::Cpu, ResourceType::Ram},
        {ResourceType::Ram, ResourceType::Storage}};
    for (const auto& [src, dst] : flows) {
      if (!circuits_.connect(vm,
                             src == ResourceType::Cpu
                                 ? net::FlowKind::CpuRam
                                 : net::FlowKind::RamStorage,
                             kBw, p.box(src), spec.rack, p.box(dst), spec.rack,
                             net::LinkSelectPolicy::FirstFit)) {
        state_.SkipWithError("circuit reservation failed");
        return false;
      }
    }
    st.live = 1;
    st.ever_placed = 1;
    return true;
  }

  /// Release the oldest VM's circuits and boxes and erase its record.
  void settle_oldest() {
    const VmId vm = live_.front();
    live_.pop_front();
    circuits_.teardown_vm(vm);
    sim::Engine::VmState& st = *records_.find(vm.value());
    for (const topo::BoxAllocation& a : st.placement.compute) {
      if (!a.empty()) cluster_.release(a);
    }
    st.live = 0;
    records_.erase(vm.value());
  }

  [[nodiscard]] bool full() const noexcept { return full_; }

 private:
  static constexpr MbitsPerSec kBw = 10;
  /// Power of two past kChurnLiveVms: no spec is live twice at once.
  static constexpr std::size_t kSpecs = 16384;

  struct VmSpec {
    RackId rack;
    PerResource<BoxId> boxes;
    UnitVector units;
  };

  benchmark::State& state_;
  topo::Cluster cluster_;
  net::Router router_;
  net::CircuitTable circuits_;
  SlotArena<sim::Engine::VmState> records_;
  std::vector<VmSpec> specs_;
  std::uint32_t next_vm_ = 0;
  std::deque<VmId> live_;
  bool full_ = true;
};

void BM_VmRecordChurn(benchmark::State& state) {
  LiveRecords live(state);
  if (live.full()) {
    for (auto _ : state) {
      if (!live.admit()) break;
      live.settle_oldest();
    }
  }
  state.counters["record_bytes"] =
      static_cast<double>(sim::Engine::kLiveVmRecordBytes);
  state.SetLabel(std::to_string(kChurnLiveVms) + " live VMs");
}
BENCHMARK(BM_VmRecordChurn);

struct SearchQuery {
  RackId anchor;
  ResourceType type;
  Units units;
};

void BM_CompanionSearch(benchmark::State& state) {
  const topo::Cluster& cluster = stack().cluster;
  const net::Fabric& fabric = stack().fabric;
  const auto order = state.range(0) == 0 ? core::NeighborOrder::BoxIdOrder
                                         : core::NeighborOrder::BandwidthDescending;
  Rng rng(kSeed + 2);
  std::vector<SearchQuery> queries(kQueries);
  for (SearchQuery& q : queries) {
    q.anchor = RackId{static_cast<std::uint32_t>(
        rng.uniform_int(0, cluster.num_racks() - 1))};
    q.type = kAllResources[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    q.units = rng.uniform_int(1, 32);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const SearchQuery& q = queries[i];
    benchmark::DoNotOptimize(core::bfs_search(cluster, fabric, q.anchor, q.type,
                                              q.units, order,
                                              core::CompanionSearch::GlobalOrder,
                                              core::RackFilter{}));
    i = (i + 1) & (kQueries - 1);
  }
  state.SetLabel(order == core::NeighborOrder::BoxIdOrder ? "box-id"
                                                         : "bandwidth");
}
BENCHMARK(BM_CompanionSearch)->Arg(0)->Arg(1);

void set_build_counters(benchmark::State& state) {
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel(std::to_string(state.range(0)) + " racks");
}

void BM_FabricBuild(benchmark::State& state) {
  topo::ClusterConfig shape;
  shape.racks = static_cast<std::uint32_t>(state.range(0));
  const net::FabricConfig config;
  for (auto _ : state) {
    const net::Fabric fabric(shape, config);
    benchmark::DoNotOptimize(fabric.num_links());
  }
  set_build_counters(state);
}
BENCHMARK(BM_FabricBuild)->Arg(18)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ClusterBuild(benchmark::State& state) {
  topo::ClusterConfig shape;
  shape.racks = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    const topo::Cluster cluster(shape);
    benchmark::DoNotOptimize(cluster.num_boxes());
  }
  set_build_counters(state);
}
BENCHMARK(BM_ClusterBuild)->Arg(18)->Arg(256);

void BM_EngineBuild(benchmark::State& state) {
  sim::Scenario scenario = sim::Scenario::paper_defaults();
  scenario.cluster.racks = static_cast<std::uint32_t>(state.range(0));
  const std::string algorithm = "RISA";
  for (auto _ : state) {
    sim::Engine engine(scenario, algorithm);
    benchmark::DoNotOptimize(engine.fabric().num_links());
  }
  set_build_counters(state);
}
BENCHMARK(BM_EngineBuild)->Arg(18)->Arg(256);

}  // namespace

BENCHMARK_MAIN();

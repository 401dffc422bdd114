// Network-layer microbenchmark: path selection, circuit set-up/teardown and
// NALB's bandwidth-ordered companion search, isolated from the engine loop
// on a churned 256-rack cluster (DESIGN.md §15).
//
//   ./bench_fabric [--benchmark_filter=...] [--benchmark_min_time=...]
//
// Rows:
//   BM_FindPath/<policy>         Router::find_path over random box pairs
//                                (half intra-, half inter-rack);
//   BM_EstablishTeardown/<policy> the same path, reserved through
//                                CircuitTable::establish, then teardown_vm;
//   BM_CircuitChurn              CircuitTable insert/erase at a fixed live
//                                census: each iteration establishes two
//                                pre-routed circuits for the newest VM id
//                                and tears down the oldest VM's two;
//   BM_CompanionSearch/<order>   bfs_search(GlobalOrder) from random anchor
//                                racks for random (type, units) demands.
// <policy> is 0 = FirstFit (NULB, RISA), 1 = MostAvailable (NALB); <order>
// is 0 = BoxIdOrder (NULB), 1 = BandwidthDescending (NALB).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/search.hpp"
#include "network/circuit.hpp"
#include "network/fabric.hpp"
#include "network/routing.hpp"
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
    for (std::size_t i = 0; i < cluster.num_boxes(); ++i) {
      const BoxId box{static_cast<std::uint32_t>(i)};
      (void)cluster.allocate(box, rng.uniform_int(0, 96));
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
  for (auto _ : state) {
    const PathQuery& q = queries[i];
    benchmark::DoNotOptimize(
        router.find_path(q.src, q.src_rack, q.dst, q.dst_rack, bw, policy));
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
    auto path = router.find_path(q.src, q.src_rack, q.dst, q.dst_rack, bw, policy);
    if (path.ok()) {
      benchmark::DoNotOptimize(circuits.establish(vm, net::FlowKind::CpuRam, bw,
                                                  std::move(path.value())));
      benchmark::DoNotOptimize(circuits.teardown_vm(vm));
    }
    i = (i + 1) & (kQueries - 1);
  }
  state.SetLabel(std::string(net::name(policy)));
}
BENCHMARK(BM_EstablishTeardown)->Arg(0)->Arg(1);

/// Live VMs in BM_CircuitChurn: the census of the end-to-end benchmark's
/// rack256-load090-risa workload.
constexpr std::uint32_t kChurnLiveVms = 13000;

void BM_CircuitChurn(benchmark::State& state) {
  net::Router router(stack().fabric);
  net::CircuitTable circuits(router);
  // First-fit paths at 10 Mb/s only cross links with a free 25 Gb/s
  // channel, and the window's 26k circuits put about 1 Gb/s on the busiest
  // rack uplink, so no reservation fails.
  const MbitsPerSec bw = 10;
  std::vector<net::CircuitPath> paths;
  for (const PathQuery& q : make_path_queries(stack().cluster)) {
    auto path = router.find_path(q.src, q.src_rack, q.dst, q.dst_rack, bw,
                                 net::LinkSelectPolicy::FirstFit);
    if (path.ok()) paths.push_back(std::move(path.value()));
  }
  std::size_t next_path = 0;
  std::uint32_t next_vm = 0;
  std::deque<VmId> live;
  const auto admit = [&] {
    const VmId vm{next_vm++};
    live.push_back(vm);
    for (const net::FlowKind flow :
         {net::FlowKind::CpuRam, net::FlowKind::RamStorage}) {
      if (!circuits.establish(vm, flow, bw, paths[next_path]).ok()) {
        state.SkipWithError("circuit reservation failed");
        return false;
      }
      next_path = (next_path + 1) % paths.size();
    }
    return true;
  };
  bool ok = true;
  while (ok && live.size() < kChurnLiveVms) ok = admit();
  if (ok) {
    for (auto _ : state) {
      if (!admit()) break;
      benchmark::DoNotOptimize(circuits.teardown_vm(live.front()));
      live.pop_front();
    }
  }
  // The fabric is shared with the other rows: leave it as found.
  for (const VmId vm : live) circuits.teardown_vm(vm);
  state.SetLabel(std::to_string(kChurnLiveVms) + " live VMs");
}
BENCHMARK(BM_CircuitChurn);

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
                                              std::nullopt));
    i = (i + 1) & (kQueries - 1);
  }
  state.SetLabel(order == core::NeighborOrder::BoxIdOrder ? "box-id"
                                                         : "bandwidth");
}
BENCHMARK(BM_CompanionSearch)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();

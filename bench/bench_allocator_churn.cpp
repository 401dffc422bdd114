// Placement-layer microbenchmark: the allocator's admit/release cost on a
// cluster held at a steady live census, isolated from the engine loop
// (event calendar, ledger, records), for each paper algorithm on the
// 18-rack Table 1 cluster and a 256-rack one.
//
// Each iteration retires the oldest live VM (Allocator::release) and
// places the next VM of a fixed §5.1-mix stream (CPU uniform{1..32} cores,
// RAM uniform{1..32} GB, 128 GB storage) into the slot it freed
// (Allocator::place writes the record in place).  The census is 90% of
// what the racks hold on average (57 VMs a Table 1 rack), so every search
// runs on a loaded, fragmented cluster.
//
//   ./bench_allocator_churn [--benchmark_filter=...] [--benchmark_min_time=...]
//
// Rows: BM_AdmitRelease/<algorithm>/<racks>, ns per admit+release pair,
// with the share of attempts that placed as a counter.
//
// Driver mode: `--emit_json[=path]` writes the committed
// BENCH_allocator.json via steady_clock timing loops (warmup + best-of-3).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "core/registry.hpp"
#include "network/circuit.hpp"
#include "network/fabric.hpp"
#include "network/routing.hpp"
#include "topology/cluster.hpp"

namespace {

using namespace risa;

constexpr std::uint32_t kRackCounts[] = {18, 256};
constexpr std::uint64_t kSeed = 20231112;
/// VMs a Table 1 rack holds on average under the §5.1 mix.
constexpr std::uint32_t kVmsPerRack = 57;
constexpr std::size_t kStream = 1 << 16;

/// One cluster + fabric + allocator, held at a live census of 90% of
/// capacity by the churn loop.
class Churn {
 public:
  Churn(const std::string& algorithm, std::uint32_t racks)
      : shape_(shape(racks)),
        cluster_(shape_),
        fabric_(shape_, net::FabricConfig{}),
        router_(fabric_),
        circuits_(router_),
        alloc_(core::make_allocator(algorithm, context())),
        live_(racks * kVmsPerRack * 9 / 10),
        held_(live_.size(), false) {
    Rng rng(kSeed);
    stream_.resize(kStream);
    for (wl::VmRequest& vm : stream_) {
      vm.cores = rng.uniform_int(1, 32);
      vm.ram_mb = gb(static_cast<double>(rng.uniform_int(1, 32)));
      vm.storage_mb = gb(128.0);
    }
    // Fill, then run the census through once so the timed loop starts
    // from a churned cluster.
    for (std::size_t i = 0; i < 2 * live_.size(); ++i) step();
    attempts_ = 0;
    placed_ = 0;
  }
  Churn(const Churn&) = delete;
  Churn& operator=(const Churn&) = delete;

  /// Retire the oldest VM, place the next one into its slot; returns
  /// whether it placed.
  bool step() {
    core::Placement& slot = live_[head_];
    if (held_[head_]) alloc_->release(slot);
    wl::VmRequest vm = stream_[next_ % kStream];
    vm.id = VmId{next_++};
    const bool placed = !alloc_->place(vm, slot);
    held_[head_] = placed;
    ++attempts_;
    placed_ += placed ? 1 : 0;
    head_ = head_ + 1 == live_.size() ? 0 : head_ + 1;
    return placed;
  }

  [[nodiscard]] double placed_fraction() const {
    return attempts_ > 0 ? static_cast<double>(placed_) /
                               static_cast<double>(attempts_)
                         : 0.0;
  }

 private:
  static topo::ClusterConfig shape(std::uint32_t racks) {
    topo::ClusterConfig cfg;
    cfg.racks = racks;
    return cfg;
  }
  core::AllocContext context() {
    core::AllocContext ctx;
    ctx.cluster = &cluster_;
    ctx.fabric = &fabric_;
    ctx.router = &router_;
    ctx.circuits = &circuits_;
    return ctx;
  }

  topo::ClusterConfig shape_;
  topo::Cluster cluster_;
  net::Fabric fabric_;
  net::Router router_;
  net::CircuitTable circuits_;
  std::unique_ptr<core::Allocator> alloc_;
  std::vector<wl::VmRequest> stream_;
  std::vector<core::Placement> live_;  ///< FIFO ring of placement slots
  std::vector<bool> held_;             ///< slot holds a live placement
  std::size_t head_ = 0;
  std::uint32_t next_ = 0;
  std::uint64_t attempts_ = 0;
  std::uint64_t placed_ = 0;
};

void BM_AdmitRelease(benchmark::State& state) {
  const std::string algorithm =
      core::algorithm_names()[static_cast<std::size_t>(state.range(0))];
  const auto racks = static_cast<std::uint32_t>(state.range(1));
  Churn churn(algorithm, racks);
  for (auto _ : state) benchmark::DoNotOptimize(churn.step());
  state.counters["placed"] = churn.placed_fraction();
  state.SetLabel(algorithm);
}
BENCHMARK(BM_AdmitRelease)->ArgsProduct({{0, 1, 2, 3}, {18, 256}});

// ---- committed-baseline driver ----------------------------------------------

struct BaselineRow {
  std::string algorithm;
  std::uint32_t racks;
  double ns_per_op;  ///< one admit + one release
  double placed_fraction;
};

std::vector<BaselineRow> measure_baseline() {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kIters = 200'000;
  std::vector<BaselineRow> rows;
  for (const std::string& algorithm : core::algorithm_names()) {
    for (const std::uint32_t racks : kRackCounts) {
      Churn churn(algorithm, racks);
      double best = 0.0;
      for (int rep = 0; rep <= 3; ++rep) {  // rep 0 is the warmup
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kIters; ++i) {
          benchmark::DoNotOptimize(churn.step());
        }
        const double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count() /
            static_cast<double>(kIters);
        if (rep == 1 || (rep > 1 && ns < best)) best = ns;
      }
      rows.push_back({algorithm, racks, best, churn.placed_fraction()});
    }
  }
  return rows;
}

bool write_baseline_json(const std::string& path) {
  const auto rows = measure_baseline();
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_allocator_churn: cannot open " << path << "\n";
    return false;
  }
  out << "{\n  \"benchmark\": \"allocator_churn\",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "    {\"algorithm\": \"" << rows[i].algorithm
        << "\", \"racks\": " << rows[i].racks
        << ", \"ns_per_op\": " << rows[i].ns_per_op
        << ", \"placed_fraction\": " << rows[i].placed_fraction << "}"
        << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  risa::Flags flags;
  flags.define("emit_json", "", "Write the allocator churn baseline JSON here",
               "BENCH_allocator.json");
  if (!flags.parse_benchmark_or_usage(argc, argv)) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::string json_path = flags.str("emit_json");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) {
    if (!write_baseline_json(json_path)) return 1;
    std::cout << "\nwrote allocator churn baseline: " << json_path << "\n";
  }
  return 0;
}

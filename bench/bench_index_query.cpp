// RackAvailabilityIndex microbenchmark: query/update latency isolated from
// the engine loop (DESIGN.md §10), so index regressions are visible without
// re-running the end-to-end churn bench.
//
// Both kernel flavours are measured in one binary: the dispatched
// simd::ge_mask64 (whatever backend this build selected -- see the
// `backend` field of the JSON) and the always-compiled scalar reference
// simd::detail::ge_mask64_scalar.  On a RISA_ENABLE_SIMD=OFF build the two
// rows coincide, which is itself useful: the committed baseline records the
// vectorization speedup explicitly instead of implying it.
//
// Driver mode: `--emit_json[=path]` writes the committed BENCH_index.json
// via steady_clock timing loops (warmup + best-of-3), independent of the
// google-benchmark harness so the baseline stays dependency-light.
// CI smoke: `--benchmark_filter=... --benchmark_min_time=...` as usual.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/rack_set.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "topology/cluster.hpp"

namespace {

using risa::RackId;
using risa::RackSet;
using risa::ResourceType;
using risa::Rng;
using risa::Units;
using risa::UnitVector;
using risa::kAllResources;
using risa::topo::RackAvailabilityIndex;

constexpr std::uint32_t kRackCounts[] = {64, 256};
constexpr std::uint64_t kSeed = 0x1DE5C5EEDULL;

/// A standalone index with random per-rack maxima in [0, 128] -- the range
/// real rack maxima live in under the paper's box sizes -- plus a few
/// saturated lanes so the exact-path branch stays representative.
RackAvailabilityIndex make_index(std::uint32_t racks) {
  RackAvailabilityIndex index(racks);
  Rng rng(kSeed ^ racks);
  for (std::uint32_t r = 0; r < racks; ++r) {
    for (ResourceType t : kAllResources) {
      const Units v = rng.uniform_int(0, 20) == 0
                          ? RackAvailabilityIndex::kLaneMax + 1
                          : rng.uniform_int(0, 128);
      index.update(RackId{r}, t, v);
    }
  }
  return index;
}

/// Pre-generated random demands (kept off the timed path).
std::vector<UnitVector> make_demands(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<UnitVector> demands(n);
  for (auto& d : demands) {
    for (ResourceType t : kAllResources) d[t] = rng.uniform_int(0, 128);
  }
  return demands;
}

/// Pre-generated update stream: (rack, type, value) triples whose values
/// swing across the previous maxima, so both the O(1) no-change path and
/// the shard-max shrink rescan are exercised.
struct UpdateOp {
  RackId rack;
  ResourceType type;
  Units value;
};

std::vector<UpdateOp> make_updates(std::uint32_t racks, std::size_t n,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<UpdateOp> ops(n);
  for (auto& op : ops) {
    op.rack = RackId{static_cast<std::uint32_t>(rng.uniform_int(0, racks - 1))};
    op.type = kAllResources[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    op.value = rng.uniform_int(0, 128);
  }
  return ops;
}

// ---- google-benchmark grid --------------------------------------------------

void BM_KernelDispatched(benchmark::State& state) {
  alignas(32) std::array<std::uint16_t, 64> lanes{};
  Rng rng(kSeed);
  for (auto& l : lanes) l = static_cast<std::uint16_t>(rng.uniform_int(0, 200));
  std::uint16_t thr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(risa::simd::ge_mask64(lanes.data(), thr));
    thr = static_cast<std::uint16_t>((thr + 7) & 0xFF);
  }
  state.SetLabel(risa::simd::kBackend);
}
BENCHMARK(BM_KernelDispatched);

void BM_KernelScalar(benchmark::State& state) {
  alignas(32) std::array<std::uint16_t, 64> lanes{};
  Rng rng(kSeed);
  for (auto& l : lanes) l = static_cast<std::uint16_t>(rng.uniform_int(0, 200));
  std::uint16_t thr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        risa::simd::detail::ge_mask64_scalar(lanes.data(), thr));
    thr = static_cast<std::uint16_t>((thr + 7) & 0xFF);
  }
}
BENCHMARK(BM_KernelScalar);

void BM_PoolMask(benchmark::State& state) {
  const auto racks = static_cast<std::uint32_t>(state.range(0));
  const RackAvailabilityIndex index = make_index(racks);
  const auto demands = make_demands(1024, kSeed);
  RackSet out;
  std::size_t i = 0;
  for (auto _ : state) {
    index.pool_mask(demands[i], out);
    benchmark::DoNotOptimize(out);
    i = (i + 1) & 1023;
  }
}
BENCHMARK(BM_PoolMask)->Arg(64)->Arg(256);

void BM_TypeMask(benchmark::State& state) {
  const auto racks = static_cast<std::uint32_t>(state.range(0));
  const RackAvailabilityIndex index = make_index(racks);
  const auto demands = make_demands(1024, kSeed);
  RackSet out;
  std::size_t i = 0;
  for (auto _ : state) {
    index.type_mask(ResourceType::Cpu, demands[i][ResourceType::Cpu], out);
    benchmark::DoNotOptimize(out);
    i = (i + 1) & 1023;
  }
}
BENCHMARK(BM_TypeMask)->Arg(64)->Arg(256);

void BM_Update(benchmark::State& state) {
  const auto racks = static_cast<std::uint32_t>(state.range(0));
  RackAvailabilityIndex index = make_index(racks);
  const auto ops = make_updates(racks, 4096, kSeed);
  std::size_t i = 0;
  for (auto _ : state) {
    const UpdateOp& op = ops[i];
    index.update(op.rack, op.type, op.value);
    benchmark::DoNotOptimize(index.cluster_max(op.type));
    i = (i + 1) & 4095;
  }
}
BENCHMARK(BM_Update)->Arg(64)->Arg(256);

// ---- committed-baseline driver ----------------------------------------------

/// ns/op of `fn` called `iters` times: one warmup pass, then best of 3.
template <typename F>
double measure_ns(std::size_t iters, F&& fn) {
  using Clock = std::chrono::steady_clock;
  double best = 0.0;
  for (int rep = 0; rep <= 3; ++rep) {  // rep 0 is the warmup
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn(i);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(iters);
    if (rep == 1 || (rep > 1 && ns < best)) best = ns;
  }
  return best;
}

struct BaselineRow {
  std::string name;
  std::uint32_t racks;  ///< 0 = rack-count-independent (raw kernel)
  double ns_per_op;
};

std::vector<BaselineRow> measure_baseline() {
  std::vector<BaselineRow> rows;
  constexpr std::size_t kIters = 1'000'000;

  {
    alignas(32) std::array<std::uint16_t, 64> lanes{};
    Rng rng(kSeed);
    for (auto& l : lanes) {
      l = static_cast<std::uint16_t>(rng.uniform_int(0, 200));
    }
    rows.push_back({"kernel_ge_mask64", 0, measure_ns(kIters, [&](std::size_t i) {
      benchmark::DoNotOptimize(risa::simd::ge_mask64(
          lanes.data(), static_cast<std::uint16_t>((i * 7) & 0xFF)));
    })});
    rows.push_back({"kernel_ge_mask64_scalar", 0,
                    measure_ns(kIters, [&](std::size_t i) {
      benchmark::DoNotOptimize(risa::simd::detail::ge_mask64_scalar(
          lanes.data(), static_cast<std::uint16_t>((i * 7) & 0xFF)));
    })});
  }

  for (std::uint32_t racks : kRackCounts) {
    const RackAvailabilityIndex index = make_index(racks);
    const auto demands = make_demands(1024, kSeed);
    RackSet out;
    rows.push_back({"pool_mask", racks, measure_ns(kIters, [&](std::size_t i) {
      index.pool_mask(demands[i & 1023], out);
      benchmark::DoNotOptimize(out);
    })});
    rows.push_back({"type_mask", racks, measure_ns(kIters, [&](std::size_t i) {
      index.type_mask(ResourceType::Cpu,
                      demands[i & 1023][ResourceType::Cpu], out);
      benchmark::DoNotOptimize(out);
    })});
    rows.push_back({"pool_word_per_shard", racks,
                    measure_ns(kIters, [&](std::size_t i) {
      const std::uint32_t s =
          static_cast<std::uint32_t>(i) % index.num_shards();
      benchmark::DoNotOptimize(index.pool_word(s, demands[i & 1023]));
    })});

    RackAvailabilityIndex mut = make_index(racks);
    const auto ops = make_updates(racks, 4096, kSeed);
    rows.push_back({"update", racks, measure_ns(kIters, [&](std::size_t i) {
      const UpdateOp& op = ops[i & 4095];
      mut.update(op.rack, op.type, op.value);
      benchmark::DoNotOptimize(mut.cluster_max(op.type));
    })});
  }
  return rows;
}

bool write_baseline_json(const std::string& path) {
  const auto rows = measure_baseline();
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_index_query: cannot open " << path << "\n";
    return false;
  }
  out << "{\n  \"benchmark\": \"index_query\",\n";
  out << "  \"backend\": \"" << risa::simd::kBackend << "\",\n";
  out << "  \"simd_enabled\": " << (risa::simd::kEnabled ? "true" : "false")
      << ",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "    {\"name\": \"" << rows[i].name << "\", \"racks\": "
        << rows[i].racks << ", \"ns_per_op\": " << rows[i].ns_per_op << "}"
        << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  risa::Flags flags;
  flags.define("emit_json", "", "Write the index baseline JSON to this path",
               "BENCH_index.json");
  if (!flags.parse_benchmark_or_usage(argc, argv)) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::string json_path = flags.str("emit_json");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) {
    if (!write_baseline_json(json_path)) return 1;
    std::cout << "\nwrote index baseline: " << json_path << "\n";
  }
  return 0;
}

// Arrival-source microbenchmark: the pull rate of each ArrivalSource
// backend, and the synthetic stream's start-up cost (DESIGN.md §11).
//
//   ./bench_arrival_source [--benchmark_filter=...] [--benchmark_min_time=...]
//
// Rows:
//   BM_Pull/<backend>       next_batch into the engine's 1024-item refill
//                           chunk, rewinding (untimed) at exhaustion;
//                           items_per_second counts VMs pulled.  <backend>
//                           is 0 = WorkloadSource over a materialized
//                           100k-VM synthetic workload, 1 =
//                           SyntheticStreamSource (10^6 VMs), 2 =
//                           AzureStreamSource (the 7500-VM subset), 3 =
//                           TraceStreamSource over the 100k-VM workload
//                           written to a CSV file in the temp directory;
//   BM_SyntheticSetup/<N>   SyntheticStreamSource construction plus one
//                           rewind() (as Engine::run_stream does) at N VMs
//                           of the §5.1 mix.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>

#include "workload/arrival_source.hpp"
#include "workload/azure.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace risa;

constexpr std::uint64_t kSeed = 20231112;
constexpr std::size_t kChunk = 1024;  // the engine's arrival refill size

wl::SyntheticConfig mix(std::size_t count) {
  wl::SyntheticConfig config;
  config.count = count;
  return config;
}

const wl::Workload& materialized() {
  static const wl::Workload workload =
      wl::generate_synthetic(mix(100'000), kSeed);
  return workload;
}

/// The trace backend's input: the materialized workload (arrival-sorted,
/// as generated) written once, removed at exit.
struct TraceFile {
  TraceFile()
      : path((std::filesystem::temp_directory_path() /
              ("risa_bench_arrival_" + std::to_string(::getpid()) + ".csv"))
                 .string()) {
    wl::save_trace(path, materialized());
  }
  ~TraceFile() { std::filesystem::remove(path); }
  std::string path;
};

std::unique_ptr<wl::ArrivalSource> make_source(std::int64_t backend) {
  switch (backend) {
    case 0:
      return std::make_unique<wl::WorkloadSource>(materialized());
    case 1:
      return std::make_unique<wl::SyntheticStreamSource>(mix(1'000'000),
                                                         kSeed);
    case 2:
      return std::make_unique<wl::AzureStreamSource>(wl::azure_7500(), kSeed);
    default: {
      static const TraceFile file;
      return std::make_unique<wl::TraceStreamSource>(file.path);
    }
  }
}

void BM_Pull(benchmark::State& state) {
  const auto source = make_source(state.range(0));
  std::array<wl::ArrivalItem, kChunk> chunk;
  std::int64_t pulled = 0;
  for (auto _ : state) {
    std::size_t n = source->next_batch(chunk);
    if (n == 0) {
      state.PauseTiming();
      source->rewind();
      state.ResumeTiming();
      n = source->next_batch(chunk);
    }
    benchmark::DoNotOptimize(chunk.data());
    benchmark::ClobberMemory();
    pulled += static_cast<std::int64_t>(n);
  }
  state.SetItemsProcessed(pulled);
  static constexpr const char* kLabels[] = {"workload", "synthetic", "azure",
                                            "trace"};
  state.SetLabel(kLabels[state.range(0)]);
}
BENCHMARK(BM_Pull)->DenseRange(0, 3);

void BM_SyntheticSetup(benchmark::State& state) {
  const wl::SyntheticConfig config =
      mix(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    wl::SyntheticStreamSource source(config, kSeed);
    source.rewind();
    benchmark::DoNotOptimize(source);
  }
}
BENCHMARK(BM_SyntheticSetup)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Arg(10'000'000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

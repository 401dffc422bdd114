// Calendar microbench: the reference BasicCalendar 4-ary heap against the
// engine's LadderCalendar (des/ladder_calendar.hpp) under the classic
// hold model -- a steady-state census of N pending events where each
// operation pops the minimum and pushes a successor at popped.time +
// delta.  That is exactly the engine's churn regime (DESIGN.md §7/§12):
// the heap pays O(log N) per hold, the ladder O(1) amortized.
//
// Six delta distributions bracket the engine's workloads:
//   constant      -- one fixed hold over a census spread evenly across one
//                    hold: every push lands after every pending entry, the
//                    departure order of the benchmark workloads and of the
//                    paper's §5.1 stream, whose lifetimes never decrease
//                    (the in-order epoch path of DESIGN.md §12)
//   in_order_stragglers -- constant holds, 1% of them short: the short
//                    ones land inside the pending run (retries, migration
//                    sweeps), so the in-order run is re-bucketed
//   churny        -- uniform holds: pushes land anywhere in the next 200 tu
//   tie_heavy     -- 70% zero deltas: long equal-time runs (settlement
//                    windows)
//   bimodal       -- 80% short / 20% epoch-length holds (rung + top traffic)
//   fault_horizon -- churny holds under 16 far-future sentinels pushed up
//                    front, the way a fault plan's time-triggered actions
//                    are: the first rung spans the sentinels' horizon and
//                    is never respawned, so every hold routes into its
//                    buckets (the retained-capacity case of DESIGN.md §12).
//
// Driver mode: `--emit_json[=path]` writes the committed BENCH_calendar.json
// (structure x distribution x census grid, best-of-3 timed hold loops; the
// ladder rows also record the buffer bytes it retains at the end of the
// loop).  Interactive mode runs the same grid through google-benchmark.
// Both modes also check every grid point's pop order against the heap's
// (a hash of the popped seqs) and exit 1 on a divergence.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "des/calendar.hpp"
#include "des/ladder_calendar.hpp"

namespace {

using Heap = risa::des::BasicCalendar<std::uint32_t, 4>;
using Ladder = risa::des::LadderCalendar<std::uint32_t>;

enum class Dist {
  Constant,
  InOrderStragglers,
  Churny,
  TieHeavy,
  Bimodal,
  FaultHorizon
};

const char* dist_name(Dist d) {
  switch (d) {
    case Dist::Constant: return "constant";
    case Dist::InOrderStragglers: return "in_order_stragglers";
    case Dist::Churny: return "churny";
    case Dist::TieHeavy: return "tie_heavy";
    case Dist::FaultHorizon: return "fault_horizon";
    default: return "bimodal";
  }
}

/// fault_horizon's sentinels sit at k/16 of this horizon, k = 1..16: about
/// 15 tu per bucket of a 4096-bucket rung, so a 0-200 tu hold spans ~14
/// buckets (the fault workload's 6300 tu holds over 450 tu buckets), and
/// far past the time any hold loop below reaches.
constexpr double kSentinelHorizon = 61'440.0;
constexpr int kSentinels = 16;

/// constant's and in_order_stragglers' fixed hold.
constexpr double kConstantHold = 200.0;

double next_delta(Dist d, risa::Rng& rng) {
  switch (d) {
    case Dist::Constant:
      return kConstantHold;
    case Dist::InOrderStragglers:
      return rng.uniform_int(0, 99) == 0
                 ? static_cast<double>(rng.uniform_int(0, 50))
                 : kConstantHold;
    case Dist::Churny:
    case Dist::FaultHorizon:
      return static_cast<double>(rng.uniform_int(0, 200));
    case Dist::TieHeavy:
      return rng.uniform_int(0, 9) < 7
                 ? 0.0
                 : static_cast<double>(rng.uniform_int(1, 8));
    default:  // Bimodal
      return rng.uniform_int(0, 9) < 8
                 ? static_cast<double>(rng.uniform_int(0, 50))
                 : static_cast<double>(rng.uniform_int(50'000, 200'000));
  }
}

/// Time of the i-th of `census` initial pushes: in-order distributions
/// spread them evenly over one hold (arrivals in order, each holding
/// kConstantHold), the others draw a hold from `now` = 0.
double fill_time(Dist d, std::size_t i, std::size_t census, risa::Rng& rng) {
  if (d == Dist::Constant || d == Dist::InOrderStragglers) {
    return kConstantHold * static_cast<double>(i) / static_cast<double>(census);
  }
  return next_delta(d, rng);
}

/// Bytes of buffer capacity `cal` holds (ladder only; the heap reports 0).
template <typename Calendar>
std::size_t retained_bytes(const Calendar& cal) {
  if constexpr (requires { cal.retained_capacity(); }) {
    return cal.retained_capacity() * sizeof(typename Calendar::Entry);
  } else {
    return 0;
  }
}

/// Fill `cal` to a steady-state census, then run `ops` hold operations.
/// Returns a checksum so the work cannot be optimized away; `retained`
/// (when set) receives retained_bytes just before the final drain.
template <typename Calendar>
std::uint64_t hold_loop(Calendar& cal, Dist d, std::size_t census,
                        std::size_t ops, std::uint64_t seed,
                        std::size_t* retained = nullptr) {
  risa::Rng rng(seed);
  cal.reset();
  if (d == Dist::FaultHorizon) {
    for (int k = 1; k <= kSentinels; ++k) {
      cal.push(kSentinelHorizon * k / kSentinels, 0xFFFFFFFFu);
    }
  }
  for (std::size_t i = 0; i < census; ++i) {
    cal.push(fill_time(d, i, census, rng), static_cast<std::uint32_t>(i));
  }
  // FNV-1a over the popped seqs: a plain sum would read the same for any
  // pop order, since every seq ever assigned is popped exactly once.
  std::uint64_t sum = 0xcbf29ce484222325ULL;
  const auto mix = [&sum](std::uint64_t seq) {
    sum = (sum ^ seq) * 0x100000001b3ULL;
  };
  for (std::size_t i = 0; i < ops; ++i) {
    const auto e = cal.pop();
    mix(e.seq);
    cal.push(e.time + next_delta(d, rng), e.payload);
  }
  if (retained != nullptr) *retained = retained_bytes(cal);
  while (!cal.empty()) mix(cal.pop().seq);
  return sum;
}

/// Same seed, same schedule: the checksums match exactly unless the heap
/// and the ladder disagreed on pop order somewhere in the loop.
bool orders_agree(Dist d, std::size_t census) {
  Heap heap;
  Ladder ladder;
  return hold_loop(heap, d, census, census * 4, 42) ==
         hold_loop(ladder, d, census, census * 4, 42);
}

/// Set by any ladder row whose pop order diverged from the heap's; main
/// then exits 1, so a smoke run of the grid is an order-identity check.
bool g_diverged = false;

template <typename Calendar>
void run_hold(benchmark::State& state, Dist d) {
  const auto census = static_cast<std::size_t>(state.range(0));
  Calendar cal;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hold_loop(cal, d, census, census * 4, 42));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(census * 4));
  std::size_t retained = 0;  // one more, untimed loop: the scan is not free
  (void)hold_loop(cal, d, census, census * 4, 42, &retained);
  if (retained > 0) {
    state.counters["retained_bytes"] = static_cast<double>(retained);
  }
  if constexpr (std::is_same_v<Calendar, Ladder>) {
    if (!orders_agree(d, census)) {
      g_diverged = true;
      state.SkipWithError("heap/ladder pop-order divergence");
    }
  }
}

void BM_Heap_Constant(benchmark::State& s) {
  run_hold<Heap>(s, Dist::Constant);
}
void BM_Ladder_Constant(benchmark::State& s) {
  run_hold<Ladder>(s, Dist::Constant);
}
void BM_Heap_InOrderStragglers(benchmark::State& s) {
  run_hold<Heap>(s, Dist::InOrderStragglers);
}
void BM_Ladder_InOrderStragglers(benchmark::State& s) {
  run_hold<Ladder>(s, Dist::InOrderStragglers);
}
void BM_Heap_Churny(benchmark::State& s) { run_hold<Heap>(s, Dist::Churny); }
void BM_Ladder_Churny(benchmark::State& s) { run_hold<Ladder>(s, Dist::Churny); }
void BM_Heap_TieHeavy(benchmark::State& s) { run_hold<Heap>(s, Dist::TieHeavy); }
void BM_Ladder_TieHeavy(benchmark::State& s) {
  run_hold<Ladder>(s, Dist::TieHeavy);
}
void BM_Heap_Bimodal(benchmark::State& s) { run_hold<Heap>(s, Dist::Bimodal); }
void BM_Ladder_Bimodal(benchmark::State& s) {
  run_hold<Ladder>(s, Dist::Bimodal);
}
void BM_Heap_FaultHorizon(benchmark::State& s) {
  run_hold<Heap>(s, Dist::FaultHorizon);
}
void BM_Ladder_FaultHorizon(benchmark::State& s) {
  run_hold<Ladder>(s, Dist::FaultHorizon);
}

void census_args(benchmark::internal::Benchmark* b) {
  b->Arg(1'000)->Arg(10'000)->Arg(100'000)->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Heap_Constant)->Apply(census_args);
BENCHMARK(BM_Ladder_Constant)->Apply(census_args);
BENCHMARK(BM_Heap_InOrderStragglers)->Apply(census_args);
BENCHMARK(BM_Ladder_InOrderStragglers)->Apply(census_args);
BENCHMARK(BM_Heap_Churny)->Apply(census_args);
BENCHMARK(BM_Ladder_Churny)->Apply(census_args);
BENCHMARK(BM_Heap_TieHeavy)->Apply(census_args);
BENCHMARK(BM_Ladder_TieHeavy)->Apply(census_args);
BENCHMARK(BM_Heap_Bimodal)->Apply(census_args);
BENCHMARK(BM_Ladder_Bimodal)->Apply(census_args);
BENCHMARK(BM_Heap_FaultHorizon)->Apply(census_args);
BENCHMARK(BM_Ladder_FaultHorizon)->Apply(census_args);

/// One driver-mode row: best-of-3 timed hold loops, and a differential
/// checksum (heap and ladder must agree on every grid point -- the bench
/// doubles as a cheap order-identity witness at scales the unit tests
/// do not reach).
struct Row {
  std::string structure;
  std::string distribution;
  std::size_t census = 0;
  std::size_t ops = 0;
  double seconds = 0.0;
  std::size_t retained_bytes = 0;  ///< ladder only
};

template <typename Calendar>
Row measure(const char* structure, Dist d, std::size_t census) {
  Row r;
  r.structure = structure;
  r.distribution = dist_name(d);
  r.census = census;
  r.ops = census * 20;
  Calendar cal;
  (void)hold_loop(cal, d, census, r.ops, 42, &r.retained_bytes);  // warmup
  double best = -1.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(hold_loop(cal, d, census, r.ops, 42));
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (best < 0.0 || s < best) best = s;
  }
  r.seconds = best;
  return r;
}

std::string rows_json(const std::vector<Row>& rows) {
  std::ostringstream os;
  os << "{\n  \"benchmark\": \"calendar_hold\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"structure\": \"" << r.structure << "\", \"distribution\": \""
       << r.distribution << "\", \"census\": " << r.census
       << ", \"ops\": " << r.ops << ", \"seconds\": "
       << risa::strformat("%.6f", r.seconds) << ", \"ops_per_sec\": "
       << risa::strformat("%.0f",
                          static_cast<double>(r.ops) / r.seconds);
    if (r.retained_bytes > 0) {
      os << ", \"retained_bytes\": " << r.retained_bytes;
    }
    os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  risa::Flags flags;
  flags.define("emit_json", "", "Write the hold-model grid JSON to this path",
               "BENCH_calendar.json");
  if (!flags.parse_benchmark_or_usage(argc, argv)) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::string json_path = flags.str("emit_json");
  if (!json_path.empty()) {
    std::vector<Row> rows;
    for (const Dist d : {Dist::Constant, Dist::InOrderStragglers, Dist::Churny,
                         Dist::TieHeavy, Dist::Bimodal, Dist::FaultHorizon}) {
      for (const std::size_t census : {std::size_t{1'000}, std::size_t{10'000},
                                       std::size_t{100'000}}) {
        if (!orders_agree(d, census)) {
          std::cerr << "bench_calendar: heap/ladder divergence at "
                    << dist_name(d) << "/" << census << "\n";
          return 1;
        }
        rows.push_back(measure<Heap>("heap", d, census));
        rows.push_back(measure<Ladder>("ladder", d, census));
        const Row& h = rows[rows.size() - 2];
        const Row& l = rows.back();
        std::cout << dist_name(d) << " census=" << census << ": heap "
                  << static_cast<std::uint64_t>(
                         static_cast<double>(h.ops) / h.seconds)
                  << " ops/s, ladder "
                  << static_cast<std::uint64_t>(
                         static_cast<double>(l.ops) / l.seconds)
                  << " ops/s (" << risa::strformat("%.2f", h.seconds / l.seconds)
                  << "x), ladder retains " << l.retained_bytes << " B\n";
      }
    }
    std::ofstream out(json_path);
    out << rows_json(rows);
    if (!out) {
      std::cerr << "bench_calendar: write to " << json_path << " failed\n";
      return 1;
    }
    std::cout << "wrote calendar baseline: " << json_path << "\n";
    return 0;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (g_diverged) {
    std::cerr << "bench_calendar: heap/ladder pop-order divergence\n";
    return 1;
  }
  return 0;
}

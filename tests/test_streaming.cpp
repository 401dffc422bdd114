// Streaming arrival pipeline (DESIGN.md §11): every ArrivalSource backend
// must reproduce the materialized generators exactly (bit-equal doubles,
// original workload indices), the engine's pull-based loop must be
// fingerprint-identical to the materialized path over the figure matrix
// and adversarial tie/unsorted workloads, and a run resumed from any
// mid-run checkpoint must match the uninterrupted run bit-for-bit.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "sim/sweep.hpp"
#include "topology/box.hpp"
#include "workload/arrival_source.hpp"
#include "workload/azure.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_io.hpp"
#include "tie_storm.hpp"

namespace risa::sim {
namespace {

/// Pull the whole stream through `batch`-sized refills.
std::vector<wl::ArrivalItem> drain(wl::ArrivalSource& source,
                                   std::size_t batch) {
  std::vector<wl::ArrivalItem> out;
  std::vector<wl::ArrivalItem> buf(batch);
  std::size_t n = 0;
  while ((n = source.next_batch(std::span<wl::ArrivalItem>(buf.data(),
                                                           batch))) > 0) {
    out.insert(out.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return out;
}

/// The engine's historical arrival cursor: (arrival, original index) order.
std::vector<wl::ArrivalItem> arrival_order(const wl::Workload& w) {
  std::vector<wl::ArrivalItem> items(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    items[i] = {w[i], static_cast<std::uint32_t>(i)};
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const wl::ArrivalItem& a, const wl::ArrivalItem& b) {
                     if (a.vm.arrival != b.vm.arrival) {
                       return a.vm.arrival < b.vm.arrival;
                     }
                     return a.index < b.index;
                   });
  return items;
}

void expect_items_equal(const std::vector<wl::ArrivalItem>& got,
                        const std::vector<wl::ArrivalItem>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << what << " item " << i;
    EXPECT_EQ(got[i].vm.id.value(), want[i].vm.id.value()) << what << " " << i;
    EXPECT_EQ(got[i].vm.cores, want[i].vm.cores) << what << " " << i;
    EXPECT_EQ(got[i].vm.ram_mb, want[i].vm.ram_mb) << what << " " << i;
    EXPECT_EQ(got[i].vm.storage_mb, want[i].vm.storage_mb) << what << " " << i;
    // Bit-exact doubles: the streaming generators must replay the very
    // same RNG draws, not statistically-similar ones.
    EXPECT_EQ(got[i].vm.arrival, want[i].vm.arrival) << what << " " << i;
    EXPECT_EQ(got[i].vm.lifetime, want[i].vm.lifetime) << what << " " << i;
  }
}

TEST(ArrivalSources, SyntheticMatchesMaterializedAtEveryBatchSize) {
  wl::SyntheticConfig cfg;
  cfg.count = 3000;
  const std::uint64_t seed = 42;
  const auto want = arrival_order(wl::generate_synthetic(cfg, seed));
  for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                            std::size_t{1024}}) {
    wl::SyntheticStreamSource source(cfg, seed);
    EXPECT_EQ(source.size_hint(), cfg.count);
    expect_items_equal(drain(source, batch), want,
                       "synthetic batch=" + std::to_string(batch));
    // Exhausted sources stay exhausted; rewind restarts the exact stream.
    std::vector<wl::ArrivalItem> buf(4);
    EXPECT_EQ(source.next_batch(std::span(buf.data(), buf.size())), 0u);
    source.rewind();
    expect_items_equal(drain(source, batch), want, "synthetic rewound");
  }
}

TEST(ArrivalSources, SyntheticSaveRestorePositionMidStream) {
  wl::SyntheticConfig cfg;
  cfg.count = 1000;
  wl::SyntheticStreamSource source(cfg, 7);
  const auto want = drain(source, 64);
  source.rewind();

  std::vector<wl::ArrivalItem> head(337);
  ASSERT_EQ(source.next_batch(std::span(head.data(), head.size())),
            head.size());
  std::ostringstream saved;
  source.save_position(saved);

  // A fresh source restored from the frozen position continues with the
  // identical tail -- the checkpoint/resume building block.
  wl::SyntheticStreamSource resumed(cfg, 7);
  std::istringstream in(saved.str());
  resumed.restore_position(in);
  const auto tail = drain(resumed, 50);
  ASSERT_EQ(tail.size(), want.size() - head.size());
  expect_items_equal(
      tail,
      std::vector<wl::ArrivalItem>(want.begin() + 337, want.end()),
      "synthetic restored tail");
}

TEST(ArrivalSources, AzureSubsetsMatchMaterialized) {
  for (const wl::AzureSpec& spec : wl::azure_all_subsets()) {
    const auto want = arrival_order(wl::generate_azure(spec, kDefaultSeed));
    wl::AzureStreamSource source(spec, kDefaultSeed);
    EXPECT_EQ(source.size_hint(), want.size()) << spec.label;
    expect_items_equal(drain(source, 64), want, spec.label);
    source.rewind();
    expect_items_equal(drain(source, 64), want, spec.label + " rewound");
  }
}

TEST(ArrivalSources, WorkloadSourceSortsUnsortedInput) {
  wl::SyntheticConfig cfg;
  cfg.count = 500;
  wl::Workload workload = wl::generate_synthetic(cfg, 7);
  Rng rng(13);
  for (std::size_t i = workload.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(workload[i - 1], workload[j]);
  }
  wl::WorkloadSource source(workload);
  expect_items_equal(drain(source, 33), arrival_order(workload),
                     "workload-source unsorted");
}

TEST(ArrivalSources, TraceSourceStreamsFileExactly) {
  wl::SyntheticConfig cfg;
  cfg.count = 400;
  wl::Workload workload = wl::generate_synthetic(cfg, 21);
  std::sort(workload.begin(), workload.end(),
            [](const wl::VmRequest& a, const wl::VmRequest& b) {
              return a.arrival < b.arrival;
            });
  const std::string path = testing::TempDir() + "risa_trace_stream.csv";
  wl::save_trace(path, workload);

  // Row order is the trace's generation order: indices are consecutive.
  wl::TraceStreamSource source(path);
  const auto got = drain(source, 57);
  expect_items_equal(got, arrival_order(workload), "trace stream");
  source.rewind();
  expect_items_equal(drain(source, 19), got, "trace rewound");
}

TEST(ArrivalSources, TraceSourceReportsFileLineOnBadRows) {
  const std::string dir = testing::TempDir();
  {
    std::ofstream os(dir + "risa_trace_unsorted.csv");
    os << "vm_id,cores,ram_mb,storage_mb,arrival,lifetime\n"
       << "0,2,2048,4096,5.0,10.0\n"
       << "1,2,2048,4096,3.0,10.0\n";  // line 3: arrival went backwards
  }
  wl::TraceStreamSource unsorted(dir + "risa_trace_unsorted.csv");
  std::vector<wl::ArrivalItem> buf(8);
  try {
    (void)unsorted.next_batch(std::span(buf.data(), buf.size()));
    FAIL() << "out-of-order trace row did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }

  {
    std::ofstream os(dir + "risa_trace_short_row.csv");
    os << "vm_id,cores,ram_mb,storage_mb,arrival,lifetime\n"
       << "0,2,2048,4096,5.0,10.0\n"
       << "\n"                 // blank lines count like an editor counts them
       << "1,2,2048\n";        // line 4: wrong column count
  }
  wl::TraceStreamSource short_row(dir + "risa_trace_short_row.csv");
  try {
    while (short_row.next_batch(std::span(buf.data(), buf.size())) > 0) {
    }
    FAIL() << "short trace row did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

TEST(ArrivalSources, TraceSourceRestoreFailsClosed) {
  // A checkpoint is untrusted input: an index past 32 bits must not wrap,
  // and a NaN last arrival must not switch off the ordering check
  // (x < NaN is always false).
  const std::string path = testing::TempDir() + "risa_trace_restore.csv";
  {
    std::ofstream os(path);
    os << "vm_id,cores,ram_mb,storage_mb,arrival,lifetime\n"
       << "0,2,2048,4096,5.0,10.0\n";
  }
  wl::TraceStreamSource source(path);
  std::ostringstream saved;
  source.save_position(saved);
  // The saved position is (byte offset, line, index, last arrival); keep
  // the first two and write the last two by hand.
  const std::string offset_and_line = saved.str().substr(0, 16);
  const auto restore = [&](std::uint64_t index, double last_arrival) {
    std::ostringstream os;
    os << offset_and_line;
    bin::put_u64(os, index);
    bin::put_f64(os, last_arrival);
    std::istringstream in(os.str());
    source.restore_position(in);
  };
  EXPECT_NO_THROW(restore(0, -std::numeric_limits<double>::infinity()));
  EXPECT_THROW(restore(std::uint64_t{1} << 32, 0.0), std::runtime_error);
  EXPECT_THROW(restore(0, std::numeric_limits<double>::quiet_NaN()),
               std::runtime_error);
}

/// The §5.1 stream written out independently of SyntheticStreamSource:
/// one sequential Rng(seed) gives N (cores, RAM) pairs first, then N gaps.
std::vector<wl::ArrivalItem> synthetic_oracle(const wl::SyntheticConfig& cfg,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<wl::ArrivalItem> items(cfg.count);
  for (std::size_t i = 0; i < cfg.count; ++i) {
    wl::VmRequest& vm = items[i].vm;
    items[i].index = static_cast<std::uint32_t>(i);
    vm.id = VmId{static_cast<std::uint32_t>(i)};
    vm.cores = rng.uniform_int(cfg.min_cores, cfg.max_cores);
    vm.ram_mb = gb(static_cast<double>(
        rng.uniform_int(static_cast<std::int64_t>(cfg.min_ram_gb),
                        static_cast<std::int64_t>(cfg.max_ram_gb))));
    vm.storage_mb = gb(cfg.storage_gb);
    vm.lifetime = cfg.arrivals.lifetime(i);
  }
  SimTime t = 0.0;
  for (wl::ArrivalItem& item : items) {
    t += rng.exponential(cfg.arrivals.mean_interarrival_tu);
    item.vm.arrival = t;
  }
  return items;
}

TEST(ArrivalSources, SyntheticMatchesSequentialOracle) {
  // Power-of-two attribute ranges position the arrival generator with a
  // jump; any other range replays the attribute calls.  Both must land
  // on the oracle's stream, from construction and after a mid-stream
  // rewind.
  wl::SyntheticConfig jump;
  jump.count = 2000;
  wl::SyntheticConfig replay_cores = jump;
  replay_cores.max_cores = 24;
  wl::SyntheticConfig replay_ram = jump;
  replay_ram.min_ram_gb = 2.0;
  replay_ram.max_ram_gb = 48.0;
  for (const auto& [cfg, what] :
       {std::pair{jump, "cores 1..32, RAM 1..32"},
        std::pair{replay_cores, "cores 1..24"},
        std::pair{replay_ram, "RAM 2..48"}}) {
    const auto want = synthetic_oracle(cfg, 11);
    wl::SyntheticStreamSource source(cfg, 11);
    expect_items_equal(drain(source, 128), want, what);
    source.rewind();
    std::vector<wl::ArrivalItem> head(700);
    ASSERT_EQ(source.next_batch(std::span(head.data(), head.size())),
              head.size());
    source.rewind();
    expect_items_equal(drain(source, 333), want,
                       std::string(what) + " after a mid-stream rewind");
  }
}

TEST(ArrivalSources, GeneratorSourceRestoreFailsClosed) {
  // A checkpoint is untrusted input.  A rejected one must leave the
  // source where it was: every field is checked before any is applied.
  // An all-zero xoshiro state is rejected too -- no seed reaches it, and
  // the generator would return zeros forever.
  const Xoshiro256::State good{1, 2, 3, 4};
  const Xoshiro256::State zero{};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto position = [](std::uint64_t index, double t,
                           std::initializer_list<Xoshiro256::State> states) {
    std::ostringstream os;
    bin::put_u64(os, index);
    bin::put_f64(os, t);
    for (const auto& s : states) {
      for (std::uint64_t w : s) bin::put_u64(os, w);
    }
    return os.str();
  };
  const auto expect_rejected = [](wl::ArrivalSource& source,
                                  const std::string& bad,
                                  const std::string& what) {
    std::ostringstream before;
    source.save_position(before);
    std::istringstream in(bad);
    EXPECT_THROW(source.restore_position(in), std::runtime_error) << what;
    std::ostringstream after;
    source.save_position(after);
    EXPECT_EQ(after.str(), before.str()) << what << " moved the source";
  };
  const auto expect_accepted = [](wl::ArrivalSource& source,
                                  const std::string& ok) {
    std::istringstream in(ok);
    source.restore_position(in);
    std::ostringstream saved;
    source.save_position(saved);
    EXPECT_EQ(saved.str(), ok);
  };

  wl::SyntheticConfig cfg;
  cfg.count = 100;
  wl::SyntheticStreamSource synthetic(cfg, 7);
  std::vector<wl::ArrivalItem> head(40);
  ASSERT_EQ(synthetic.next_batch(std::span(head.data(), head.size())), 40u);
  expect_accepted(synthetic, position(100, 0.0, {good, good}));
  expect_accepted(synthetic, position(40, 5.0, {good, good}));
  const auto reject = [&](std::uint64_t index, double t,
                          std::initializer_list<Xoshiro256::State> states,
                          const std::string& what) {
    expect_rejected(synthetic, position(index, t, states), what);
  };
  reject(101, 5.0, {good, good}, "index > count");
  reject(10, nan, {good, good}, "NaN clock");
  reject(10, inf, {good, good}, "infinite clock");
  reject(10, -1.0, {good, good}, "negative clock");
  reject(10, 5.0, {zero, good}, "zero attribute state");
  reject(10, 5.0, {good, zero}, "zero arrival state");
  reject(10, 5.0, {good}, "truncated");

  const wl::AzureSpec spec = wl::azure_all_subsets().front();
  wl::AzureStreamSource azure(spec, 7);
  ASSERT_EQ(azure.next_batch(std::span(head.data(), head.size())), 40u);
  const std::uint64_t n = azure.size_hint();
  expect_accepted(azure, position(n, 0.0, {good}));
  expect_accepted(azure, position(40, 5.0, {good}));
  expect_rejected(azure, position(n + 1, 5.0, {good}), "index > count");
  expect_rejected(azure, position(10, nan, {good}), "NaN clock");
  expect_rejected(azure, position(10, -inf, {good}), "infinite clock");
  expect_rejected(azure, position(10, -1.0, {good}), "negative clock");
  expect_rejected(azure, position(10, 5.0, {zero}), "zero state");
}

TEST(ArrivalSources, SyntheticCountFitsThirtyTwoBitIndices) {
  // next_batch emits 32-bit indices and the engine reserves 0xFFFFFFFF,
  // so a longer stream would wrap VM ids.
  wl::SyntheticConfig cfg;
  cfg.count = std::size_t{0xFFFFFFFF} + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(wl::SyntheticStreamSource(cfg, 7), std::invalid_argument);

  // The longest stream starts at once: its arrivals sit 2^33 - 2 draws
  // into the seed's stream, reached by a jump rather than a replay.
  cfg.count = 0xFFFFFFFF;
  wl::SyntheticStreamSource source(cfg, 7);
  EXPECT_EQ(source.size_hint(), cfg.count);
  std::vector<wl::ArrivalItem> head(64);
  ASSERT_EQ(source.next_batch(std::span(head.data(), head.size())),
            head.size());
  Rng attrs(7);
  SimTime last = 0.0;
  for (std::size_t i = 0; i < head.size(); ++i) {
    EXPECT_EQ(head[i].index, i);
    EXPECT_EQ(head[i].vm.cores, attrs.uniform_int(1, 32)) << i;
    const auto ram_gb = static_cast<double>(attrs.uniform_int(1, 32));
    EXPECT_EQ(head[i].vm.ram_mb, gb(ram_gb)) << i;
    EXPECT_GT(head[i].vm.arrival, last) << i;
    last = head[i].vm.arrival;
  }
}

// --- Engine equivalence through the pull-based loop -------------------------

TEST(StreamingEngine, FigureMatrixCellsMatchStreamBackends) {
  // Every figure-matrix sweep cell (materialized workload) against
  // Engine::run_stream over the cell's own stream backend -- the
  // SyntheticStreamSource for workload 0, an AzureStreamSource per Azure
  // subset after it: every fingerprint must match bit-for-bit.
  const SweepSpec spec = SweepSpec::figure_matrix(kDefaultSeed);
  const std::vector<wl::AzureSpec> azure = wl::azure_all_subsets();
  ASSERT_EQ(spec.workloads.size(), 1 + azure.size());
  const auto cells = SweepRunner(1).run(spec);
  for (const SweepResult& r : cells) {
    std::unique_ptr<wl::ArrivalSource> source;
    if (r.workload_index == 0) {
      source = std::make_unique<wl::SyntheticStreamSource>(
          wl::SyntheticConfig{}, r.seed);
    } else {
      source = std::make_unique<wl::AzureStreamSource>(
          azure[r.workload_index - 1], r.seed);
    }
    Engine engine(spec.scenarios[r.scenario_index].second,
                  spec.algorithms[r.algorithm_index]);
    const SimMetrics streamed =
        engine.run_stream(*source, spec.workloads[r.workload_index].label);
    EXPECT_EQ(metrics_fingerprint(streamed), metrics_fingerprint(r.metrics))
        << "cell " << r.cell;
    EXPECT_EQ(streamed.events_executed, r.metrics.events_executed)
        << "cell " << r.cell;
  }
}

void expect_stream_equivalent(const wl::Workload& workload,
                              const std::string& label) {
  const std::string path = testing::TempDir() + "risa_stream_" + label + ".csv";
  for (const char* algo : {"NULB", "NALB", "RISA", "RISA-BF"}) {
    Engine engine(Scenario::paper_defaults(), algo);
    const SimMetrics ref = engine.run(workload, label);

    wl::WorkloadSource adapter(workload);
    const SimMetrics streamed = engine.run_stream(adapter, label);
    EXPECT_EQ(metrics_fingerprint(streamed), metrics_fingerprint(ref))
        << label << " / " << algo << " (WorkloadSource)";

    // Trace backend: only meaningful when the workload is already in
    // (arrival, index) order with positive lifetimes, i.e. what a trace
    // file can actually carry.
    const auto order = arrival_order(workload);
    bool traceable = true;
    for (std::size_t i = 0; traceable && i < order.size(); ++i) {
      traceable = order[i].index == i && workload[i].lifetime > 0.0;
    }
    if (traceable) {
      wl::save_trace(path, workload);
      wl::TraceStreamSource trace(path);
      const SimMetrics traced = engine.run_stream(trace, label);
      EXPECT_EQ(metrics_fingerprint(traced), metrics_fingerprint(ref))
          << label << " / " << algo << " (TraceStreamSource)";
    }
  }
}

TEST(StreamingEngine, TieHeavyWorkloadAllBackends) {
  // Bursts of identical arrivals with departures placed on arrival
  // instants: the merge tie-break rules must behave identically when the
  // arrivals come from a pulled ring instead of a sorted cursor.
  wl::SyntheticConfig cfg;
  cfg.count = 240;
  wl::Workload workload = wl::generate_synthetic(cfg, 99);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    workload[i].arrival = static_cast<double>((i / 8) * 10);
    switch (i % 3) {
      case 0: workload[i].lifetime = 0.5; break;
      case 1: workload[i].lifetime = 10.0; break;   // dep == next burst
      default: workload[i].lifetime = 35.0; break;  // dep between bursts
    }
  }
  expect_stream_equivalent(workload, "ties");
}

TEST(StreamingEngine, UnsortedWorkloadThroughAdapter) {
  wl::SyntheticConfig cfg;
  cfg.count = 300;
  wl::Workload workload = wl::generate_synthetic(cfg, 7);
  Rng rng(13);
  for (std::size_t i = workload.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(workload[i - 1], workload[j]);
  }
  expect_stream_equivalent(workload, "unsorted");
}

TEST(StreamingEngine, RejectsOutOfOrderSource) {
  wl::Workload backwards;
  for (std::uint32_t i = 0; i < 2; ++i) {
    wl::VmRequest vm;
    vm.id = VmId{i};
    vm.cores = 2;
    vm.ram_mb = 2048;
    vm.storage_mb = 4096;
    vm.lifetime = 10.0;
    vm.arrival = 10.0 - i;  // decreasing
    backwards.push_back(vm);
  }
  // WorkloadSource sorts, so violate the contract directly: a merge of
  // pre-sorted children is fine, but a raw adapter around an unsorted
  // vector that *claims* to be sorted is what the engine must catch.
  class Raw final : public wl::ArrivalSource {
   public:
    explicit Raw(const wl::Workload& w) : w_(&w) {}
    std::size_t next_batch(std::span<wl::ArrivalItem> out) override {
      std::size_t n = 0;
      while (n < out.size() && i_ < w_->size()) {
        out[n].vm = (*w_)[i_];
        out[n].index = static_cast<std::uint32_t>(i_);
        ++i_;
        ++n;
      }
      return n;
    }
    void rewind() override { i_ = 0; }
    void save_position(std::ostream&) const override {}
    void restore_position(std::istream&) override {}

   private:
    const wl::Workload* w_;
    std::size_t i_ = 0;
  };
  Raw raw(backwards);
  Engine engine(Scenario::paper_defaults(), "RISA");
  EXPECT_THROW((void)engine.run_stream(raw, "backwards"),
               std::invalid_argument);
}

// --- Checkpoint / resume ----------------------------------------------------

/// A fresh source over one fixed stream, for each run that replays it.
using SourceFactory = std::function<std::unique_ptr<wl::ArrivalSource>()>;

/// 4000 synthetic VMs, streamed from the generator.
std::unique_ptr<wl::ArrivalSource> synthetic_4000() {
  wl::SyntheticConfig cfg;
  cfg.count = 4000;
  return std::make_unique<wl::SyntheticStreamSource>(cfg, kDefaultSeed);
}

/// A streaming run with a checkpoint every 1500 executed events; returns
/// the run's metrics and fills `checkpoints` with every checkpoint it
/// emitted, in order.
SimMetrics run_with_checkpoints(const FaultPlan* faults,
                                const MigrationPlan* migrations,
                                std::vector<std::string>& checkpoints,
                                const SourceFactory& open_source =
                                    synthetic_4000,
                                const char* algorithm = "RISA") {
  Engine engine(Scenario::paper_defaults(), algorithm);
  engine.set_fault_plan(faults);
  engine.set_migration_plan(migrations);
  CheckpointPolicy policy;
  policy.every_events = 1500;
  policy.emit = [&checkpoints](const std::string& bytes) {
    checkpoints.push_back(bytes);
  };
  const std::unique_ptr<wl::ArrivalSource> source = open_source();
  return engine.run_stream(*source, "ckpt", &policy);
}

/// Box + link faults with retries in flight, for the checkpoint tests.
FaultPlan checkpoint_faults() {
  FaultPlan faults;
  faults.seed = 5;
  faults.retry.max_attempts = 2;
  faults.retry.delay_tu = 3.0;
  FaultAction fail;
  fail.kind = FaultAction::Kind::Fail;
  fail.at_time = 40.0;
  fail.random_boxes = 2;
  faults.actions.push_back(fail);
  FaultAction repair = fail;
  repair.kind = FaultAction::Kind::Repair;
  repair.at_time = 90.0;
  faults.actions.push_back(repair);
  FaultAction link_fail;
  link_fail.kind = FaultAction::Kind::LinkFail;
  link_fail.at_time = 60.0;
  link_fail.random_links = 1;
  faults.actions.push_back(link_fail);
  faults.validate();
  return faults;
}

MigrationPlan checkpoint_migrations() {
  MigrationPlan migrations;
  migrations.period_tu = 25.0;
  migrations.per_sweep_budget = 4;
  migrations.validate();
  return migrations;
}

/// Run the stream with a checkpoint every 1500 events, then resume each
/// captured checkpoint in a fresh engine over a fresh source and demand
/// the uninterrupted run's exact fingerprint.  `full_out` receives the
/// uninterrupted run's metrics.
void expect_resume_bit_identical(const FaultPlan* faults,
                                 const MigrationPlan* migrations,
                                 const SourceFactory& open_source =
                                     synthetic_4000,
                                 const char* algorithm = "RISA",
                                 SimMetrics* full_out = nullptr) {
  std::vector<std::string> checkpoints;
  const SimMetrics full = run_with_checkpoints(faults, migrations, checkpoints,
                                               open_source, algorithm);
  if (full_out != nullptr) *full_out = full;
  const std::string want = metrics_fingerprint(full);
  ASSERT_GE(checkpoints.size(), 2u) << "cadence produced too few checkpoints";

  for (std::size_t c = 0; c < checkpoints.size(); ++c) {
    Engine fresh(Scenario::paper_defaults(), algorithm);
    fresh.set_fault_plan(faults);
    fresh.set_migration_plan(migrations);
    const std::unique_ptr<wl::ArrivalSource> restored = open_source();
    std::istringstream in(checkpoints[c]);
    const SimMetrics resumed = fresh.resume_stream(in, *restored);
    EXPECT_EQ(metrics_fingerprint(resumed), want) << "checkpoint " << c;
    EXPECT_EQ(resumed.events_executed, full.events_executed)
        << "checkpoint " << c;
    EXPECT_EQ(resumed.killed, full.killed) << "checkpoint " << c;
    EXPECT_EQ(resumed.migrated, full.migrated) << "checkpoint " << c;
  }
}

TEST(StreamingCheckpoint, ResumeMatchesUninterruptedRun) {
  expect_resume_bit_identical(nullptr, nullptr);
}

TEST(StreamingCheckpoint, ResumeWithFaultsAndMigrations) {
  const FaultPlan faults = checkpoint_faults();
  const MigrationPlan migrations = checkpoint_migrations();
  expect_resume_bit_identical(&faults, &migrations);
}

TEST(StreamingCheckpoint, ResumeLifecycleTieStorm) {
  // Dozens of arrivals per timestamp with box faults, retries and
  // migration sweeps in flight: every admission window re-reads the
  // calendar head after its pushes.  2500 VMs span three arrival chunks;
  // NULB, because RISA's intra-rack placements leave no spread VM to
  // migrate.
  const wl::Workload storm = tie_storm_workload(2500, 31);
  const FaultPlan faults = storm_faults();
  const MigrationPlan migrations = storm_migrations();
  SimMetrics full;
  expect_resume_bit_identical(
      &faults, &migrations,
      [&storm] { return std::make_unique<wl::WorkloadSource>(storm); }, "NULB",
      &full);
  EXPECT_GT(full.killed + full.requeued, 0u);
  EXPECT_GT(full.migrated, 0u);
}

/// 64-bit FNV-1a over a byte string, as 16 hex digits.
std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

TEST(StreamingCheckpoint, WriterBytesMatchCommittedDigests) {
  // Pins the checkpoint *writer*: the two resume streams above must emit
  // format-v1 bytes whose digests match tests/data/checkpoint_v1_digests.txt
  // ("<stream> <ordinal> <fnv1a64>" per line).  The reader side is pinned
  // by the prearena_v1 fixture below.
  const FaultPlan faults = checkpoint_faults();
  const MigrationPlan migrations = checkpoint_migrations();
  std::vector<std::string> got;
  for (const bool lifecycle : {false, true}) {
    std::vector<std::string> checkpoints;
    (void)run_with_checkpoints(lifecycle ? &faults : nullptr,
                               lifecycle ? &migrations : nullptr, checkpoints);
    for (std::size_t c = 0; c < checkpoints.size(); ++c) {
      got.push_back(std::string(lifecycle ? "faults " : "plain ") +
                    std::to_string(c) + " " + fnv1a_hex(checkpoints[c]));
    }
  }
  std::ifstream in(RISA_TEST_DATA_DIR "/checkpoint_v1_digests.txt");
  ASSERT_TRUE(in.good()) << "missing committed digest fixture";
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') want.push_back(line);
  }
  EXPECT_EQ(got, want);
}

/// Little-endian reader over a captured format-v1 checkpoint: an
/// independent reading of the layout, just far enough to find the fields
/// the corruption test patches.
class V1Cursor {
 public:
  explicit V1Cursor(const std::string& bytes) : bytes_(bytes) {}
  std::uint64_t get(std::size_t width) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= std::uint64_t{static_cast<unsigned char>(bytes_.at(pos_ + i))}
           << (8 * i);
    }
    pos_ += width;
    return v;
  }
  void skip(std::uint64_t n) { pos_ += static_cast<std::size_t>(n); }
  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

/// Byte offsets, in a checkpoint holding a live VM with a circuit, of the
/// first such VM's id, placement VM id, CPU box id, resource type and CPU
/// rack id, of its first circuit's VM id, flow kind and first link id, of
/// the calendar entry count, of the first pending fault entry's action
/// index (0 when no fault is pending) and of the allocator state (RISA's
/// round-robin rack cursor comes first); plus the offsets of every VM id
/// that names that VM's record (its own, its placement's, each circuit's)
/// and the id of another live VM.  For the same VM's CPU allocation: its
/// units, slice count and first slice (brick, then units), and the CPU
/// entry of the placement's demand vector; for its first circuit: the
/// link and switch counts, its first switch and its inter-rack byte.
struct V1Offsets {
  std::size_t vm = 0, placement_vm = 0, box = 0, type = 0, rack = 0,
              circuit_vm = 0, flow = 0, link = 0, events = 0,
              fault_subject = 0, rr_cursor = 0;
  std::size_t alloc_units = 0, slice_count = 0, slice = 0, demand_units = 0,
              link_count = 0, switch_count = 0, first_switch = 0,
              inter_rack = 0;
  /// The first drop reason's count, and whether the tally lists it.
  std::size_t drop_count = 0;
  bool drop_listed = false;
  std::vector<std::size_t> owner_ids;
  std::uint32_t other_live_vm = 0xFFFFFFFFu;
};

V1Offsets locate_v1_fields(const std::string& bytes) {
  V1Cursor c(bytes);
  V1Offsets at;
  c.skip(4);                              // magic
  c.skip(c.get(8));                       // workload label
  c.skip(c.get(8));                       // algorithm
  c.skip(7 * 8 + 4 + 8 + 4 + 1);          // loop scalars
  c.skip(13 * 8 + 6 * 8);                 // metric counters + RTT stats
  const std::uint64_t drop_kinds = c.get(8);  // drop reasons, first seen
  bool drop_listed = false;
  for (std::uint64_t k = 0; k < drop_kinds; ++k) drop_listed |= c.get(1) == 0;
  const std::size_t drop_count = c.pos();
  c.skip(core::kNumDropReasons * 8);      // drop counts
  c.skip((kNumResourceTypes + 2) * 41);   // time-weighted signals
  c.skip(5 * 8 + 6 * 8);                  // power ledger
  for (std::uint64_t b = c.get(8); b > 0; --b) c.skip(c.get(8) * 8);
  c.skip(c.get(8) * 4);                   // offline boxes
  c.skip(c.get(8) * 4);                   // failed links
  std::vector<std::uint32_t> live_ids;
  std::uint32_t chosen_id = 0;
  for (std::uint64_t r = c.get(8); r > 0; --r) {
    c.skip(4);  // record index
    const std::size_t vm = c.pos();
    const auto vm_id = static_cast<std::uint32_t>(c.get(4));
    c.skip(3 * 8 + 2 * 8 + 2 * 4 + 3 * 8);
    const bool live = c.get(1) != 0;
    c.skip(1);  // ever_placed
    if (!live) continue;
    live_ids.push_back(vm_id);
    V1Offsets rec;
    rec.vm = vm;
    rec.placement_vm = c.pos();
    rec.owner_ids = {vm, rec.placement_vm};
    c.skip(4);
    rec.box = c.pos();
    rec.type = c.pos() + 4;
    rec.alloc_units = c.pos() + 5;
    rec.slice_count = c.pos() + 13;
    rec.slice = c.pos() + 21;
    for (std::size_t t = 0; t < kNumResourceTypes; ++t) {
      c.skip(4 + 1 + 8);
      c.skip(c.get(8) * 12);  // brick slices
    }
    rec.rack = c.pos();
    rec.demand_units = c.pos() + 3 * 4;
    c.skip(3 * 4 + 3 * 8 + 2 * 8 + 2);
    for (std::uint64_t k = c.get(8); k > 0; --k) {
      rec.owner_ids.push_back(c.pos() + 4);
      const std::size_t flow = c.pos() + 8;
      c.skip(4 + 4 + 1 + 8);
      const std::size_t link_count = c.pos();
      const std::uint64_t links = c.get(8);
      if (rec.flow == 0 && links > 0) {
        rec.circuit_vm = flow - 4;
        rec.flow = flow;
        rec.link = c.pos();
        rec.link_count = link_count;
        rec.switch_count = c.pos() + links * 4;
        rec.first_switch = rec.switch_count + 8;
        rec.inter_rack = rec.first_switch + (links + 1) * 4;
      }
      c.skip(links * 4);
      c.skip(c.get(8) * 4 + 1);  // switches, inter-rack flag
    }
    if (at.flow == 0 && rec.flow != 0) {
      at = rec;
      chosen_id = vm_id;
    }
  }
  for (const std::uint32_t id : live_ids) {
    if (id != chosen_id) {
      at.other_live_vm = id;
      break;
    }
  }
  at.drop_count = drop_count;
  at.drop_listed = drop_listed;
  c.skip(4 + 8);  // next circuit id, next calendar seq
  at.events = c.pos();
  for (std::uint64_t n = c.get(8); n > 0; --n) {
    c.skip(8 + 8);  // time, seq
    const auto kind = static_cast<des::LifecycleKind>(c.get(1));
    if (at.fault_subject == 0 && (kind == des::LifecycleKind::BoxFail ||
                                  kind == des::LifecycleKind::BoxRepair ||
                                  kind == des::LifecycleKind::LinkFail ||
                                  kind == des::LifecycleKind::LinkRepair)) {
      at.fault_subject = c.pos();
    }
    c.skip(4 + 4);  // subject, epoch
  }
  c.skip(4 * 8);  // fault RNG state
  at.rr_cursor = c.pos();
  return at;
}

TEST(StreamingCheckpoint, RestoreFailsClosedOnCorruptFields) {
  // Ids and enum tags that later reach unchecked accessors, and a length
  // that used to size an allocation, are range-checked on restore: each
  // corruption is a clean "checkpoint:" error, never a crash or a
  // length_error/bad_alloc.
  std::vector<std::string> checkpoints;
  (void)run_with_checkpoints(nullptr, nullptr, checkpoints);
  ASSERT_FALSE(checkpoints.empty());
  const std::string& good = checkpoints.front();
  const V1Offsets at = locate_v1_fields(good);
  ASSERT_NE(at.flow, 0u) << "no live VM with a circuit in the checkpoint";
  ASSERT_EQ(good.at(at.type), 0) << "layout walk lost sync (CPU type tag)";
  ASSERT_NE(at.other_live_vm, 0xFFFFFFFFu) << "only one live VM";
  // RISA's state: cursor (u32), fallback count (u64), rack count (u64).
  V1Cursor risa_state(good);
  risa_state.skip(at.rr_cursor + 4 + 8);
  ASSERT_EQ(risa_state.get(8), Scenario::paper_defaults().cluster.racks)
      << "layout walk lost sync (RISA rack count)";

  const auto resume = [](const std::string& bytes, const FaultPlan* faults,
                         const MigrationPlan* migrations) {
    wl::SyntheticConfig cfg;
    cfg.count = 4000;
    Engine fresh(Scenario::paper_defaults(), "RISA");
    fresh.set_fault_plan(faults);
    fresh.set_migration_plan(migrations);
    wl::SyntheticStreamSource restored(cfg, kDefaultSeed);
    std::istringstream in(bytes);
    return fresh.resume_stream(in, restored);
  };
  const auto patched = [](std::string bytes, std::size_t offset,
                          std::size_t width, std::uint64_t value) {
    for (std::size_t i = 0; i < width; ++i) {
      bytes.at(offset + i) = static_cast<char>((value >> (8 * i)) & 0xFF);
    }
    return bytes;
  };
  EXPECT_NO_THROW((void)resume(good, nullptr, nullptr));

  const struct {
    std::size_t offset;
    std::size_t width;
    std::uint64_t value;
    const char* field;
  } patches[] = {
      {at.vm, 4, 0xFFFFFFFFu, "vm id"},
      {at.vm, 4, at.other_live_vm, "vm id of another live VM"},
      {at.placement_vm, 4, at.other_live_vm, "placement vm id"},
      {at.box, 4, 0xFFFFFFF0u, "box id"},
      {at.type, 1, 0xEE, "resource type"},
      {at.rack, 4, 0xFFFFFFF0u, "rack id"},
      {at.circuit_vm, 4, 0xFFFFFFFFu, "circuit vm id"},
      {at.circuit_vm, 4, at.other_live_vm, "circuit vm id of another VM"},
      {at.flow, 1, 0xEE, "circuit flow"},
      {at.link, 4, 0xFFFFFFF0u, "link id"},
      {at.events, 8, std::uint64_t{1} << 62, "calendar entry count"},
      {at.rr_cursor, 4, 0xFFFFFFF0u, "RISA rack cursor"},
      // A count the first-seen list disagrees with: a listed reason at
      // zero (its next drop would list it again, past the list's end once
      // every reason is listed) or an unlisted one at one (never listed,
      // so the fingerprint would miss it).
      {at.drop_count, 8, at.drop_listed ? 0u : 1u, "drop count"},
  };
  for (const auto& p : patches) {
    EXPECT_THROW(
        (void)resume(patched(good, p.offset, p.width, p.value), nullptr,
                     nullptr),
        std::runtime_error)
        << p.field;
  }
  // The record renamed consistently (its id, placement and circuits) to
  // another live VM's id: only its record index disagrees.
  std::string renamed = good;
  for (const std::size_t offset : at.owner_ids) {
    renamed = patched(renamed, offset, 4, at.other_live_vm);
  }
  EXPECT_THROW((void)resume(renamed, nullptr, nullptr), std::runtime_error);

  // A workload-label length just under the plausibility cap must run into
  // end-of-stream before the string grows anywhere near it.
  const auto peak_rss_kb = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<long>(usage.ru_maxrss);
  };
  const long rss_before_kb = peak_rss_kb();
  EXPECT_THROW((void)resume(patched(good, 4, 8, 0xFFFFFFFFu), nullptr, nullptr),
               std::runtime_error);
  EXPECT_LT(peak_rss_kb() - rss_before_kb, 256L * 1024)
      << "label length sized an allocation";

  // A pending fault entry's subject indexes the fault plan: a corrupt
  // index, or a good one resumed under a shorter plan, is rejected too.
  // The fault fires late, so early checkpoints still hold it pending.
  FaultPlan faults;
  faults.seed = 5;
  FaultAction fail;
  fail.kind = FaultAction::Kind::Fail;
  fail.at_time = 20000.0;
  fail.random_boxes = 2;
  faults.actions.push_back(fail);
  faults.validate();
  const MigrationPlan migrations = checkpoint_migrations();
  std::vector<std::string> fault_checkpoints;
  (void)run_with_checkpoints(&faults, &migrations, fault_checkpoints);
  std::size_t fault_subject = 0;
  const std::string* with_fault = nullptr;
  for (const std::string& ck : fault_checkpoints) {
    fault_subject = locate_v1_fields(ck).fault_subject;
    if (fault_subject != 0) {
      with_fault = &ck;
      break;
    }
  }
  ASSERT_NE(with_fault, nullptr) << "no checkpoint with a pending fault";
  EXPECT_NO_THROW((void)resume(*with_fault, &faults, &migrations));
  EXPECT_THROW((void)resume(patched(*with_fault, fault_subject, 4,
                                    faults.actions.size()),
                            &faults, &migrations),
               std::runtime_error);
  FaultPlan shorter;
  shorter.seed = faults.seed;
  EXPECT_THROW((void)resume(*with_fault, &shorter, &migrations),
               std::runtime_error);
}

TEST(StreamingCheckpoint, RestoreFailsClosedOnCorruptPlacements) {
  // The compact records narrow slice units to u32 and hold paths in fixed
  // arrays, so restore range-checks every placement field before it
  // narrows or stores it, and checks that the live slices account for
  // exactly the restored brick occupancy.  Each corruption below is
  // plausible on its own (ids in range, lengths small) and used to pass
  // restore, then throw at release or release the wrong brick.
  std::vector<std::string> checkpoints;
  (void)run_with_checkpoints(nullptr, nullptr, checkpoints);
  ASSERT_FALSE(checkpoints.empty());
  const std::string& good = checkpoints.front();
  const V1Offsets at = locate_v1_fields(good);
  ASSERT_NE(at.flow, 0u) << "no live VM with a circuit in the checkpoint";
  ASSERT_EQ(good.at(at.type), 0) << "layout walk lost sync (CPU type tag)";
  const auto read = [&](std::size_t offset, std::size_t width) {
    V1Cursor c(good);
    c.skip(offset);
    return c.get(width);
  };
  const std::uint64_t units = read(at.alloc_units, 8);
  const std::uint64_t slices = read(at.slice_count, 8);
  const std::uint64_t brick = read(at.slice, 4);
  const std::uint64_t slice_units = read(at.slice + 4, 8);
  ASSERT_EQ(read(at.demand_units, 8), units) << "layout walk lost sync";
  const std::uint64_t links = read(at.link_count, 8);
  ASSERT_EQ(read(at.switch_count, 8), links + 1) << "layout walk lost sync";
  const std::uint64_t first_switch = read(at.first_switch, 4);
  const std::uint64_t inter_rack = read(at.inter_rack, 1);
  ASSERT_LE(inter_rack, 1u) << "layout walk lost sync";
  ASSERT_EQ(inter_rack == 1, links > 2) << "layout walk lost sync";
  // A second hop that touches neither end of the first.
  const net::Fabric fabric(Scenario::paper_defaults().cluster,
                           Scenario::paper_defaults().fabric);
  const net::Link& first_hop =
      fabric.link(LinkId{static_cast<std::uint32_t>(read(at.link, 4))});
  std::uint64_t stray_link = 0;
  for (std::uint32_t l = 0; l < fabric.num_links(); ++l) {
    const net::Link& hop = fabric.link(LinkId{l});
    const auto touches = [&](SwitchId s) {
      return s == first_hop.endpoint_a() || s == first_hop.endpoint_b();
    };
    if (!touches(hop.endpoint_a()) && !touches(hop.endpoint_b())) {
      stray_link = l;
      break;
    }
  }
  ASSERT_GE(slices, 1u);
  ASSERT_GE(slice_units, 1u);
  const topo::ClusterConfig& cluster = Scenario::paper_defaults().cluster;
  const auto bricks = static_cast<std::uint64_t>(cluster.bricks_per_box);
  const auto brick_units = static_cast<std::uint64_t>(cluster.units_per_brick);

  const auto resume = [](const std::string& bytes) {
    wl::SyntheticConfig cfg;
    cfg.count = 4000;
    Engine fresh(Scenario::paper_defaults(), "RISA");
    wl::SyntheticStreamSource restored(cfg, kDefaultSeed);
    std::istringstream in(bytes);
    return fresh.resume_stream(in, restored);
  };
  // (offset, (width, value)) edits applied to the good checkpoint.
  using Patch =
      std::vector<std::pair<std::size_t, std::pair<std::size_t, std::uint64_t>>>;
  const auto patched = [&](const Patch& edits) {
    std::string bytes = good;
    for (const auto& [offset, edit] : edits) {
      const auto [width, value] = edit;
      for (std::size_t i = 0; i < width; ++i) {
        bytes.at(offset + i) = static_cast<char>((value >> (8 * i)) & 0xFF);
      }
    }
    return bytes;
  };
  EXPECT_NO_THROW((void)resume(good));

  // Each case names the check that must catch it.
  const struct {
    Patch edits;
    const char* field;
    const char* error;
  } cases[] = {
      {{{at.slice + 4, {8, 0}}}, "zero slice units", "slice units out of range"},
      {{{at.slice + 4, {8, brick_units + 1}}}, "slice units past the brick",
       "slice units out of range"},
      // Would narrow to the right u32 value if it were not range-checked.
      {{{at.slice + 4, {8, (std::uint64_t{1} << 32) + slice_units}}},
       "slice units past u32", "slice units out of range"},
      {{{at.slice_count, {8, bricks + 1}}}, "slice count",
       "more slices than bricks"},
      {{{at.alloc_units, {8, units + 1}}, {at.demand_units, {8, units + 1}}},
       "allocation units", "do not sum to the allocation"},
      {{{at.demand_units, {8, units + 1}}}, "demand units",
       "not the VM's demand"},
      {{{at.type, {1, 1}}}, "allocation type", "not its box's"},
      // Box 2 is rack 0's first RAM box: in range, but the wrong type.
      {{{at.box, {4, 2}}}, "CPU allocation in a RAM box", "not its box's"},
      // In range and summing right, but charged to the wrong brick: only
      // the conservation check against the restored occupancy sees it.
      {{{at.slice, {4, (brick + 1) % bricks}}}, "slice brick",
       "do not match brick occupancy"},
      {{{at.link_count, {8, net::CircuitPath::kMaxLinks + 1}}}, "link count",
       "circuit path too long"},
      {{{at.switch_count, {8, net::CircuitPath::kMaxSwitches + 1}}},
       "switch count", "circuit path too long"},
      // A switch id in range, but not where the links meet.
      {{{at.first_switch, {4, first_switch + 1}}}, "switch list",
       "switches do not match its links"},
      {{{at.inter_rack, {1, inter_rack == 0 ? 1 : 0}}}, "inter-rack flag",
       "inter-rack flag does not match its hops"},
      // RAM and storage tags on the CPU allocation of a CPU box.
      {{{at.type, {1, 2}}}, "allocation type (storage)", "not its box's"},
      {{{at.link + 4, {4, stray_link}}}, "links that do not chain",
       "links do not chain"},
  };
  for (const auto& c : cases) {
    try {
      (void)resume(patched(c.edits));
      ADD_FAILURE() << c.field << ": restore accepted the corruption";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("checkpoint:", 0), 0u) << c.field << ": " << what;
      EXPECT_NE(what.find(c.error), std::string::npos)
          << c.field << ": " << what;
    }
  }
}

TEST(StreamingCheckpoint, PreArenaV1FixtureRestoresBitIdentically) {
  // tests/data/prearena_v1.ckpt is a format-v1 "RSK1" checkpoint captured
  // from the engine BEFORE the VM record table moved from a hash map to
  // SlotArena (DESIGN.md §13), mid-run with boxes offline, a link down,
  // retries pending, and migrations mid-schedule.  The arena swap must be
  // checkpoint-transparent: serialization walks records in ascending-index
  // order, so the bytes are container-independent both ways.  Resuming the
  // committed file must reproduce the uninterrupted run's fingerprint --
  // which is both re-derived live and pinned in the committed
  // prearena_v1.fingerprint to catch drift in the run itself.
  FaultPlan faults;
  faults.seed = 5;
  faults.retry.max_attempts = 2;
  faults.retry.delay_tu = 3.0;
  FaultAction fail;
  fail.kind = FaultAction::Kind::Fail;
  fail.at_time = 20000.0;
  fail.random_boxes = 2;
  faults.actions.push_back(fail);
  FaultAction repair = fail;
  repair.kind = FaultAction::Kind::Repair;
  repair.at_time = 35000.0;
  faults.actions.push_back(repair);
  FaultAction link_fail;
  link_fail.kind = FaultAction::Kind::LinkFail;
  link_fail.at_time = 22000.0;
  link_fail.random_links = 1;
  faults.actions.push_back(link_fail);
  FaultAction link_repair;
  link_repair.kind = FaultAction::Kind::LinkRepair;
  link_repair.at_time = 36000.0;
  link_repair.random_links = 1;
  faults.actions.push_back(link_repair);
  faults.validate();

  MigrationPlan migrations;
  migrations.period_tu = 25.0;
  migrations.per_sweep_budget = 4;
  migrations.validate();

  wl::SyntheticConfig cfg;
  cfg.count = 4000;

  // The uninterrupted run under today's engine.
  Engine full_engine(Scenario::paper_defaults(), "RISA");
  full_engine.set_fault_plan(&faults);
  full_engine.set_migration_plan(&migrations);
  wl::SyntheticStreamSource full_source(cfg, kDefaultSeed);
  const SimMetrics full = full_engine.run_stream(full_source, "prearena");
  const std::string want = metrics_fingerprint(full);

  // The committed fingerprint pins the run configuration itself: if this
  // fails, the engine's simulated behavior drifted (not the checkpoint).
  std::ifstream fp_in(RISA_TEST_DATA_DIR "/prearena_v1.fingerprint");
  ASSERT_TRUE(fp_in.good()) << "missing committed fingerprint fixture";
  std::string committed;
  std::getline(fp_in, committed);
  ASSERT_EQ(want, committed);

  // Resume the pre-arena bytes.
  std::ifstream ckpt(RISA_TEST_DATA_DIR "/prearena_v1.ckpt",
                     std::ios::binary);
  ASSERT_TRUE(ckpt.good()) << "missing committed checkpoint fixture";
  Engine resumed_engine(Scenario::paper_defaults(), "RISA");
  resumed_engine.set_fault_plan(&faults);
  resumed_engine.set_migration_plan(&migrations);
  wl::SyntheticStreamSource restored(cfg, kDefaultSeed);
  const SimMetrics resumed = resumed_engine.resume_stream(ckpt, restored);
  EXPECT_EQ(metrics_fingerprint(resumed), want);
  EXPECT_EQ(resumed.events_executed, full.events_executed);
  EXPECT_EQ(resumed.placed, full.placed);
  EXPECT_EQ(resumed.killed, full.killed);
  EXPECT_EQ(resumed.migrated, full.migrated);
  EXPECT_EQ(resumed.requeued, full.requeued);
  // The fixture really did capture lifecycle machinery in flight.
  EXPECT_GT(full.killed, 0u);
  EXPECT_GT(full.migrated, 0u);
  EXPECT_GT(full.requeued, 0u);
}

TEST(StreamingCheckpoint, ResumeRejectsAlgorithmMismatch) {
  wl::SyntheticConfig cfg;
  cfg.count = 2000;
  Engine engine(Scenario::paper_defaults(), "RISA");
  std::vector<std::string> checkpoints;
  CheckpointPolicy policy;
  policy.every_events = 1000;
  policy.emit = [&checkpoints](const std::string& b) {
    checkpoints.push_back(b);
  };
  wl::SyntheticStreamSource source(cfg, kDefaultSeed);
  (void)engine.run_stream(source, "ckpt", &policy);
  ASSERT_FALSE(checkpoints.empty());

  Engine other(Scenario::paper_defaults(), "NULB");
  wl::SyntheticStreamSource restored(cfg, kDefaultSeed);
  std::istringstream in(checkpoints.front());
  EXPECT_THROW((void)other.resume_stream(in, restored), std::runtime_error);
}

// --- Satellite regressions --------------------------------------------------

TEST(Log2HistogramTest, QuantilesStayResolvedAtScale) {
  Log2Histogram h;
  EXPECT_THROW((void)h.percentile(50.0), std::logic_error);

  // The BENCH_engine 5M-row failure mode: millions of small samples plus a
  // handful of giant outliers.  A range-scaled linear histogram collapses
  // to p50 == p99; log-scale bins must keep them an order of magnitude
  // apart.
  for (int i = 0; i < 5'000'000; ++i) h.add(200.0 + (i % 97));
  for (int i = 0; i < 1'000; ++i) h.add(5.0e9);
  const double p50 = h.percentile(50.0);
  const double p99 = h.percentile(99.0);
  EXPECT_NEAR(p50, 250.0, 250.0 / 16.0 + 16.0);  // 1/sub_bins relative error
  EXPECT_NEAR(p99, 297.0, 297.0 / 16.0 + 16.0);
  EXPECT_LT(p50, p99);
  EXPECT_GT(h.percentile(100.0), 4.0e9);
  EXPECT_EQ(h.total(), 5'001'000);

  // Read-out scaling (the engine's ticks->ns calibration).
  h.set_value_scale(2.0);
  EXPECT_EQ(h.percentile(50.0), 2.0 * p50);
  h.clear();
  EXPECT_EQ(h.total(), 0);
  EXPECT_THROW((void)h.percentile(50.0), std::logic_error);
}

TEST(Log2HistogramTest, BinsMatchTheFrexpFormula) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  // The reference: frexp gives x = m * 2^exp with m in [0.5, 1), so the
  // octave is exp - 1 and 2(m - 1/2) sweeps it linearly.
  for (const std::size_t sub_bins : {std::size_t{16}, std::size_t{5}}) {
    const Log2Histogram h(sub_bins);
    const std::size_t last = 64 * sub_bins;
    const auto reference = [&](double x) -> std::size_t {
      if (!(x >= 1.0)) return 0;
      int exp = 0;
      const double m = std::frexp(x, &exp);
      const auto octave = static_cast<std::size_t>(exp - 1);
      if (octave >= 64) return last;
      auto sub = static_cast<std::size_t>((m - 0.5) * 2.0 *
                                          static_cast<double>(sub_bins));
      sub = std::min(sub, sub_bins - 1);
      return 1 + octave * sub_bins + sub;
    };
    const auto check = [&](double x) {
      ASSERT_EQ(h.bin_of(x), reference(x)) << std::hexfloat << x;
    };
    // Every power-of-two edge from 2^-2 to 2^66 and its neighbours.
    for (int e = -2; e <= 66; ++e) {
      const double edge = std::ldexp(1.0, e);
      check(edge);
      check(std::nextafter(edge, 0.0));
      check(std::nextafter(edge, kInf));
    }
    // Sub-bin edges of a few octaves and their neighbours.
    for (const int e : {0, 1, 17, 40, 63}) {
      for (std::size_t k = 0; k <= sub_bins; ++k) {
        const double edge = std::ldexp(
            1.0 + static_cast<double>(k) / static_cast<double>(sub_bins), e);
        check(edge);
        check(std::nextafter(edge, 0.0));
        check(std::nextafter(edge, kInf));
      }
    }
    // 1M random doubles in [1, 2^64): a uniform octave, random fraction.
    Xoshiro256 rng(20231112 + sub_bins);
    for (int i = 0; i < 1'000'000; ++i) {
      const std::uint64_t r = rng();
      const double x =
          std::ldexp(1.0 + static_cast<double>(r >> 12) * 0x1p-52,
                     static_cast<int>(r % 64));
      check(x);
    }
    for (const double x : {0.0, -0.0, 0.5, -1.0, -kInf, kInf, kNaN, -kNaN,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::lowest()}) {
      check(x);
    }
    EXPECT_EQ(h.bin_of(kInf), last);
    EXPECT_EQ(h.bin_of(kNaN), 0u);
    EXPECT_EQ(h.bin_of(-5.0), 0u);
  }
}

TEST(BoxRelease, BadSliceThrowsAndLeavesTheBoxUnchanged) {
  topo::Box box(BoxId{2}, RackId{0}, ResourceType::Cpu, 0,
                std::vector<Units>{4, 4, 4});
  topo::BoxAllocation a;
  ASSERT_TRUE(box.allocate_into(6, a));  // bricks 0 (4) and 1 (2)
  const std::vector<Units> before = box.available_by_brick();
  const std::uint32_t first_free = box.first_free_brick();
  const auto expect_refused = [&](const topo::BoxAllocation& bad) {
    EXPECT_THROW(box.release(bad), std::logic_error);
    EXPECT_EQ(box.available_by_brick(), before);
    EXPECT_EQ(box.allocated_units(), 6);
    EXPECT_EQ(box.first_free_brick(), first_free);
  };
  topo::BoxAllocation foreign = a;
  foreign.box = BoxId{3};
  expect_refused(foreign);
  topo::BoxAllocation bad_brick = a;
  bad_brick.slices.push_back({7, 1});  // after two valid slices
  bad_brick.units += 1;
  expect_refused(bad_brick);
  topo::BoxAllocation too_many = a;
  too_many.slices[1].units = 3;  // brick 1 holds only 2
  too_many.units = 7;
  expect_refused(too_many);
  topo::BoxAllocation twice = a;
  twice.slices.push_back({1, 2});  // brick 1's 2 units named twice
  twice.units = 8;
  expect_refused(twice);
  topo::BoxAllocation empty_slice = a;
  empty_slice.slices.push_back({2, 0});
  expect_refused(empty_slice);
  topo::BoxAllocation short_sum = a;
  short_sum.units = 5;
  expect_refused(short_sum);

  box.release(a);  // the real allocation still releases exactly
  EXPECT_EQ(box.available_units(), 12);
  EXPECT_EQ(box.first_free_brick(), 0u);
  EXPECT_THROW(box.release(a), std::logic_error);  // a double release
  EXPECT_EQ(box.available_units(), 12);
}

TEST(BoxRestore, RestoresHolePatternsExactly) {
  topo::Box box(BoxId{0}, RackId{0}, ResourceType::Cpu, 0,
                std::vector<Units>{4, 4, 4});
  topo::BoxAllocation first, second;
  ASSERT_TRUE(box.allocate_into(4, first));   // fills brick 0
  ASSERT_TRUE(box.allocate_into(4, second));  // fills brick 1
  box.release(first);                         // hole: [4 free, 0, 4 free]
  const std::vector<Units> holes = box.available_by_brick();
  ASSERT_EQ(holes, (std::vector<Units>{4, 0, 4}));

  // A first-fit replay would compact the occupancy into brick 0;
  // restore_bricks must reproduce the recorded holes verbatim.
  topo::Box fresh(BoxId{0}, RackId{0}, ResourceType::Cpu, 0,
                  std::vector<Units>{4, 4, 4});
  fresh.restore_bricks(holes);
  EXPECT_EQ(fresh.available_by_brick(), holes);
  EXPECT_EQ(fresh.allocated_units(), 4u);
  EXPECT_EQ(fresh.available_units(), 8u);

  EXPECT_THROW(fresh.restore_bricks({4, 0}), std::invalid_argument);
  EXPECT_THROW(fresh.restore_bricks({4, 0, 5}), std::invalid_argument);
}

}  // namespace
}  // namespace risa::sim

// Streaming arrival pipeline (DESIGN.md §11): every ArrivalSource backend
// must reproduce the materialized generators exactly (bit-equal doubles,
// original workload indices), the engine's pull-based loop must be
// fingerprint-identical to the materialized path over the figure matrix
// and adversarial tie/unsorted workloads, and a run resumed from any
// mid-run checkpoint must match the uninterrupted run bit-for-bit.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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

TEST(ArrivalSources, MergeSourceOrdersByTimeAndRenumbers) {
  // Two tenants with deliberately colliding ids/indices and interleaved,
  // tying arrival times.
  wl::Workload a, b;
  for (std::uint32_t i = 0; i < 6; ++i) {
    wl::VmRequest vm;
    vm.id = VmId{i};
    vm.cores = 2;
    vm.ram_mb = 2048;
    vm.storage_mb = 4096;
    vm.lifetime = 10.0;
    vm.arrival = static_cast<double>(i * 2);      // 0 2 4 6 8 10
    a.push_back(vm);
    vm.arrival = static_cast<double>(i * 2 + (i % 2));  // 0 3 4 7 8 11
    b.push_back(vm);
  }
  std::vector<std::unique_ptr<wl::ArrivalSource>> children;
  children.push_back(std::make_unique<wl::WorkloadSource>(a));
  children.push_back(std::make_unique<wl::WorkloadSource>(b));
  wl::MergeSource merged(std::move(children));
  EXPECT_EQ(merged.size_hint(), a.size() + b.size());

  const auto got = drain(merged, 5);
  ASSERT_EQ(got.size(), a.size() + b.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Renumbered: fresh consecutive indices and ids in merge order.
    EXPECT_EQ(got[i].index, static_cast<std::uint32_t>(i));
    EXPECT_EQ(got[i].vm.id.value(), static_cast<std::uint32_t>(i));
    if (i > 0) {
      EXPECT_GE(got[i].vm.arrival, got[i - 1].vm.arrival);
    }
  }
  // Equal timestamps break toward the earlier child: both tenants emit at
  // t=0, 4 and 8; child a must come first each time.
  EXPECT_EQ(got[0].vm.arrival, 0.0);
  EXPECT_EQ(got[1].vm.arrival, 0.0);
  EXPECT_EQ(got[0].vm.cores, a[0].cores);

  merged.rewind();
  const auto again = drain(merged, 3);
  ASSERT_EQ(again.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(again[i].vm.arrival, got[i].vm.arrival) << i;
    EXPECT_EQ(again[i].index, got[i].index) << i;
  }
}

// --- Engine equivalence through the pull-based loop -------------------------

TEST(StreamingEngine, FigureMatrixSweepBitIdentical) {
  // The whole figure matrix through the streaming sweep path (synthetic +
  // Azure backends via WorkloadSpec::make_source) against the materialized
  // sweep: every cell fingerprint must match bit-for-bit.
  SweepSpec spec = SweepSpec::figure_matrix(kDefaultSeed);
  const auto materialized = SweepRunner(1).run(spec);
  spec.streaming = true;
  const auto streamed = SweepRunner(1).run(spec);
  ASSERT_EQ(streamed.size(), materialized.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(metrics_fingerprint(streamed[i].metrics),
              metrics_fingerprint(materialized[i].metrics))
        << "cell " << i;
    EXPECT_EQ(streamed[i].metrics.events_executed,
              materialized[i].metrics.events_executed)
        << "cell " << i;
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

/// A streaming RISA run over 4000 synthetic VMs with a checkpoint every
/// 1500 executed events; returns the run's metrics and fills `checkpoints`
/// with every checkpoint it emitted, in order.
SimMetrics run_with_checkpoints(const FaultPlan* faults,
                                const MigrationPlan* migrations,
                                std::vector<std::string>& checkpoints) {
  wl::SyntheticConfig cfg;
  cfg.count = 4000;
  Engine engine(Scenario::paper_defaults(), "RISA");
  engine.set_fault_plan(faults);
  engine.set_migration_plan(migrations);
  CheckpointPolicy policy;
  policy.every_events = 1500;
  policy.emit = [&checkpoints](const std::string& bytes) {
    checkpoints.push_back(bytes);
  };
  wl::SyntheticStreamSource source(cfg, kDefaultSeed);
  return engine.run_stream(source, "ckpt", &policy);
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

/// Run `count` synthetic VMs streaming with a checkpoint every
/// `every_events` events, then resume each captured checkpoint in a fresh
/// engine and demand the uninterrupted run's exact fingerprint.
void expect_resume_bit_identical(const FaultPlan* faults,
                                 const MigrationPlan* migrations) {
  wl::SyntheticConfig cfg;
  cfg.count = 4000;
  std::vector<std::string> checkpoints;
  const SimMetrics full = run_with_checkpoints(faults, migrations, checkpoints);
  const std::string want = metrics_fingerprint(full);
  ASSERT_GE(checkpoints.size(), 2u) << "cadence produced too few checkpoints";

  for (std::size_t c = 0; c < checkpoints.size(); ++c) {
    Engine fresh(Scenario::paper_defaults(), "RISA");
    fresh.set_fault_plan(faults);
    fresh.set_migration_plan(migrations);
    wl::SyntheticStreamSource restored(cfg, kDefaultSeed);
    std::istringstream in(checkpoints[c]);
    const SimMetrics resumed = fresh.resume_stream(in, restored);
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
/// the calendar entry count, and of the first pending fault entry's action
/// index (0 when no fault is pending); plus the offsets of every VM id
/// that names that VM's record (its own, its placement's, each circuit's)
/// and the id of another live VM.
struct V1Offsets {
  std::size_t vm = 0, placement_vm = 0, box = 0, type = 0, rack = 0,
              circuit_vm = 0, flow = 0, link = 0, events = 0,
              fault_subject = 0;
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
  c.skip(c.get(8));                       // drop reasons, first-seen order
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
    for (std::size_t t = 0; t < kNumResourceTypes; ++t) {
      c.skip(4 + 1 + 8);
      c.skip(c.get(8) * 12);  // brick slices
    }
    rec.rack = c.pos();
    c.skip(3 * 4 + 3 * 8 + 2 * 8 + 2);
    for (std::uint64_t k = c.get(8); k > 0; --k) {
      rec.owner_ids.push_back(c.pos() + 4);
      const std::size_t flow = c.pos() + 8;
      c.skip(4 + 4 + 1 + 8);
      const std::uint64_t links = c.get(8);
      if (rec.flow == 0 && links > 0) {
        rec.circuit_vm = flow - 4;
        rec.flow = flow;
        rec.link = c.pos();
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
  c.skip(4 + 8);  // next circuit id, next calendar seq
  at.events = c.pos();
  for (std::uint64_t n = c.get(8); n > 0 && at.fault_subject == 0; --n) {
    c.skip(8 + 8);  // time, seq
    const auto kind = static_cast<des::LifecycleKind>(c.get(1));
    if (kind == des::LifecycleKind::BoxFail ||
        kind == des::LifecycleKind::BoxRepair ||
        kind == des::LifecycleKind::LinkFail ||
        kind == des::LifecycleKind::LinkRepair) {
      at.fault_subject = c.pos();
    }
    c.skip(4 + 4);  // subject, epoch
  }
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

TEST(Log2HistogramTest, PercentilesStayResolvedAtScale) {
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

TEST(BoxRestore, RestoresHolePatternsExactly) {
  topo::Box box(BoxId{0}, RackId{0}, ResourceType::Cpu, 0, {4, 4, 4});
  topo::BoxAllocation first, second;
  ASSERT_TRUE(box.allocate_into(4, first));   // fills brick 0
  ASSERT_TRUE(box.allocate_into(4, second));  // fills brick 1
  box.release(first);                         // hole: [4 free, 0, 4 free]
  const std::vector<Units> holes = box.available_by_brick();
  ASSERT_EQ(holes, (std::vector<Units>{4, 0, 4}));

  // A first-fit replay would compact the occupancy into brick 0;
  // restore_bricks must reproduce the recorded holes verbatim.
  topo::Box fresh(BoxId{0}, RackId{0}, ResourceType::Cpu, 0, {4, 4, 4});
  fresh.restore_bricks(holes);
  EXPECT_EQ(fresh.available_by_brick(), holes);
  EXPECT_EQ(fresh.allocated_units(), 4u);
  EXPECT_EQ(fresh.available_units(), 8u);

  EXPECT_THROW(fresh.restore_bricks({4, 0}), std::invalid_argument);
  EXPECT_THROW(fresh.restore_bricks({4, 0, 5}), std::invalid_argument);
}

}  // namespace
}  // namespace risa::sim

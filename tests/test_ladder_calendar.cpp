// LadderCalendar (des/ladder_calendar.hpp): the engine's O(1)-amortized
// event calendar must pop in *exactly* the (time, seq) order of the
// reference BasicCalendar heap -- the differential tests here pin the
// order-identity argument of DESIGN.md §12 -- plus checkpoint round-trips
// with entries resident in every tier, and the phase-attributed profiler's
// accounting bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "des/calendar.hpp"
#include "des/ladder_calendar.hpp"
#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "workload/synthetic.hpp"

namespace risa {
namespace {

using Heap = des::BasicCalendar<std::uint32_t, 4>;
using Ladder = des::LadderCalendar<std::uint32_t>;

/// Drive the heap and the ladder through one identical interleaved
/// push/pop schedule and demand bit-identical pop streams.  `next_delta`
/// yields the next push's offset from the last popped time (the engine's
/// no-past-scheduling contract: every push lands at now + delta, delta >=
/// 0); `now` starts at `start` (the last time both already popped).  Pops
/// interleave with pushes so the ladder exercises mid-drain routing
/// (pushes below top_start_ landing in live rungs and in bottom).
template <typename DeltaFn>
void expect_differential_identical(DeltaFn next_delta, int rounds,
                                   int pushes_per_round, Rng& rng,
                                   Heap& heap, Ladder& ladder,
                                   double start = 0.0) {
  double now = start;
  std::uint32_t id = 0;
  auto pop_both = [&] {
    const auto h = heap.pop();
    const auto l = ladder.pop();
    ASSERT_EQ(l.time, h.time);
    ASSERT_EQ(l.seq, h.seq);
    ASSERT_EQ(l.payload, h.payload);
    now = h.time;
  };
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < pushes_per_round; ++i) {
      const double t = now + next_delta();
      heap.push(t, id);
      ladder.push(t, id);
      ++id;
    }
    const int drain = static_cast<int>(rng.uniform_int(0, 6));
    for (int i = 0; i < drain && !heap.empty(); ++i) pop_both();
    ASSERT_EQ(ladder.size(), heap.size());
  }
  while (!heap.empty()) pop_both();
  EXPECT_TRUE(ladder.empty());
  EXPECT_EQ(ladder.scheduled_total(), heap.scheduled_total());
}

TEST(LadderCalendar, ChurnyUniformMatchesHeap) {
  Rng rng(101);
  Heap heap;
  Ladder ladder;
  Rng deltas(7);
  expect_differential_identical(
      [&] { return static_cast<double>(deltas.uniform_int(0, 50)); },
      /*rounds=*/400, /*pushes_per_round=*/8, rng, heap, ladder);
}

TEST(LadderCalendar, TieStormsMatchHeapFifo) {
  // Integer deltas with a heavy mass at zero: long equal-time runs that
  // must pop FIFO by seq, including runs larger than any bucket/bottom
  // threshold (a tie storm cannot be split by a finer rung width).
  Rng rng(202);
  Heap heap;
  Ladder ladder;
  Rng deltas(13);
  expect_differential_identical(
      [&] {
        return deltas.uniform_int(0, 9) < 7
                   ? 0.0
                   : static_cast<double>(deltas.uniform_int(1, 4));
      },
      /*rounds=*/200, /*pushes_per_round=*/16, rng, heap, ladder);
}

TEST(LadderCalendar, BimodalHoldTimesMatchHeap) {
  // The engine's real shape: most departures land near now (short holds),
  // a tail lands epochs away (long holds), so pushes straddle every tier.
  Rng rng(303);
  Heap heap;
  Ladder ladder;
  Rng deltas(17);
  expect_differential_identical(
      [&] {
        return deltas.uniform_int(0, 9) < 8
                   ? static_cast<double>(deltas.uniform_int(0, 30))
                   : static_cast<double>(deltas.uniform_int(5'000, 20'000));
      },
      /*rounds=*/300, /*pushes_per_round=*/12, rng, heap, ladder);
}

TEST(LadderCalendar, FractionalTimesMatchHeap) {
  // Continuous times (no manufactured ties): exercises the floating-point
  // bucket-index routing over irregular spans.
  Rng rng(404);
  Heap heap;
  Ladder ladder;
  Rng deltas(29);
  expect_differential_identical(
      [&] { return deltas.uniform(0.0, 37.5); },
      /*rounds=*/400, /*pushes_per_round=*/8, rng, heap, ladder);
}

TEST(LadderCalendar, ResetAndReuseMatchesHeap) {
  // The engine-reuse path: a drained calendar is reset (with a nonzero
  // first_seq, like the departure calendar seeded at the arrival count)
  // and must behave exactly like a fresh one, schedule after schedule.
  Rng rng(505);
  Heap heap;
  Ladder ladder;
  for (std::uint64_t round = 0; round < 4; ++round) {
    const std::uint64_t first_seq = round * 10'000;
    heap.reset(first_seq);
    ladder.reset(first_seq);
    Rng deltas(31 + round);
    expect_differential_identical(
        [&] { return static_cast<double>(deltas.uniform_int(0, 25)); },
        /*rounds=*/120, /*pushes_per_round=*/10, rng, heap, ladder);
  }
}

TEST(LadderCalendar, SortedEntriesIsAscendingAndCoversEveryTier) {
  // Build a calendar with entries provably resident in all three tiers:
  // 500 spread entries + one pop forces a surface (spawns a rung and fills
  // bottom: 500 > the bottom threshold); pushes below top_start_ then land
  // in rung buckets or bottom, and pushes at/after top_start_ land in the
  // reopened top epoch.
  Rng rng(606);
  Ladder ladder;
  std::uint32_t id = 0;
  for (int i = 0; i < 500; ++i) {
    ladder.push(rng.uniform(0.0, 1000.0), id++);
  }
  const auto first = ladder.pop();  // surfaces: bottom + rungs live
  ladder.push(first.time + 1.0, id++);      // below top_start_: rung/bottom
  ladder.push(first.time + 2000.0, id++);   // at/after top_start_: top epoch
  const auto entries = ladder.sorted_entries();
  ASSERT_EQ(entries.size(), ladder.size());
  for (std::size_t i = 1; i < entries.size(); ++i) {
    const bool ascending =
        entries[i - 1].time < entries[i].time ||
        (entries[i - 1].time == entries[i].time &&
         entries[i - 1].seq < entries[i].seq);
    ASSERT_TRUE(ascending) << "entry " << i << " out of order";
  }

  // Round-trip: a fresh ladder restored from the snapshot must continue
  // exactly like the original, including pushes made after the restore.
  Ladder restored;
  restored.restore(entries, ladder.scheduled_total());
  EXPECT_EQ(restored.size(), ladder.size());
  double now = first.time;
  Rng deltas(37);
  while (!ladder.empty()) {
    if (deltas.uniform_int(0, 3) == 0) {
      const double t = now + static_cast<double>(deltas.uniform_int(0, 500));
      ladder.push(t, id);
      restored.push(t, id);
      ++id;
    }
    const auto a = ladder.pop();
    const auto b = restored.pop();
    ASSERT_EQ(b.time, a.time);
    ASSERT_EQ(b.seq, a.seq);
    ASSERT_EQ(b.payload, a.payload);
    now = a.time;
  }
  EXPECT_TRUE(restored.empty());
}

TEST(LadderCalendar, RestoresV1HeapArrayBitIdentically) {
  // Back-compat: a v1 checkpoint serialized BasicCalendar's raw heap
  // array.  restore() must accept that order (it reloads any permutation
  // as a fresh pushed-everything-popped-nothing top epoch) and continue
  // with the identical pop stream.
  Rng rng(707);
  Heap heap;
  std::uint32_t id = 0;
  for (int i = 0; i < 300; ++i) {
    heap.push(static_cast<double>(rng.uniform_int(0, 120)), id++);
  }
  Ladder ladder;
  std::vector<Ladder::Entry> v1;
  v1.reserve(heap.entries().size());
  for (const Heap::Entry& e : heap.entries()) {
    v1.push_back(Ladder::Entry{e.time, e.seq, e.payload});
  }
  ladder.restore(std::move(v1), heap.scheduled_total());
  double now = 0.0;
  Rng deltas(41);
  while (!heap.empty()) {
    if (deltas.uniform_int(0, 2) == 0) {
      const double t = now + static_cast<double>(deltas.uniform_int(0, 60));
      heap.push(t, id);
      ladder.push(t, id);
      ++id;
    }
    const auto h = heap.pop();
    const auto l = ladder.pop();
    ASSERT_EQ(l.time, h.time);
    ASSERT_EQ(l.seq, h.seq);
    ASSERT_EQ(l.payload, h.payload);
    now = h.time;
  }
  EXPECT_TRUE(ladder.empty());
}

TEST(LadderCalendar, DrainedBucketsDoNotRetainBuffers) {
  // The fault-plan shape: far-future sentinels pushed up front make the
  // first rung span the whole horizon, so it is never respawned and every
  // churn push routes into its buckets.  Drained buckets must hand their
  // buffers on rather than each keep one, so retained capacity follows the
  // pending population -- and the pop order still matches the heap.
  Rng rng(808);
  Heap heap;
  Ladder ladder;
  std::uint32_t id = 0;
  auto push_both = [&](double t) {
    heap.push(t, id);
    ladder.push(t, id);
    ++id;
  };
  constexpr double kHorizon = 2'000'000.0;
  for (int i = 1; i <= 16; ++i) push_both(kHorizon * i / 16.0);
  double now = 0.0;
  for (int i = 0; i < 2000; ++i) push_both(rng.uniform(0.0, 5000.0));
  std::size_t peak = ladder.size();
  std::size_t max_retained = 0;
  for (int step = 0; step < 300'000; ++step) {
    const auto h = heap.pop();
    const auto l = ladder.pop();
    ASSERT_EQ(l.time, h.time);
    ASSERT_EQ(l.seq, h.seq);
    ASSERT_EQ(l.payload, h.payload);
    now = h.time;
    // Steady churn: on average each pop is replaced, partly in bursts.
    const std::int64_t r = rng.uniform_int(0, 99);
    const int pushes = r == 0 ? 40 : (r < 40 ? 0 : 1);
    for (int k = 0; k < pushes && now < kHorizon / 2; ++k) {
      push_both(now + rng.uniform(0.0, 5000.0));
    }
    peak = std::max(peak, ladder.size());
    if (step % 1000 == 0) {
      max_retained = std::max(max_retained, ladder.retained_capacity());
    }
  }
  while (!heap.empty()) {
    const auto h = heap.pop();
    const auto l = ladder.pop();
    ASSERT_EQ(l.seq, h.seq);
  }
  EXPECT_TRUE(ladder.empty());
  EXPECT_LE(max_retained, 4 * peak) << "peak size " << peak;
}

// --- In-order epochs (DESIGN.md §12, point 5) --------------------------------
//
// When every push lands at or after the latest pending time -- the
// departure order of a fixed or nondecreasing lifetime -- the top epoch is
// already sorted and is taken into bottom whole.  An earlier push that then
// finds a long run in bottom re-buckets the run's rest into a rung first.

TEST(LadderInOrder, ConstantDeltaHoldsMatchHeap) {
  for (const double hold : {100.0, 37.25}) {
    Rng rng(909);
    Heap heap;
    Ladder ladder;
    expect_differential_identical([&] { return hold; },
                                  /*rounds=*/600, /*pushes_per_round=*/8, rng,
                                  heap, ladder);
  }
}

TEST(LadderInOrder, NondecreasingHoldsWithLongEqualTimeRunsMatchHeap) {
  // The paper's §5.1 shape: the hold steps up every 100 pushes and never
  // falls, so pushes stay in order, in equal-time runs that span rounds
  // whenever a round pops nothing.
  Rng rng(910);
  Heap heap;
  Ladder ladder;
  std::uint64_t pushes = 0;
  expect_differential_identical(
      [&] { return 60.0 + 4.0 * static_cast<double>(pushes++ / 100); },
      /*rounds=*/500, /*pushes_per_round=*/16, rng, heap, ladder);
}

/// Push `run` (ascending times) into both structures, pop once -- the
/// ladder takes the whole epoch into bottom -- then push one entry at
/// `early` (below the run's last time, at or after the popped one) and
/// continue with in-order holds broken by 2% short ones.
void expect_broken_run_identical(const std::vector<double>& run, double early,
                                 std::uint64_t seed) {
  Heap heap;
  Ladder ladder;
  std::uint32_t id = 0;
  for (const double t : run) {
    heap.push(t, id);
    ladder.push(t, id);
    ++id;
  }
  const auto h = heap.pop();
  const auto l = ladder.pop();
  ASSERT_EQ(l.seq, h.seq);
  ASSERT_LE(h.time, early);
  heap.push(early, id);
  ladder.push(early, id);
  Rng rng(seed);
  Rng deltas(seed + 1);
  expect_differential_identical(
      [&] {
        return deltas.uniform_int(0, 49) == 0
                   ? static_cast<double>(deltas.uniform_int(0, 20))
                   : 300.0;
      },
      /*rounds=*/400, /*pushes_per_round=*/4, rng, heap, ladder, h.time);
}

TEST(LadderInOrder, EarlierPushAfterTakingAnEpochMatchesHeap) {
  std::vector<double> spread;
  for (int i = 0; i < 500; ++i) spread.push_back(0.5 * i);
  // Pops 0.0; the pending run is [0.5, 249.5], top_start_ = 249.5.
  expect_broken_run_identical(spread, 0.25, 1);    // before every pending
  expect_broken_run_identical(spread, 100.25, 2);  // inside the run
  expect_broken_run_identical(spread, 100.0, 3);   // tied with a pending one
  expect_broken_run_identical(spread, 0.0, 4);     // at the last popped time
  // A run whose rest is all at one time cannot be split by a rung: the
  // push insertion-sorts into bottom ahead of it.
  std::vector<double> ties(1, 1.0);
  ties.resize(400, 5.0);
  expect_broken_run_identical(ties, 3.0, 5);
  expect_broken_run_identical(ties, 1.0, 6);
  // The rest spans only the smallest denormal: the rung width underflows,
  // so the run stays sorted in bottom and the push insertion-sorts into it.
  std::vector<double> tiny(300, 0.0);
  tiny.push_back(std::numeric_limits<double>::denorm_min());
  expect_broken_run_identical(tiny, 0.0, 7);
}

TEST(LadderInOrder, RestoredSortedEntriesThenInOrderPushesMatchHeap) {
  Heap heap;
  std::vector<Ladder::Entry> entries;
  for (std::uint32_t i = 0; i < 700; ++i) {
    const double t = 0.25 * (i / 3);  // runs of three equal times
    heap.push(t, i);
    entries.push_back(Ladder::Entry{t, i, i});
  }
  Ladder ladder;
  ladder.restore(std::move(entries), heap.scheduled_total());
  Rng rng(911);
  expect_differential_identical([] { return 180.0; }, /*rounds=*/400,
                                /*pushes_per_round=*/3, rng, heap, ladder);

  // A mid-run snapshot (the canonical checkpoint form) restores into a
  // calendar that continues exactly like the original.
  Heap original;
  Ladder snapshot_source;
  for (std::uint32_t i = 0; i < 400; ++i) {
    original.push(0.5 * i, i);
    snapshot_source.push(0.5 * i, i);
  }
  double now = 0.0;
  for (int i = 0; i < 150; ++i) {
    const auto a = original.pop();
    const auto b = snapshot_source.pop();
    ASSERT_EQ(b.seq, a.seq);
    now = a.time;
    original.push(now + 200.0, static_cast<std::uint32_t>(1000 + i));
    snapshot_source.push(now + 200.0, static_cast<std::uint32_t>(1000 + i));
  }
  Ladder restored;
  restored.restore(snapshot_source.sorted_entries(),
                   snapshot_source.scheduled_total());
  expect_differential_identical([] { return 200.0; }, /*rounds=*/300,
                                /*pushes_per_round=*/3, rng, original,
                                restored, now);
}

TEST(LadderInOrder, ResetMidRunAndReuseMatchesHeap) {
  Rng rng(912);
  Heap heap;
  Ladder ladder;
  for (std::uint64_t round = 0; round < 4; ++round) {
    // Leave a taken epoch half drained in bottom and a fresh one in top,
    // then reset: the reused calendar must behave like a fresh one.
    for (std::uint32_t i = 0; i < 300; ++i) {
      heap.push(1.5 * i, i);
      ladder.push(1.5 * i, i);
    }
    for (int i = 0; i < 120; ++i) {
      const auto h = heap.pop();
      const auto l = ladder.pop();
      ASSERT_EQ(l.seq, h.seq);
      heap.push(h.time + 450.0, 0);
      ladder.push(h.time + 450.0, 0);
    }
    const std::uint64_t first_seq = round * 10'000;
    heap.reset(first_seq);
    ladder.reset(first_seq);
    Rng deltas(913 + round);
    expect_differential_identical(
        [&] {
          return deltas.uniform_int(0, 9) == 0
                     ? static_cast<double>(deltas.uniform_int(0, 30))
                     : 90.0;
        },
        /*rounds=*/150, /*pushes_per_round=*/6, rng, heap, ladder);
  }
}

TEST(LadderInOrder, ConstantDeltaChurnAllocatesNoBucket) {
  // Hold model at a 10k census over distinct, evenly spread times: every
  // epoch arrives sorted, so the ladder's only buffers are top's and
  // bottom's, each grown by push_back to at most the peak population.  A
  // bucketed epoch would add a buffer per occupied bucket (~4096 x 8
  // entries here) on top of those two.
  constexpr std::uint32_t kCensus = 10'000;
  constexpr double kHold = 6300.0;
  Heap heap;
  Ladder ladder;
  for (std::uint32_t i = 0; i < kCensus; ++i) {
    const double t = kHold * i / kCensus;
    heap.push(t, i);
    ladder.push(t, i);
  }
  const std::size_t peak = ladder.size();
  std::size_t max_retained = 0;
  for (int step = 0; step < 8 * static_cast<int>(kCensus); ++step) {
    const auto h = heap.pop();
    const auto l = ladder.pop();
    ASSERT_EQ(l.time, h.time);
    ASSERT_EQ(l.seq, h.seq);
    heap.push(h.time + kHold, h.payload);
    ladder.push(h.time + kHold, l.payload);
    ASSERT_EQ(ladder.size(), peak);
    max_retained = std::max(max_retained, ladder.retained_capacity());
  }
  std::vector<Ladder::Entry> grown;
  for (std::size_t i = 0; i < peak; ++i) grown.emplace_back();
  EXPECT_LE(max_retained, 2 * grown.capacity());
  EXPECT_LE(max_retained, 4 * peak);
}

TEST(LadderInOrder, RebucketedRunGivesUpItsBuffer) {
  // An in-order epoch of 4000 evenly spread times is taken whole into
  // bottom; one earlier push then re-buckets the run's rest into a rung of
  // one entry per bucket, each in a fresh 8-entry buffer.  Bottom's
  // run-sized buffer must go (freed: it is far past the spare pool's size
  // cap) rather than sit empty beside the rung; top holds no buffer yet.
  constexpr std::uint32_t kRun = 4000;
  Heap heap;
  Ladder ladder;
  for (std::uint32_t i = 0; i < kRun; ++i) {
    heap.push(0.5 * i, i);
    ladder.push(0.5 * i, i);
  }
  const auto h = heap.pop();
  const auto l = ladder.pop();
  ASSERT_EQ(l.seq, h.seq);
  const std::size_t pending = ladder.size();
  ASSERT_GE(ladder.retained_capacity(), pending);  // the run's buffer
  heap.push(100.25, kRun);
  ladder.push(100.25, kRun);  // below the run's last time: re-buckets it
  EXPECT_LE(ladder.retained_capacity(), 8 * (pending + 2));
  Rng rng(914);
  expect_differential_identical([] { return 2000.0; }, /*rounds=*/200,
                                /*pushes_per_round=*/4, rng, heap, ladder,
                                h.time);
}

// Ladder::Entry and Heap::Entry must stay layout-compatible: the engine's
// checkpoint reader deserializes either generation's array into
// decltype(events_)::Entry fields.
static_assert(sizeof(Ladder::Entry) == sizeof(Heap::Entry));

// --- Phase-attributed profiler (sim/phase_profiler.hpp) ----------------------

TEST(PhaseProfiler, RecordedPhasesAreNonNegativeAndBoundedByWall) {
  wl::SyntheticConfig cfg;
  cfg.count = 4000;
  wl::SyntheticStreamSource source(cfg, sim::kDefaultSeed);
  sim::Engine engine(sim::Scenario::paper_defaults(), "RISA");
  engine.set_profiling(true);
  const sim::SimMetrics m = engine.run_stream(source, "profiled");
  ASSERT_TRUE(m.profile.recorded);
  for (std::size_t p = 0; p < sim::kNumPhases; ++p) {
    EXPECT_GE(m.profile.seconds[p], 0.0) << sim::kPhaseNames[p];
  }
  // The spans are exclusive under nesting, so their sum can never exceed
  // the wall clock that brackets them (small epsilon for the calibration's
  // two distinct clock reads).
  EXPECT_LE(m.profile.total(), m.sim_wall_seconds * 1.001);
  // A 4000-VM run spends real time placing and pulling arrivals, and in
  // the merge loop's own scaffolding.
  EXPECT_GT(m.profile[sim::Phase::Placement], 0.0);
  EXPECT_GT(m.profile[sim::Phase::SourcePull], 0.0);
  EXPECT_GT(m.profile[sim::Phase::Merge], 0.0);
}

TEST(PhaseProfiler, DisabledRunRecordsNothingAndMetricsMatch) {
  wl::SyntheticConfig cfg;
  cfg.count = 4000;
  sim::Engine engine(sim::Scenario::paper_defaults(), "RISA");

  wl::SyntheticStreamSource plain_src(cfg, sim::kDefaultSeed);
  const sim::SimMetrics plain = engine.run_stream(plain_src, "w");
  EXPECT_FALSE(plain.profile.recorded);
  EXPECT_EQ(plain.profile.total(), 0.0);

  engine.set_profiling(true);
  wl::SyntheticStreamSource profiled_src(cfg, sim::kDefaultSeed);
  const sim::SimMetrics profiled = engine.run_stream(profiled_src, "w");
  EXPECT_TRUE(profiled.profile.recorded);

  // Profiling is measurement, not simulation: every deterministic output
  // is bit-identical with it on or off.
  EXPECT_EQ(sim::metrics_fingerprint(plain), sim::metrics_fingerprint(profiled));
}

}  // namespace
}  // namespace risa

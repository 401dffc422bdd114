// Discrete-event kernel: ordering, determinism, processes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "des/process.hpp"
#include "des/simulator.hpp"

namespace risa::des {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&](Simulator&) { order.push_back(2); });
  sim.schedule_at(1.0, [&](Simulator&) { order.push_back(1); });
  sim.schedule_at(9.0, [&](Simulator&) { order.push_back(3); });
  EXPECT_DOUBLE_EQ(sim.run(), 9.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.executed(), 3u);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, SimultaneousEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(7.0, [&order, i](Simulator&) { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&](Simulator& s) {
    ++fired;
    s.schedule_after(2.0, [&](Simulator&) { ++fired; });
  });
  EXPECT_DOUBLE_EQ(sim.run(), 3.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator sim;
  sim.schedule_at(10.0, [](Simulator&) {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, [](Simulator&) {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1.0, [](Simulator&) {}),
               std::invalid_argument);
}

TEST(Simulator, RunUntilHorizonLeavesLaterEventsPending) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&](Simulator&) { ++fired; });
  sim.schedule_at(100.0, [&](Simulator&) { ++fired; });
  sim.run(50.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&](Simulator&) { ++fired; });
  sim.schedule_at(2.0, [&](Simulator&) { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Calendar, PopOrdersByTimeThenSequence) {
  Calendar cal;
  cal.push(2.0, [](Simulator&) {});
  cal.push(1.0, [](Simulator&) {});
  cal.push(1.0, [](Simulator&) {});
  EXPECT_EQ(cal.size(), 3u);
  const Event a = cal.pop();
  const Event b = cal.pop();
  const Event c = cal.pop();
  EXPECT_DOUBLE_EQ(a.time, 1.0);
  EXPECT_DOUBLE_EQ(b.time, 1.0);
  EXPECT_LT(a.seq, b.seq);
  EXPECT_DOUBLE_EQ(c.time, 2.0);
  EXPECT_TRUE(cal.empty());
}

// --- Typed POD calendar (the engine's departure heap) ------------------------

using PodCalendar = BasicCalendar<std::uint32_t, 4>;

TEST(TypedCalendar, EqualTimestampsPopInFifoOrder) {
  PodCalendar cal;
  for (std::uint32_t i = 0; i < 64; ++i) cal.push(3.5, i);
  std::uint64_t prev_seq = 0;
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto e = cal.pop();
    EXPECT_DOUBLE_EQ(e.time, 3.5);
    EXPECT_EQ(e.payload, i);  // FIFO: payload pushed i-th pops i-th
    if (i > 0) {
      EXPECT_GT(e.seq, prev_seq);
    }
    prev_seq = e.seq;
  }
  EXPECT_TRUE(cal.empty());
}

TEST(TypedCalendar, RandomStressMatchesStableSort) {
  // The 4-ary heap must order (time, seq) exactly like a stable sort of
  // the push sequence by time.
  Rng rng(7);
  PodCalendar cal;
  std::vector<std::pair<double, std::uint32_t>> ref;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    // Coarse times force plenty of exact ties.
    const double t = static_cast<double>(rng.uniform_int(0, 99));
    cal.push(t, i);
    ref.emplace_back(t, i);
  }
  std::stable_sort(ref.begin(), ref.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [t, payload] : ref) {
    const auto e = cal.pop();
    EXPECT_DOUBLE_EQ(e.time, t);
    EXPECT_EQ(e.payload, payload);
  }
  EXPECT_TRUE(cal.empty());
}

TEST(TypedCalendar, InterleavedPushPopKeepsOrdering) {
  Rng rng(11);
  PodCalendar cal;
  double last_popped = 0.0;
  std::uint32_t id = 0;
  for (int round = 0; round < 200; ++round) {
    // Push a burst at or after the last popped time (no past scheduling,
    // like departures), then drain a few.
    const int burst = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < burst; ++i) {
      cal.push(last_popped + static_cast<double>(rng.uniform_int(0, 20)), id++);
    }
    const int drain = static_cast<int>(rng.uniform_int(0, 4));
    for (int i = 0; i < drain && !cal.empty(); ++i) {
      const auto e = cal.pop();
      EXPECT_GE(e.time, last_popped);
      last_popped = e.time;
    }
  }
  while (!cal.empty()) {
    const auto e = cal.pop();
    EXPECT_GE(e.time, last_popped);
    last_popped = e.time;
  }
}

TEST(TypedCalendar, ResetRestartsSequenceAtGivenBase) {
  PodCalendar cal;
  cal.push(1.0, 0);
  (void)cal.pop();
  cal.reset(/*first_seq=*/1000);
  cal.push(5.0, 7);
  cal.push(5.0, 8);
  const auto a = cal.pop();
  const auto b = cal.pop();
  EXPECT_EQ(a.seq, 1000u);
  EXPECT_EQ(b.seq, 1001u);
  EXPECT_EQ(cal.scheduled_total(), 1002u);
}

// The engine's merged stream: arrivals (sorted array, seq = index) against
// a departures-only calendar whose seqs start at the arrival count.  The
// merge rule "arrival wins when arrival_time <= departure_time" must
// reproduce the order of one big (time, seq) heap holding both.
TEST(TypedCalendar, SortedStreamMergeMatchesSingleHeap) {
  Rng rng(23);
  const std::uint32_t n = 400;
  std::vector<double> arrival(n);
  std::vector<double> lifetime(n);
  double t = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    // Integer gaps (often zero) manufacture arrival/departure ties.
    t += static_cast<double>(rng.uniform_int(0, 3));
    arrival[i] = t;
    lifetime[i] = static_cast<double>(rng.uniform_int(0, 12));
  }

  // Reference: one heap holding arrivals (pushed first: seq 0..n-1) and
  // departures (pushed as their arrival executes).  Payload encodes
  // (is_departure, index).
  std::vector<std::pair<bool, std::uint32_t>> ref_order;
  {
    BasicCalendar<std::pair<bool, std::uint32_t>, 2> heap;
    for (std::uint32_t i = 0; i < n; ++i) heap.push(arrival[i], {false, i});
    while (!heap.empty()) {
      const auto e = heap.pop();
      ref_order.push_back(e.payload);
      if (!e.payload.first) {
        heap.push(e.time + lifetime[e.payload.second],
                  {true, e.payload.second});
      }
    }
  }

  // Merged form: arrival cursor + departures-only calendar seeded at n.
  std::vector<std::pair<bool, std::uint32_t>> merged_order;
  {
    PodCalendar departures;
    departures.reset(/*first_seq=*/n);
    std::uint32_t cursor = 0;
    while (cursor < n || !departures.empty()) {
      const bool take_arrival =
          cursor < n &&
          (departures.empty() || arrival[cursor] <= departures.next_time());
      if (take_arrival) {
        merged_order.emplace_back(false, cursor);
        departures.push(arrival[cursor] + lifetime[cursor], cursor);
        ++cursor;
      } else {
        const auto e = departures.pop();
        merged_order.emplace_back(true, e.payload);
      }
    }
  }

  ASSERT_EQ(ref_order.size(), 2u * n);
  EXPECT_EQ(merged_order, ref_order);
}

TEST(PoissonArrivals, FiresExactlyNTimesWithExpectedSpacing) {
  Simulator sim;
  Rng rng(99);
  std::vector<double> times;
  PoissonArrivals arrivals(10.0, 2000, [&](Simulator& s, std::size_t i) {
    EXPECT_EQ(i, times.size());
    times.push_back(s.now());
  });
  arrivals.start(sim, rng);
  sim.run();
  ASSERT_EQ(times.size(), 2000u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    ASSERT_GT(times[i], times[i - 1]);
  }
  // Mean gap should approximate the paper's 10 tu.
  EXPECT_NEAR(times.back() / 2000.0, 10.0, 0.8);
}

TEST(PoissonArrivals, ZeroCountIsANoop) {
  Simulator sim;
  Rng rng(1);
  PoissonArrivals arrivals(10.0, 0, [](Simulator&, std::size_t) { FAIL(); });
  arrivals.start(sim, rng);
  sim.run();
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(PoissonArrivals, NonPositiveMeanThrows) {
  EXPECT_THROW(PoissonArrivals(0.0, 1, [](Simulator&, std::size_t) {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace risa::des

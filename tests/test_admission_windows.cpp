// Admission windows (DESIGN.md §13): the merge loop admits each maximal run
// of arrivals that sorts before the calendar head under one bracket, and a
// window differs from a single arrival only in how many profiler and
// telemetry spans it opens.  The plan-free tie case is checked against the
// closure reference loop (EngineEquivalence.EqualTimestampTies), and the
// lifecycle tie storm resumes from every checkpoint it emits
// (test_streaming).  Here: a timeline leaves the tie storm's fingerprint
// unchanged, and a sweep over it is byte-identical at 1 and 8 threads.
#include <gtest/gtest.h>

#include <cstdint>

#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "sim/sweep.hpp"
#include "sim/timeline.hpp"
#include "tie_storm.hpp"

namespace risa::sim {
namespace {

TEST(AdmissionWindows, TimelineLeavesFingerprintUnchanged) {
  // A timeline switches settlement to one signal sample per departure
  // instead of one per window; equal-time samples add no area and
  // releases set no peak, so the fingerprint must not move.
  const wl::Workload storm = tie_storm_workload(500, 31);
  Scenario scenario = Scenario::paper_defaults();
  scenario.faults = storm_faults();
  scenario.migrations = storm_migrations();

  std::uint64_t total_killed_requeued = 0;
  std::uint64_t total_migrated = 0;
  for (const char* algo : {"NULB", "NALB", "RISA", "RISA-BF"}) {
    Engine engine(scenario, algo);
    const SimMetrics plain = engine.run(storm, "t");
    Timeline timeline;
    engine.set_timeline(&timeline);
    const SimMetrics observed = engine.run(storm, "t");
    EXPECT_EQ(metrics_fingerprint(plain), metrics_fingerprint(observed))
        << algo;
    EXPECT_EQ(plain.events_executed, observed.events_executed) << algo;
    EXPECT_FALSE(timeline.points().empty()) << algo;
    // The failures opened a degraded window inside every run (which boxes
    // host victims, and whether defrag finds gain, is algorithm-specific:
    // those are summed below).
    EXPECT_GT(plain.degraded_tu, 0.0) << algo;
    total_killed_requeued += plain.killed + plain.requeued;
    total_migrated += plain.migrated;
  }
  // The storm exercised the kill/retry and migration machinery somewhere.
  EXPECT_GT(total_killed_requeued, 0u);
  EXPECT_GT(total_migrated, 0u);
}

TEST(AdmissionWindows, SweepIsThreadCountDeterministic) {
  // The 1-vs-8-thread contract on the tie-storm spec with faults and
  // migrations on the axis: every cell fingerprint byte-identical.
  SweepSpec spec;
  spec.scenarios.emplace_back("default", Scenario::paper_defaults());
  spec.workloads.push_back(
      WorkloadSpec::fixed("tie-storm", tie_storm_workload(350, 41)));
  spec.seeds = {kDefaultSeed};
  spec.algorithms = {"NULB", "NALB", "RISA", "RISA-BF"};
  spec.fault_plans.emplace_back("storm", storm_faults());
  spec.migration_plans.emplace_back("none", MigrationPlan{});
  spec.migration_plans.emplace_back("defrag", storm_migrations());

  const auto serial = SweepRunner(1).run(spec);
  const auto threaded = SweepRunner(8).run(spec);
  ASSERT_EQ(serial.size(), threaded.size());
  ASSERT_EQ(serial.size(), 8u);  // 4 algos x 2 migration plans
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(metrics_fingerprint(serial[i].metrics),
              metrics_fingerprint(threaded[i].metrics))
        << "cell " << i;
  }
}

}  // namespace
}  // namespace risa::sim

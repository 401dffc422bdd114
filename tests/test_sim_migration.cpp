// The live-migration / defragmentation subsystem (DESIGN.md §9):
// MigrationPlan validation and JSON round-trip (including the scenario_io
// error paths), the empty-plan bit-identity contract, single-VM migration
// semantics with exact double-charge power settlement, budget enforcement,
// and thread-count determinism of a nonempty fault+migration sweep matrix.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "sim/migration.hpp"
#include "sim/scenario_io.hpp"
#include "sim/sweep.hpp"
#include "workload/synthetic.hpp"

namespace risa::sim {
namespace {

wl::Workload small_workload(std::size_t n = 300, std::uint64_t seed = 11) {
  wl::SyntheticConfig cfg;
  cfg.count = n;
  return wl::generate_synthetic(cfg, seed);
}

FaultAction fail_box_at(std::uint32_t box, double time) {
  FaultAction a;
  a.kind = FaultAction::Kind::Fail;
  a.at_time = time;
  a.box = box;
  return a;
}

FaultAction repair_box_at(std::uint32_t box, double time) {
  FaultAction a = fail_box_at(box, time);
  a.kind = FaultAction::Kind::Repair;
  return a;
}

MigrationPlan defrag_plan(double period, std::uint32_t per_sweep,
                          std::uint32_t total) {
  MigrationPlan plan;
  plan.period_tu = period;
  plan.per_sweep_budget = per_sweep;
  plan.total_budget = total;
  return plan;
}

// --- MigrationPlan model -----------------------------------------------------

TEST(MigrationPlanModel, ValidateRejectsMalformedPlans) {
  MigrationPlan negative_period;
  negative_period.period_tu = -1.0;
  EXPECT_THROW(negative_period.validate(), std::invalid_argument);

  MigrationPlan negative_cost = defrag_plan(100.0, 1, 10);
  negative_cost.fixed_cost_tu = -0.5;
  EXPECT_THROW(negative_cost.validate(), std::invalid_argument);

  MigrationPlan bad_fraction = defrag_plan(100.0, 1, 10);
  bad_fraction.min_interrack_fraction = 1.5;
  EXPECT_THROW(bad_fraction.validate(), std::invalid_argument);

  MigrationPlan negative_first = defrag_plan(100.0, 1, 10);
  negative_first.first_sweep_at = -2.0;
  EXPECT_THROW(negative_first.validate(), std::invalid_argument);

  EXPECT_NO_THROW(defrag_plan(100.0, 2, 10).validate());
}

TEST(MigrationPlanModel, EmptySemantics) {
  EXPECT_TRUE(MigrationPlan{}.empty());
  EXPECT_FALSE(defrag_plan(100.0, 1, 10).empty());
  // Any zeroed budget disables the plan.
  EXPECT_TRUE(defrag_plan(100.0, 0, 10).empty());
  EXPECT_TRUE(defrag_plan(100.0, 1, 0).empty());
  EXPECT_TRUE(defrag_plan(0.0, 1, 10).empty());
  // First sweep defaults to one period in.
  EXPECT_DOUBLE_EQ(defrag_plan(100.0, 1, 10).first_sweep_time(), 100.0);
  MigrationPlan early = defrag_plan(100.0, 1, 10);
  early.first_sweep_at = 30.0;
  EXPECT_DOUBLE_EQ(early.first_sweep_time(), 30.0);
}

TEST(MigrationPolicy, SpreadScoreAndRanking) {
  // Packed keys sort worst-spread first, index ascending on ties.
  std::vector<std::uint64_t> keys = {
      pack_candidate(0, 5), pack_candidate(3, 9), pack_candidate(2, 1),
      pack_candidate(3, 2), pack_candidate(1, 0),
  };
  rank_worst_spread(keys, keys.size());
  EXPECT_EQ(candidate_index(keys[0]), 2u);  // score 3, lowest index first
  EXPECT_EQ(candidate_index(keys[1]), 9u);  // score 3
  EXPECT_EQ(candidate_index(keys[2]), 1u);  // score 2
  EXPECT_EQ(candidate_index(keys[3]), 0u);  // score 1
  EXPECT_EQ(candidate_index(keys[4]), 5u);  // score 0

  // Transfer cost: 16384 MB * 8 / 20000 Mbit/s = 6.5536 s at 1 s/tu,
  // plus the fixed term; disabled transfer leaves only the fixed term.
  MigrationPlan plan;
  plan.fixed_cost_tu = 2.0;
  EXPECT_NEAR(migration_cost_tu(plan, 16384, 20000, 1.0), 2.0 + 6.5536,
              1e-12);
  plan.charge_transfer = false;
  EXPECT_DOUBLE_EQ(migration_cost_tu(plan, 16384, 20000, 1.0), 2.0);
  plan.charge_transfer = true;
  EXPECT_DOUBLE_EQ(migration_cost_tu(plan, 16384, 0, 1.0), 2.0);  // no flow
}

// --- JSON round-trip + error paths (scenario_io) -----------------------------

TEST(MigrationPlanJson, RoundTripIsExact) {
  MigrationPlan plan;
  plan.period_tu = 212.5;
  plan.first_sweep_at = 17.25;
  plan.min_interrack_fraction = 0.125;
  plan.per_sweep_budget = 6;
  plan.total_budget = 4000;
  plan.fixed_cost_tu = 1.5;
  plan.charge_transfer = false;
  plan.only_if_improves = false;
  plan.skip_while_degraded = true;

  const std::string json = migration_plan_json(plan);
  EXPECT_EQ(parse_migration_plan_json(json), plan);
  // Defaults (the empty plan) round-trip too.
  EXPECT_EQ(parse_migration_plan_json(migration_plan_json(MigrationPlan{})),
            MigrationPlan{});
  // Omitted keys keep their defaults.
  const MigrationPlan partial =
      parse_migration_plan_json("{\"period_tu\": 50}");
  EXPECT_DOUBLE_EQ(partial.period_tu, 50.0);
  EXPECT_EQ(partial.per_sweep_budget, 1u);
  EXPECT_TRUE(partial.charge_transfer);
}

TEST(MigrationPlanJson, ParserRejectsGarbage) {
  // Unknown/typo keys must surface, not silently no-op.
  EXPECT_THROW((void)parse_migration_plan_json("{\"period\": 100}"),
               std::runtime_error);
  // Malformed booleans and numbers.
  EXPECT_THROW(
      (void)parse_migration_plan_json("{\"charge_transfer\": yes}"),
      std::runtime_error);
  EXPECT_THROW((void)parse_migration_plan_json("{\"period_tu\": }"),
               std::runtime_error);
  EXPECT_THROW((void)parse_migration_plan_json("{\"per_sweep_budget\": 1.5}"),
               std::runtime_error);
  EXPECT_THROW((void)parse_migration_plan_json("{\"total_budget\": -3}"),
               std::runtime_error);
  // Trailing content and unterminated documents.
  EXPECT_THROW((void)parse_migration_plan_json("{} extra"),
               std::runtime_error);
  EXPECT_THROW((void)parse_migration_plan_json("{\"period_tu\": 10"),
               std::runtime_error);
  // Valid JSON, invalid plan: validation runs on parse.
  EXPECT_THROW((void)parse_migration_plan_json("{\"period_tu\": -5}"),
               std::runtime_error);
  EXPECT_THROW(
      (void)parse_migration_plan_json("{\"min_interrack_fraction\": 2}"),
      std::runtime_error);
}

TEST(FaultPlanJson, LinkActionsRoundTripAndErrorPaths) {
  FaultPlan plan;
  plan.seed = 5;
  FaultAction link_fail;
  link_fail.kind = FaultAction::Kind::LinkFail;
  link_fail.at_time = 120.0;
  link_fail.random_links = 3;
  plan.actions.push_back(link_fail);
  FaultAction link_repair;
  link_repair.kind = FaultAction::Kind::LinkRepair;
  link_repair.at_time = 360.0;
  link_repair.link = 17;
  plan.actions.push_back(link_repair);

  const std::string json = fault_plan_json(plan);
  EXPECT_NE(json.find("link-fail"), std::string::npos);
  EXPECT_EQ(parse_fault_plan_json(json), plan);

  // Link victims on a box action (and vice versa) fail validation at parse.
  EXPECT_THROW(
      (void)parse_fault_plan_json("{\"actions\": [{\"action\": \"fail\", "
                                  "\"at_time\": 1, \"link\": 2}]}"),
      std::runtime_error);
  EXPECT_THROW(
      (void)parse_fault_plan_json("{\"actions\": [{\"action\": "
                                  "\"link-fail\", \"at_time\": 1, "
                                  "\"box\": 2}]}"),
      std::runtime_error);
  // Both victim forms at once.
  EXPECT_THROW(
      (void)parse_fault_plan_json("{\"actions\": [{\"action\": "
                                  "\"link-fail\", \"at_time\": 1, "
                                  "\"link\": 2, \"random_links\": 1}]}"),
      std::runtime_error);
  // Unknown victim key.
  EXPECT_THROW(
      (void)parse_fault_plan_json("{\"actions\": [{\"action\": "
                                  "\"link-fail\", \"at_time\": 1, "
                                  "\"links\": 2}]}"),
      std::runtime_error);
}

// --- Empty-plan bit-identity -------------------------------------------------

TEST(MigrationEngine, EmptyPlanIsBitIdenticalToDefaultScenario) {
  const wl::Workload workload = small_workload();
  for (const char* algo : {"NULB", "RISA"}) {
    Engine plain(Scenario::paper_defaults(), algo);
    const SimMetrics base = plain.run(workload, "t");

    Engine gated(Scenario::paper_defaults(), algo);
    const MigrationPlan empty;
    gated.set_migration_plan(&empty);
    const SimMetrics same = gated.run(workload, "t");
    EXPECT_EQ(metrics_fingerprint(base), metrics_fingerprint(same)) << algo;
    EXPECT_EQ(base.events_executed, same.events_executed) << algo;
    EXPECT_EQ(same.migrated, 0u);
    EXPECT_EQ(same.migration_tu, 0.0);
    EXPECT_EQ(same.interrack_vms_recovered, 0u);
  }
}

// --- Single-VM migration semantics -------------------------------------------

/// Two racks; rack 0's RAM fails before the only VM arrives, so NULB's
/// first-fit lands CPU/storage in rack 0 and RAM in rack 1 (both circuits
/// inter-rack).  After the repair, the first sweep must bring the VM home.
Scenario two_rack_scenario() {
  Scenario s = Scenario::paper_defaults();
  s.cluster.racks = 2;
  // Box layout (2/2/2 per rack): rack 0 = CPU {0,1}, RAM {2,3}, STO {4,5};
  // rack 1 starts at box 6.
  s.faults.actions.push_back(fail_box_at(2, 0.0));
  s.faults.actions.push_back(fail_box_at(3, 0.0));
  s.faults.actions.push_back(repair_box_at(2, 10.0));
  s.faults.actions.push_back(repair_box_at(3, 10.0));
  return s;
}

wl::Workload one_vm_workload() {
  wl::VmRequest vm = toy_vm(0, 8, 16.0, 128.0, /*lifetime=*/1000.0);
  vm.arrival = 1.0;
  return {vm};
}

TEST(MigrationEngine, SweepRecoversInterRackVmAfterRepair) {
  Scenario scenario = two_rack_scenario();
  scenario.migrations = defrag_plan(/*period=*/50.0, 1, /*total=*/1);
  scenario.migrations.fixed_cost_tu = 5.0;
  scenario.migrations.charge_transfer = false;

  Engine engine(scenario, "NULB");
  Timeline timeline;
  engine.set_timeline(&timeline);
  const SimMetrics m = engine.run(one_vm_workload(), "t");

  EXPECT_EQ(m.placed, 1u);
  EXPECT_EQ(m.dropped, 0u);
  EXPECT_EQ(m.killed, 0u);
  EXPECT_EQ(m.inter_rack_placements, 1u);  // the admission was inter-rack
  EXPECT_EQ(m.migrated, 1u);
  EXPECT_EQ(m.interrack_vms_recovered, 1u);
  EXPECT_DOUBLE_EQ(m.migration_tu, 5.0);
  // The departure instant is preserved: arrival 1 + lifetime 1000.
  EXPECT_DOUBLE_EQ(m.horizon_tu, 1001.0);
  // The timeline's migrated census steps from 0 to 1 at the sweep.
  bool saw_migration = false;
  for (const TimelinePoint& p : timeline.points()) {
    if (p.migrated_total > 0) {
      saw_migration = true;
      EXPECT_GE(p.time, 50.0);
    }
  }
  EXPECT_TRUE(saw_migration);
}

TEST(MigrationEngine, DoubleChargeWindowSettlesExactly) {
  // Reference runs: the same VM inter-rack for its whole life (faults, no
  // migration) and intra-rack for its whole life (no faults at all).  The
  // migrated run's duration-proportional energy must decompose as
  //   old (inter) circuits charged [1, 55]  ->  54/1000 of the inter run,
  //   new (intra) circuits charged [50, 1001] -> 951/1000 of the intra run,
  // and the one-time switching energy as the sum of both establishments.
  const wl::Workload workload = one_vm_workload();

  Engine inter_engine(two_rack_scenario(), "NULB");
  const SimMetrics inter = inter_engine.run(workload, "t");
  ASSERT_EQ(inter.inter_rack_placements, 1u);

  Scenario intra_scenario = Scenario::paper_defaults();
  intra_scenario.cluster.racks = 2;
  Engine intra_engine(intra_scenario, "NULB");
  const SimMetrics intra = intra_engine.run(workload, "t");
  ASSERT_EQ(intra.inter_rack_placements, 0u);

  Scenario scenario = two_rack_scenario();
  scenario.migrations = defrag_plan(/*period=*/50.0, 1, /*total=*/1);
  scenario.migrations.fixed_cost_tu = 5.0;
  scenario.migrations.charge_transfer = false;
  Engine engine(scenario, "NULB");
  const SimMetrics m = engine.run(workload, "t");
  ASSERT_EQ(m.migrated, 1u);

  const double old_frac = (49.0 + 5.0) / 1000.0;   // held [1,50] + 5 cost
  const double new_frac = 951.0 / 1000.0;          // held [50,1001]
  EXPECT_NEAR(m.energy.switch_trimming_j,
              inter.energy.switch_trimming_j * old_frac +
                  intra.energy.switch_trimming_j * new_frac,
              1e-9 * inter.energy.switch_trimming_j);
  EXPECT_NEAR(m.energy.transceiver_j,
              inter.energy.transceiver_j * old_frac +
                  intra.energy.transceiver_j * new_frac,
              1e-9 * inter.energy.transceiver_j);
  EXPECT_NEAR(m.energy.switch_switching_j,
              inter.energy.switch_switching_j +
                  intra.energy.switch_switching_j,
              1e-12 * inter.energy.switch_switching_j);
}

TEST(MigrationEngine, CostLongerThanRemainingHoldSkipsTheMove) {
  // A cost window outlasting the lease must leave the VM untouched.
  Scenario scenario = two_rack_scenario();
  scenario.migrations = defrag_plan(/*period=*/50.0, 1, /*total=*/10);
  scenario.migrations.fixed_cost_tu = 10000.0;  // > the whole lifetime
  scenario.migrations.charge_transfer = false;

  Engine engine(scenario, "NULB");
  const SimMetrics m = engine.run(one_vm_workload(), "t");
  EXPECT_EQ(m.migrated, 0u);
  EXPECT_EQ(m.migration_tu, 0.0);
  EXPECT_DOUBLE_EQ(m.horizon_tu, 1001.0);
}

TEST(MigrationEngine, SkipWhileDegradedWaitsForRepair) {
  // Repair only lands at t=500; a degraded-gated plan must not migrate in
  // the failure window even though sweeps fire there.
  Scenario scenario = two_rack_scenario();
  scenario.faults.actions[2].at_time = 500.0;  // repairs
  scenario.faults.actions[3].at_time = 500.0;
  scenario.migrations = defrag_plan(/*period=*/50.0, 1, /*total=*/1);
  scenario.migrations.charge_transfer = false;
  scenario.migrations.skip_while_degraded = true;

  Engine engine(scenario, "NULB");
  Timeline timeline;
  engine.set_timeline(&timeline);
  const SimMetrics m = engine.run(one_vm_workload(), "t");
  EXPECT_EQ(m.migrated, 1u);
  for (const TimelinePoint& p : timeline.points()) {
    if (p.migrated_total > 0) {
      EXPECT_GE(p.time, 500.0);
    }
  }
}

TEST(MigrationEngine, PartialReplaceFailureLeavesOldPlacementIntact) {
  // Regression: a migration attempt whose CPU-RAM circuit establishes but
  // whose RAM-STO circuit fails must roll back ONLY the circuits the
  // attempt opened.  (An early version of Allocator::commit's network
  // rollback tore down every circuit of the VM -- including the live old
  // placement's -- silently releasing its bandwidth.)
  //
  // Setup: single uplinks of 24 Gb/s.  VM A (10 Gb/s CPU-RAM + 4 Gb/s
  // RAM-STO) is forced inter-rack by a transient RAM failure; VM B then
  // parks 14 Gb/s on rack 0's first RAM box uplink.  A's re-place targets
  // that RAM box: its CPU-RAM circuit fills the uplink to exactly 24,
  // then RAM-STO (4 more) fails -- the partial-failure path.
  Scenario scenario = two_rack_scenario();
  scenario.fabric.links_per_box = 1;
  scenario.fabric.links_per_rack = 1;
  scenario.fabric.link_capacity = gbps(24.0);
  scenario.fabric.channel_rate = gbps(1.0);

  wl::Workload workload;
  wl::VmRequest a = toy_vm(0, 8, 16.0, 128.0, /*lifetime=*/1000.0);
  a.arrival = 1.0;
  wl::VmRequest b = toy_vm(1, 8, 16.0, 128.0, /*lifetime=*/1000.0);
  b.arrival = 20.0;  // after the repair: lands intra-rack on RAM box 2
  // C arrives after the failed sweep and needs 5 Gb/s on the CPU box 0
  // uplink, which A+B fill to 20 of 24: it must DROP.  If the rollback
  // leaked A's old circuits, the freed bandwidth admits C instead.
  wl::VmRequest c = toy_vm(2, 4, 8.0, 128.0, /*lifetime=*/10.0);
  c.arrival = 60.0;
  workload.push_back(a);
  workload.push_back(b);
  workload.push_back(c);

  // The attempt must fail, leaving the run bit-identical to the same
  // scenario without any migration plan (bandwidth held to departure).
  Engine plain(scenario, "NULB");
  const SimMetrics base = plain.run(workload, "t");
  ASSERT_EQ(base.inter_rack_placements, 1u);
  ASSERT_EQ(base.dropped, 1u);  // C cannot route its CPU-RAM circuit

  scenario.migrations = defrag_plan(/*period=*/50.0, 1, /*total=*/10);
  scenario.migrations.fixed_cost_tu = 5.0;
  scenario.migrations.charge_transfer = false;
  Engine engine(scenario, "NULB");
  const SimMetrics m = engine.run(workload, "t");
  EXPECT_EQ(m.migrated, 0u);
  EXPECT_EQ(m.migration_tu, 0.0);
  EXPECT_EQ(metrics_fingerprint(m), metrics_fingerprint(base));
}

TEST(MigrationEngine, ScheduleSurvivesKillRetryGapsWithNothingLive) {
  // Regression: a sweep firing while every VM is dead but a RETRY is still
  // in flight must keep the schedule alive -- the re-placed-after-failure
  // stragglers are exactly what migration exists to recover.
  //
  // Timeline: VM admitted inter-rack at t=1 (rack 0 RAM down until t=200),
  // its CPU box fails at t=20 (kill), retry delay 100 re-places it at
  // t=120 -- still inter-rack (rack 0 RAM remains down).  Sweeps at 50 and
  // 100 fire with zero live VMs; the t=150 sweep must still happen and
  // bring the VM intra-rack (into rack 1, around the offline boxes).
  Scenario scenario = Scenario::paper_defaults();
  scenario.cluster.racks = 2;
  scenario.faults.actions.push_back(fail_box_at(2, 0.0));
  scenario.faults.actions.push_back(fail_box_at(3, 0.0));
  scenario.faults.actions.push_back(fail_box_at(0, 20.0));
  scenario.faults.actions.push_back(repair_box_at(2, 200.0));
  scenario.faults.actions.push_back(repair_box_at(3, 200.0));
  scenario.faults.retry.max_attempts = 1;
  scenario.faults.retry.delay_tu = 100.0;
  scenario.migrations = defrag_plan(/*period=*/50.0, 1, /*total=*/10);
  scenario.migrations.fixed_cost_tu = 5.0;
  scenario.migrations.charge_transfer = false;

  Engine engine(scenario, "NULB");
  const SimMetrics m = engine.run(one_vm_workload(), "t");
  EXPECT_EQ(m.killed, 1u);
  EXPECT_EQ(m.retry_placed, 1u);
  // t=150: CPU-RAM reunited in rack 1 (storage stays behind, score 3 -> 1);
  // t=200: the rack-0 repairs land first, so the next sweep pulls the
  // whole VM home (score 1 -> 0).  Without the pending-retry condition the
  // t=50 sweep would have ended the schedule with zero migrations.
  EXPECT_EQ(m.migrated, 2u);
  EXPECT_EQ(m.interrack_vms_recovered, 1u);
}

TEST(MigrationEngine, DoomedCandidatesDoNotBurnTheSweepBudget) {
  // Regression: the gather loop must filter candidates whose remaining
  // hold cannot outlast their migration cost; otherwise the worst-spread
  // doomed VM soaks up the per-sweep attempt and an eligible straggler
  // behind it is never tried.
  //
  // A (index 0) and B (index 1) are both forced inter-rack; at the single
  // sweep (t=50) A has 11 tu left against a 20 tu cost while B has 952.
  // With per_sweep_budget=1 the sweep must move B, not stall on A.
  Scenario scenario = two_rack_scenario();
  scenario.migrations = defrag_plan(/*period=*/10000.0, 1, /*total=*/10);
  scenario.migrations.first_sweep_at = 50.0;  // exactly one effective sweep
  scenario.migrations.fixed_cost_tu = 20.0;
  scenario.migrations.charge_transfer = false;

  wl::Workload workload;
  wl::VmRequest a = toy_vm(0, 8, 16.0, 128.0, /*lifetime=*/60.0);
  a.arrival = 1.0;  // departs at 61: only 11 tu left at the sweep
  wl::VmRequest b = toy_vm(1, 8, 16.0, 128.0, /*lifetime=*/1000.0);
  b.arrival = 2.0;
  workload.push_back(a);
  workload.push_back(b);

  Engine engine(scenario, "NULB");
  const SimMetrics m = engine.run(workload, "t");
  EXPECT_EQ(m.inter_rack_placements, 2u);
  EXPECT_EQ(m.migrated, 1u);
  EXPECT_EQ(m.interrack_vms_recovered, 1u);
  EXPECT_DOUBLE_EQ(m.migration_tu, 20.0);
}

// --- Budgets and accounting under churn --------------------------------------

TEST(MigrationEngine, BudgetsBoundCommittedMigrations) {
  const wl::Workload workload = small_workload(400, 5);
  Scenario scenario = Scenario::paper_defaults();
  scenario.migrations = defrag_plan(/*period=*/40.0, 2, /*total=*/7);

  // NULB fragments by construction, so the budget must be exhausted.
  Engine engine(scenario, "NULB");
  const SimMetrics m = engine.run(workload, "t");
  EXPECT_EQ(m.migrated, 7u);
  EXPECT_LE(m.interrack_vms_recovered, m.migrated);
  EXPECT_GT(m.migration_tu, 0.0);
  // Migration never disturbs the admission accounting identity.
  EXPECT_EQ(m.placed + m.dropped, m.total_vms);
}

TEST(MigrationEngine, ReusedEngineMigrationRunsAreBitReproducible) {
  const wl::Workload workload = small_workload(250, 21);
  Scenario scenario = Scenario::paper_defaults();
  scenario.migrations = defrag_plan(/*period=*/60.0, 4, /*total=*/50);

  Engine engine(scenario, "NULB");
  const SimMetrics m1 = engine.run(workload, "t");
  const MigrationPlan empty;
  engine.set_migration_plan(&empty);
  const SimMetrics clean = engine.run(workload, "t");
  engine.set_migration_plan(nullptr);
  const SimMetrics m2 = engine.run(workload, "t");

  EXPECT_GT(m1.migrated, 0u);
  EXPECT_EQ(metrics_fingerprint(m1), metrics_fingerprint(m2));
  EXPECT_EQ(m1.migrated, m2.migrated);
  EXPECT_EQ(m1.migration_tu, m2.migration_tu);
  EXPECT_EQ(m1.interrack_vms_recovered, m2.interrack_vms_recovered);

  Engine fresh(Scenario::paper_defaults(), "NULB");
  EXPECT_EQ(metrics_fingerprint(clean),
            metrics_fingerprint(fresh.run(workload, "t")));
  EXPECT_EQ(clean.migrated, 0u);
}

// --- Sweep integration -------------------------------------------------------

SweepSpec migration_matrix_spec() {
  SweepSpec spec;
  spec.scenarios = {{"paper", Scenario::paper_defaults()}};
  spec.workloads = {WorkloadSpec::synthetic(300)};
  spec.seeds = {42};
  spec.algorithms = {"NULB", "NALB", "RISA", "RISA-BF"};

  // Fault churn underneath the defrag: an MTBF process plus retries.
  MtbfSpec mtbf;
  mtbf.mtbf_tu = 400.0;
  mtbf.mttr_tu = 150.0;
  mtbf.seed = 99;
  mtbf.horizon_tu = 2500.0;
  mtbf.num_boxes = Scenario::paper_defaults().cluster.total_boxes();
  FaultPlan faults = compile_mtbf_plan(mtbf);
  faults.retry.max_attempts = 2;
  faults.retry.delay_tu = 12.0;
  spec.fault_plans = {{"mtbf", faults}};

  MigrationPlan defrag = defrag_plan(/*period=*/80.0, 4, /*total=*/200);
  spec.migration_plans = {{"none", MigrationPlan{}}, {"defrag", defrag}};
  return spec;
}

TEST(MigrationSweep, MigrationAxisExpandsCellsAndLabelsResults) {
  const SweepSpec spec = migration_matrix_spec();
  ASSERT_EQ(spec.cell_count(), 1u * 1u * 1u * 1u * 2u * 4u);
  EXPECT_EQ(spec.cell_index(0, 0, 0, 0, 1, 2), 4u + 2u);
  // The five-axis (fault) form still addresses migration index 0.
  EXPECT_EQ(spec.cell_index(0, 0, 0, 0, 3), 3u);
  const auto results = SweepRunner(2).run(spec);
  ASSERT_EQ(results.size(), 8u);
  std::uint64_t migrated = 0;
  for (const SweepResult& r : results) {
    EXPECT_EQ(r.migration_plan, r.migration_index == 0 ? "none" : "defrag");
    EXPECT_EQ(r.fault_plan, "mtbf");
    if (r.migration_index == 0) {
      EXPECT_EQ(r.metrics.migrated, 0u);
    } else {
      migrated += r.metrics.migrated;
    }
  }
  // The fragmenting baselines must actually defragment.
  EXPECT_GT(migrated, 0u);
}

// The headline determinism contract extended to migrations: a nonempty
// fault+migration matrix yields bit-identical metrics -- including the
// migration counters outside the frozen fingerprint -- at 1 and 8 threads.
TEST(MigrationSweep, FaultMigrationMatrixIsDeterministicAcrossThreadCounts) {
  const SweepSpec spec = migration_matrix_spec();
  const auto serial = SweepRunner(1).run(spec);
  const auto threaded = SweepRunner(8).run(spec);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(metrics_fingerprint(serial[i].metrics),
              metrics_fingerprint(threaded[i].metrics))
        << "cell " << i;
    EXPECT_EQ(serial[i].metrics.migrated, threaded[i].metrics.migrated);
    EXPECT_EQ(serial[i].metrics.migration_tu,
              threaded[i].metrics.migration_tu);
    EXPECT_EQ(serial[i].metrics.interrack_vms_recovered,
              threaded[i].metrics.interrack_vms_recovered);
    EXPECT_EQ(serial[i].metrics.killed, threaded[i].metrics.killed);
    EXPECT_EQ(serial[i].metrics.events_executed,
              threaded[i].metrics.events_executed);
  }
}

TEST(MigrationSweep, EmptyMigrationAxisKeepsLegacyCellIndexing) {
  SweepSpec spec = migration_matrix_spec();
  spec.migration_plans.clear();
  ASSERT_EQ(spec.cell_count(), 4u);
  EXPECT_EQ(spec.cell_index(0, 0, 0, 3), 3u);
  const auto results = SweepRunner(1).run(spec);
  for (const SweepResult& r : results) {
    EXPECT_EQ(r.migration_plan, "none");
    EXPECT_EQ(r.metrics.migrated, 0u);
  }
}

}  // namespace
}  // namespace risa::sim

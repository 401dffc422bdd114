// Old-engine / new-engine equivalence: the typed merged event loop
// (arrival cursor + departures-only POD heap, dense live tables) must be
// bit-identical to the historical closure-based loop on des::Simulator.
//
// The reference below is the pre-refactor engine kept as an executable
// spec: every arrival is a closure in one big calendar (seq 0..N-1 in
// workload order), departures are closures scheduled at placement time
// (seq >= N), and live state sits in hash maps.  Equality is judged by
// metrics_fingerprint (bit-exact doubles, wall-clock fields excluded)
// over the full figure matrix plus adversarial tie/unsorted workloads.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/registry.hpp"
#include "des/simulator.hpp"
#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "sim/sweep.hpp"
#include "workload/synthetic.hpp"

namespace risa::sim {
namespace {

/// The closure-based event loop, verbatim from the pre-typed-calendar
/// engine (minus timeline/latency recording, which the fingerprint does
/// not cover).
SimMetrics reference_run(const Scenario& scenario, const std::string& algorithm,
                         const wl::Workload& workload,
                         const std::string& label) {
  topo::Cluster cluster(scenario.cluster);
  net::Fabric fabric(scenario.cluster, scenario.fabric);
  net::Router router(fabric);
  net::CircuitTable circuits(router);
  core::AllocContext ctx;
  ctx.cluster = &cluster;
  ctx.fabric = &fabric;
  ctx.router = &router;
  ctx.circuits = &circuits;
  ctx.bandwidth = scenario.bandwidth;
  auto allocator = core::make_allocator(algorithm, ctx, scenario.allocator);

  SimMetrics m;
  m.algorithm = std::string(allocator->name());
  m.workload = label;
  m.total_vms = workload.size();

  phot::PowerLedger ledger(scenario.photonics, fabric);

  PerResource<TimeWeightedMean> util;
  TimeWeightedMean intra_util, inter_util;
  auto sample_signals = [&](SimTime t) {
    for (ResourceType ty : kAllResources) {
      util[ty].update(t, cluster.utilization(ty));
    }
    intra_util.update(t, fabric.intra_utilization());
    inter_util.update(t, fabric.inter_utilization());
  };

  std::unordered_map<std::uint32_t, core::Placement> live;
  live.reserve(workload.size());

  des::Simulator sim;
  sample_signals(0.0);

  for (std::size_t vm_index = 0; vm_index < workload.size(); ++vm_index) {
    sim.schedule_at(workload[vm_index].arrival, [&, vm_index](des::Simulator& s) {
      const wl::VmRequest& vm = workload[vm_index];
      auto placed = allocator->try_place(vm);
      if (!placed.ok()) {
        ++m.dropped;
        m.drops_by_reason.add(placed.error());
        return;
      }
      core::Placement& p =
          live.emplace(vm.id.value(), std::move(placed.value())).first->second;
      ++m.placed;
      if (p.inter_rack) ++m.any_pair_inter_rack;
      if (p.used_fallback) ++m.fallback_placements;

      const bool cpu_ram_inter =
          p.rack(ResourceType::Cpu) != p.rack(ResourceType::Ram);
      if (cpu_ram_inter) ++m.inter_rack_placements;
      const bool cross_pod =
          cpu_ram_inter && !fabric.same_pod(p.rack(ResourceType::Cpu),
                                            p.rack(ResourceType::Ram));
      m.cpu_ram_latency_ns.add(
          scenario.latency.rtt_ns(cpu_ram_inter, cross_pod));

      ledger.charge_vm(circuits, vm.id, vm.lifetime);

      sample_signals(s.now());
      s.schedule_at(vm.departure(), [&, id = vm.id](des::Simulator& s2) {
        const auto it = live.find(id.value());
        ASSERT_TRUE(it != live.end());
        allocator->release(it->second);
        live.erase(it);
        sample_signals(s2.now());
      });
    });
  }

  m.horizon_tu = sim.run();
  if (m.horizon_tu <= 0.0) m.horizon_tu = 1.0;
  m.events_executed = sim.executed();

  for (ResourceType ty : kAllResources) {
    m.avg_utilization[ty] = util[ty].mean(m.horizon_tu);
    m.peak_utilization[ty] = util[ty].peak();
  }
  m.avg_intra_net_utilization = intra_util.mean(m.horizon_tu);
  m.avg_inter_net_utilization = inter_util.mean(m.horizon_tu);
  m.peak_intra_net_utilization = intra_util.peak();
  m.peak_inter_net_utilization = inter_util.peak();
  m.energy = ledger.totals();
  m.avg_optical_power_w = ledger.average_power_w(m.horizon_tu);
  EXPECT_TRUE(live.empty());
  return m;
}

void expect_equivalent(const wl::Workload& workload, const std::string& label) {
  const Scenario scenario = Scenario::paper_defaults();
  for (const std::string& algo : core::algorithm_names()) {
    Engine engine(scenario, algo);
    const SimMetrics typed = engine.run(workload, label);
    const SimMetrics ref = reference_run(scenario, algo, workload, label);
    EXPECT_EQ(metrics_fingerprint(typed), metrics_fingerprint(ref))
        << label << " / " << algo;
    EXPECT_EQ(typed.events_executed, ref.events_executed)
        << label << " / " << algo;

    // Lifecycle contract (DESIGN.md §8): an explicitly-installed empty
    // FaultPlan must leave the merged stream bit-identical to the
    // pre-lifecycle loop -- the whole figure matrix passes through here.
    const FaultPlan empty;
    engine.set_fault_plan(&empty);
    const SimMetrics gated = engine.run(workload, label);
    EXPECT_EQ(metrics_fingerprint(gated), metrics_fingerprint(ref))
        << label << " / " << algo << " (explicit empty FaultPlan)";
    EXPECT_EQ(gated.events_executed, ref.events_executed);

    // Migration contract (DESIGN.md §9): an explicitly-installed empty
    // MigrationPlan -- alone and on top of the empty FaultPlan -- must
    // also be bit-identical over the full figure matrix.
    const MigrationPlan no_mig;
    engine.set_migration_plan(&no_mig);
    const SimMetrics mig_gated = engine.run(workload, label);
    EXPECT_EQ(metrics_fingerprint(mig_gated), metrics_fingerprint(ref))
        << label << " / " << algo << " (explicit empty MigrationPlan)";
    EXPECT_EQ(mig_gated.events_executed, ref.events_executed);
    EXPECT_EQ(mig_gated.migrated, 0u);
    engine.set_fault_plan(nullptr);
    engine.set_migration_plan(nullptr);
  }
}

TEST(EngineEquivalence, FullFigureMatrix) {
  expect_equivalent(synthetic_workload(), "Synthetic");
  for (const auto& [label, workload] : azure_workloads()) {
    expect_equivalent(workload, label);
  }
}

TEST(EngineEquivalence, EqualTimestampTies) {
  // Bursts of identical arrival times, zero lifetimes (departure ==
  // arrival) and lifetimes engineered so departures collide with later
  // arrivals: every merge tie-break rule gets exercised.
  wl::SyntheticConfig cfg;
  cfg.count = 240;
  wl::Workload workload = wl::generate_synthetic(cfg, 99);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    workload[i].arrival = static_cast<double>((i / 8) * 10);  // bursts of 8
    switch (i % 3) {
      case 0: workload[i].lifetime = 0.0; break;              // dep == arr tie
      case 1: workload[i].lifetime = 10.0; break;             // dep == next burst
      default: workload[i].lifetime = 35.0; break;            // dep between bursts
    }
  }
  expect_equivalent(workload, "ties");
}

TEST(EngineEquivalence, UnsortedWorkloadInput) {
  // The closure calendar never required sorted arrivals; the arrival
  // cursor must sort by (arrival, index) and still match bit-for-bit.
  wl::SyntheticConfig cfg;
  cfg.count = 300;
  wl::Workload workload = wl::generate_synthetic(cfg, 7);
  Rng rng(13);
  for (std::size_t i = workload.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(workload[i - 1], workload[j]);
  }
  expect_equivalent(workload, "unsorted");
}

}  // namespace
}  // namespace risa::sim

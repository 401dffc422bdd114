// Ablation E-A1: RISA's round-robin rack selection vs a first-eligible
// policy.  The paper motivates round-robin with "this helps to make the
// utilization of the racks more uniform" (§4.2); this bench quantifies
// that: rack-utilization spread (max - min across racks, sampled at the
// placement peak) and the downstream effects.  No engine metric reports
// that spread, so this stays a bench of its own rather than a figure_suite
// matrix; it exits 1 unless round-robin's spread is below first-eligible's.
#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/risa.hpp"
#include "sim/experiments.hpp"

using namespace risa;

namespace {

struct Outcome {
  std::uint64_t placed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t fallbacks = 0;
  double rack_util_spread = 0.0;  // max-min CPU utilization across racks
};

Outcome run(core::RackSelection selection, const wl::Workload& workload) {
  sim::ToyStack stack((topo::ClusterConfig()));
  const topo::Cluster& cluster = stack.cluster();
  core::RisaOptions options;
  options.selection = selection;
  core::RisaAllocator risa(stack.context(), options);

  // Offline replay (arrival order, no departures) to expose the packing
  // imbalance most clearly, sampling the spread when half the VMs landed.
  Outcome out;
  std::vector<core::Placement> live;
  std::size_t i = 0;
  for (const wl::VmRequest& vm : workload) {
    auto placed = risa.try_place(vm);
    if (placed.ok()) {
      live.push_back(std::move(placed.value()));
      ++out.placed;
    } else {
      ++out.dropped;
    }
    if (++i == workload.size() / 2) {
      double mx = 0.0, mn = 1.0;
      for (std::uint32_t r = 0; r < cluster.num_racks(); ++r) {
        const auto& rack = cluster.rack(RackId{r});
        const double cap =
            static_cast<double>(2 * cluster.config().box_units(ResourceType::Cpu));
        const double used =
            cap - static_cast<double>(rack.total_available(ResourceType::Cpu));
        const double util = used / cap;
        mx = std::max(mx, util);
        mn = std::min(mn, util);
      }
      out.rack_util_spread = mx - mn;
    }
  }
  out.fallbacks = risa.fallback_count();
  for (const auto& p : live) risa.release(p);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  define_threads_flag(flags);
  if (!flags.parse_or_usage(argc, argv)) return 1;

  // Use the first half of the synthetic workload so nothing departs.
  wl::Workload workload = sim::synthetic_workload();
  workload.resize(1200);

  // The two policy replays are independent (each builds its own stack);
  // run them through the shared pool.
  const core::RackSelection policies[] = {core::RackSelection::RoundRobin,
                                          core::RackSelection::FirstEligible};
  Outcome outcomes[2];
  ThreadPool pool(thread_count(flags));
  pool.run_indexed(2, [&](std::size_t, std::size_t i) {
    outcomes[i] = run(policies[i], workload);
  });
  const Outcome& rr = outcomes[0];
  const Outcome& fe = outcomes[1];

  std::cout << "=== Ablation: RISA rack selection policy (1200 synthetic "
               "VMs, no departures) ===\n";
  TextTable t({"Policy", "Placed", "Dropped", "Fallbacks",
               "Rack CPU-util spread @50%"});
  t.add_row({"round-robin (paper)", std::to_string(rr.placed),
             std::to_string(rr.dropped), std::to_string(rr.fallbacks),
             TextTable::pct(rr.rack_util_spread, 1)});
  t.add_row({"first-eligible", std::to_string(fe.placed),
             std::to_string(fe.dropped), std::to_string(fe.fallbacks),
             TextTable::pct(fe.rack_util_spread, 1)});
  // The claim: round-robin spreads load across racks more evenly.  The
  // replay is deterministic, so a reversal is a regression, not noise.
  const bool holds = rr.rack_util_spread < fe.rack_util_spread;
  std::cout << t
            << "Round-robin keeps rack utilization uniform (small spread); "
               "first-eligible fills\nrack 0 first, creating the skew the "
               "paper designed RISA to avoid.  First-eligible\nplaces "
               "slightly more VMs ("
            << fe.placed << " vs " << rr.placed << ") with more fallbacks ("
            << fe.fallbacks << " vs " << rr.fallbacks << ").\n"
            << (holds ? "ok" : "FAIL")
            << ": round-robin spread is below first-eligible's\n";
  return holds ? 0 : 1;
}

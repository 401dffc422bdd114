// Quickstart: build the paper's disaggregated cluster (Table 1), schedule a
// small batch of VMs with RISA, and print where everything landed.
//
//   $ ./quickstart [--algorithm=RISA] [--vms=20] [--seed=1]
//
// This demonstrates the minimal public API surface: Scenario -> Engine ->
// run(workload), plus direct allocator access for step-by-step placement.
#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "sim/engine.hpp"
#include "sim/report.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  risa::Flags flags;
  flags.define("algorithm", "RISA", "Scheduler: NULB | NALB | RISA | RISA-BF");
  flags.define_i64("vms", 20, "Number of synthetic VMs to schedule");
  flags.define_i64("seed", 1, "Workload RNG seed");
  if (!flags.parse_or_usage(argc, argv)) return 1;

  // 1. The paper's evaluation platform: 18 racks x 6 boxes x 8 bricks x 16
  //    units, two-tier optical fabric, Table 2 bandwidth demands.
  risa::sim::Scenario scenario = risa::sim::Scenario::paper_defaults();

  // 2. A small synthetic workload (CPU 1-32 cores, RAM 1-32 GB, 128 GB
  //    storage, Poisson arrivals).
  risa::wl::SyntheticConfig wl_config;
  wl_config.count = static_cast<std::size_t>(flags.i64("vms"));
  const risa::wl::Workload vms = risa::wl::generate_synthetic(
      wl_config, static_cast<std::uint64_t>(flags.i64("seed")));

  // 3. Run the discrete-event simulation with the chosen scheduler.
  risa::sim::Engine engine(scenario, flags.str("algorithm"));
  const risa::sim::SimMetrics metrics = engine.run(vms, "quickstart");

  std::cout << "RISA quickstart -- " << metrics.algorithm << " scheduling "
            << metrics.total_vms << " VMs onto "
            << scenario.cluster.racks << " racks\n\n";

  risa::TextTable summary({"Metric", "Value"});
  summary.add_row({"placed", std::to_string(metrics.placed)});
  summary.add_row({"dropped", std::to_string(metrics.dropped)});
  summary.add_row({"inter-rack placements",
                   std::to_string(metrics.inter_rack_placements)});
  summary.add_row({"avg CPU utilization",
                   risa::TextTable::pct(metrics.avg_utilization.cpu())});
  summary.add_row({"avg RAM utilization",
                   risa::TextTable::pct(metrics.avg_utilization.ram())});
  summary.add_row({"avg storage utilization",
                   risa::TextTable::pct(metrics.avg_utilization.storage())});
  summary.add_row({"avg intra-rack net utilization",
                   risa::TextTable::pct(metrics.avg_intra_net_utilization)});
  summary.add_row({"avg optical power (W)",
                   risa::TextTable::num(metrics.avg_optical_power_w, 1)});
  summary.add_row({"avg CPU-RAM RTT (ns)",
                   risa::TextTable::num(metrics.cpu_ram_latency_ns.mean(), 1)});
  summary.add_row({"scheduler time (ms)",
                   risa::TextTable::num(metrics.scheduler_exec_seconds * 1e3, 3)});
  std::cout << summary << '\n';

  // 4. Direct allocator access: place one VM by hand and inspect it.
  risa::wl::VmRequest vm;
  vm.id = risa::VmId{9999};
  vm.cores = 8;
  vm.ram_mb = risa::gb(16.0);
  vm.storage_mb = risa::gb(128.0);
  vm.arrival = 0.0;
  vm.lifetime = 100.0;
  auto placed = engine.allocator().try_place(vm);
  if (placed.ok()) {
    const auto& p = placed.value();
    std::cout << "Hand-placed VM 9999 (8 cores / 16 GB / 128 GB):\n";
    for (risa::ResourceType t : risa::kAllResources) {
      std::cout << "  " << risa::name(t) << " -> box "
                << p.box(t).value() << " (rack " << p.rack(t).value()
                << ")\n";
    }
    std::cout << "  inter-rack: " << (p.inter_rack ? "yes" : "no") << "\n";
    engine.allocator().release(p);
  } else {
    std::cout << "Hand placement dropped: " << risa::core::name(placed.error())
              << "\n";
  }
  return 0;
}

// Canned experiment definitions: the workloads, scenario defaults and
// paper-reported reference values behind every figure reproduction.
// Bench binaries funnel through this module so the "paper" column printed
// next to measured values has a single source of truth.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "sim/scenario.hpp"
#include "workload/vm.hpp"

namespace risa::sim {

/// Deterministic default seed used across benches/examples; chosen once and
/// fixed so all reported numbers are reproducible.
inline constexpr std::uint64_t kDefaultSeed = 20231112;  // SC-W'23 start date

/// The paper's synthetic random workload (§5.1), seeded.
[[nodiscard]] wl::Workload synthetic_workload(std::uint64_t seed = kDefaultSeed);

/// The three Azure-like subsets (§5.2) with labels, seeded.
[[nodiscard]] std::vector<std::pair<std::string, wl::Workload>> azure_workloads(
    std::uint64_t seed = kDefaultSeed);

/// Paper-reported value for (figure, workload, algorithm), when the paper
/// states one.  Figures: "fig5" (inter-rack count), "fig7" (inter-rack %),
/// "fig8-intra"/"fig8-inter" (network util %), "fig9" (power kW),
/// "fig10" (latency ns), "fig11"/"fig12" (exec seconds), "text-util-cpu"/
/// "-ram"/"-sto" (synthetic average utilization %).
[[nodiscard]] std::optional<double> paper_reference(const std::string& figure,
                                                    const std::string& workload,
                                                    const std::string& algorithm);

/// Render a reference as a table cell ("255" or "-" when unreported).
[[nodiscard]] std::string paper_cell(const std::string& figure,
                                     const std::string& workload,
                                     const std::string& algorithm,
                                     int precision = 2);

/// Figure 6's bar counts as decoded from the paper (DESIGN.md §2.1): one
/// Azure subset's 10 CPU-core bins, then its 10 RAM-GB bins.  Empty for any
/// other workload.
[[nodiscard]] std::span<const std::int64_t> figure6_counts(
    const std::string& workload);

// --- §4.3 toy examples -------------------------------------------------------

/// A standalone allocator stack (cluster + fabric + router + circuits) on
/// any cluster shape: the Table 3/4 reproductions in test_core_toy_examples
/// and bench_toy_examples, and bench_ablation_roundrobin's replays.
class ToyStack {
 public:
  explicit ToyStack(topo::ClusterConfig config);

  [[nodiscard]] core::AllocContext context();
  [[nodiscard]] topo::Cluster& cluster() noexcept { return cluster_; }

  /// Burn a box of `type` (per-type index) down to `avail` units.
  void set_availability(ResourceType type, std::uint32_t index_in_type,
                        Units avail);

 private:
  topo::Cluster cluster_;
  net::Fabric fabric_;
  net::Router router_;
  net::CircuitTable circuits_;
};

/// The exact Table 3 state: per-type availabilities
///   CPU {0, 0, 64, 32} cores, RAM {0, 16, 32, 16} GB,
///   STO {0, 0, 256, 512} GB.
[[nodiscard]] std::unique_ptr<ToyStack> make_table3_stack();

/// Toy example 2's starting state: rack 0 CPU exhausted; rack 1 CPU boxes
/// at 64 and 32 available cores; RAM/storage untouched.
[[nodiscard]] std::unique_ptr<ToyStack> make_table4_stack();

/// A toy VM request (cores / GB RAM / GB storage).
[[nodiscard]] wl::VmRequest toy_vm(std::uint32_t id, std::int64_t cores,
                                   double ram_gb, double sto_gb,
                                   double lifetime = 1000.0);

}  // namespace risa::sim

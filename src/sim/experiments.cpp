#include "sim/experiments.hpp"

#include <cmath>

#include "common/table.hpp"
#include "workload/azure.hpp"
#include "workload/synthetic.hpp"

namespace risa::sim {

wl::Workload synthetic_workload(std::uint64_t seed) {
  return wl::generate_synthetic(wl::SyntheticConfig{}, seed);
}

std::vector<std::pair<std::string, wl::Workload>> azure_workloads(
    std::uint64_t seed) {
  std::vector<std::pair<std::string, wl::Workload>> out;
  for (const wl::AzureSpec& spec : wl::azure_all_subsets()) {
    out.emplace_back(spec.label, wl::generate_azure(spec, seed));
  }
  return out;
}

namespace {

struct PaperRef {
  const char* figure;
  const char* workload;   // "*" matches any
  const char* algorithm;  // "*" matches any
  double value;
};

// Every numeric claim in §5 of the paper, keyed by figure.
constexpr PaperRef kRefs[] = {
    // Figure 5: inter-rack VM assignments, synthetic workload (counts).
    {"fig5", "Synthetic", "NULB", 255},
    {"fig5", "Synthetic", "NALB", 255},
    {"fig5", "Synthetic", "RISA", 7},
    {"fig5", "Synthetic", "RISA-BF", 2},
    // §5.1 text: average utilization, synthetic workload (%).
    {"text-util-cpu", "Synthetic", "*", 64.66},
    {"text-util-ram", "Synthetic", "*", 65.11},
    {"text-util-sto", "Synthetic", "*", 31.72},
    // Figure 7: % inter-rack assignments (exact values stated only for the
    // maxima; RISA family is zero for every subset).
    {"fig7", "Azure-3000", "NULB", 52.0},
    {"fig7", "Azure-3000", "NALB", 48.0},
    {"fig7", "*", "RISA", 0.0},
    {"fig7", "*", "RISA-BF", 0.0},
    // Figure 8: network utilization (%); intra identical across algorithms.
    {"fig8-intra", "Azure-3000", "*", 30.4},
    {"fig8-intra", "Azure-5000", "*", 35.4},
    {"fig8-intra", "Azure-7500", "*", 42.6},
    {"fig8-inter", "*", "RISA", 0.0},
    {"fig8-inter", "*", "RISA-BF", 0.0},
    // Figure 9: optical component power (kW).
    {"fig9", "Azure-3000", "NULB", 5.22},
    {"fig9", "Azure-3000", "NALB", 5.27},
    {"fig9", "Azure-3000", "RISA", 3.36},
    {"fig9", "Azure-3000", "RISA-BF", 3.36},
    {"fig9", "Azure-7500", "NULB", 6.70},
    {"fig9", "Azure-7500", "NALB", 6.72},
    // Figure 10: average CPU-RAM round-trip latency (ns).
    {"fig10", "Azure-3000", "NULB", 226},
    {"fig10", "Azure-3000", "NALB", 216},
    {"fig10", "*", "RISA", 110},
    {"fig10", "*", "RISA-BF", 110},
    // Figure 11: execution time, synthetic workload (seconds, authors' Ryzen
    // 7 2700X testbed -- shape, not absolute scale, is the target).
    {"fig11", "Synthetic", "NULB", 233},
    {"fig11", "Synthetic", "NALB", 865},
    {"fig11", "Synthetic", "RISA", 111},
    {"fig11", "Synthetic", "RISA-BF", 112},
    // Figure 12: execution time, Azure subsets (seconds; only the 7500
    // values are stated numerically).
    {"fig12", "Azure-7500", "NULB", 10361},
    {"fig12", "Azure-7500", "NALB", 15929},
    {"fig12", "Azure-7500", "RISA", 3679},
    {"fig12", "Azure-7500", "RISA-BF", 4013},
};

[[nodiscard]] bool matches(const char* pattern, const std::string& value) {
  return pattern[0] == '*' || value == pattern;
}

}  // namespace

std::optional<double> paper_reference(const std::string& figure,
                                      const std::string& workload,
                                      const std::string& algorithm) {
  for (const PaperRef& ref : kRefs) {
    if (figure == ref.figure && matches(ref.workload, workload) &&
        matches(ref.algorithm, algorithm)) {
      return ref.value;
    }
  }
  return std::nullopt;
}

std::string paper_cell(const std::string& figure, const std::string& workload,
                       const std::string& algorithm, int precision) {
  const auto ref = paper_reference(figure, workload, algorithm);
  if (!ref.has_value()) return "-";
  return TextTable::num(*ref, precision);
}

// --- §4.3 toy examples -------------------------------------------------------

ToyStack::ToyStack(topo::ClusterConfig config)
    : cluster_(std::move(config)),
      fabric_(cluster_.config(), net::FabricConfig{}),
      router_(fabric_),
      circuits_(router_) {}

core::AllocContext ToyStack::context() {
  core::AllocContext ctx;
  ctx.cluster = &cluster_;
  ctx.fabric = &fabric_;
  ctx.router = &router_;
  ctx.circuits = &circuits_;
  return ctx;
}

void ToyStack::set_availability(ResourceType type, std::uint32_t index_in_type,
                                Units avail) {
  const BoxId box = cluster_.boxes_of_type(type).at(index_in_type);
  const Units burn = cluster_.box(box).available_units() - avail;
  if (burn < 0) {
    throw std::invalid_argument("ToyStack: cannot raise availability");
  }
  topo::BoxAllocation taken;
  if (burn > 0 && !cluster_.allocate_into(box, burn, taken)) {
    throw std::logic_error("ToyStack: box refused its own free units");
  }
}

std::unique_ptr<ToyStack> make_table3_stack() {
  auto stack = std::make_unique<ToyStack>(topo::ClusterConfig::toy_example());
  // Table 3 "avail" columns, in toy units (1 core / 1 GB / 64 GB).
  stack->set_availability(ResourceType::Cpu, 0, 0);
  stack->set_availability(ResourceType::Cpu, 1, 0);
  stack->set_availability(ResourceType::Cpu, 2, 64);
  stack->set_availability(ResourceType::Cpu, 3, 32);
  stack->set_availability(ResourceType::Ram, 0, 0);
  stack->set_availability(ResourceType::Ram, 1, 16);
  stack->set_availability(ResourceType::Ram, 2, 32);
  stack->set_availability(ResourceType::Ram, 3, 16);
  stack->set_availability(ResourceType::Storage, 0, 0);
  stack->set_availability(ResourceType::Storage, 1, 0);
  stack->set_availability(ResourceType::Storage, 2, 4);  // 256 GB
  stack->set_availability(ResourceType::Storage, 3, 8);  // 512 GB
  return stack;
}

std::unique_ptr<ToyStack> make_table4_stack() {
  auto stack = std::make_unique<ToyStack>(topo::ClusterConfig::toy_example());
  stack->set_availability(ResourceType::Cpu, 0, 0);
  stack->set_availability(ResourceType::Cpu, 1, 0);
  stack->set_availability(ResourceType::Cpu, 2, 64);
  stack->set_availability(ResourceType::Cpu, 3, 32);
  return stack;
}

wl::VmRequest toy_vm(std::uint32_t id, std::int64_t cores, double ram_gb,
                     double sto_gb, double lifetime) {
  wl::VmRequest vm;
  vm.id = VmId{id};
  vm.cores = cores;
  vm.ram_mb = gb(ram_gb);
  vm.storage_mb = gb(sto_gb);
  vm.arrival = 0.0;
  vm.lifetime = lifetime;
  return vm;
}

}  // namespace risa::sim

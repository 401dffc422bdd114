// Interactive walk-through of the paper's §4.3 toy examples, placing one
// VM at a time and printing the cluster state between steps.  A compact
// demonstration of driving allocators directly (no simulation engine).
//
//   $ ./toy_examples
#include <iostream>

#include "common/table.hpp"
#include "core/registry.hpp"
#include "sim/experiments.hpp"

using namespace risa;

namespace {

void print_cluster_state(const topo::Cluster& cluster) {
  TextTable t({"Type", "id", "rack", "capacity", "available"});
  for (ResourceType type : kAllResources) {
    for (BoxId id : cluster.boxes_of_type(type)) {
      const topo::Box& box = cluster.box(id);
      t.add_row({std::string(name(type)),
                 std::to_string(box.index_in_type()),
                 std::to_string(box.rack().value()),
                 std::to_string(box.capacity_units()),
                 std::to_string(box.available_units())});
    }
  }
  std::cout << t;
}

}  // namespace

int main() {
  std::cout << "Toy example 1 -- the Table 3 state:\n";
  {
    auto stack = sim::make_table3_stack();
    print_cluster_state(stack->cluster());

    const wl::VmRequest vm = sim::toy_vm(0, 8, 16.0, 128.0);
    std::cout << "\nPlacing a VM of 8 cores / 16 GB RAM / 128 GB storage "
                 "with each algorithm:\n";
    for (const std::string& algo : core::algorithm_names()) {
      auto fresh = sim::make_table3_stack();
      auto allocator = core::make_allocator(algo, fresh->context());
      auto placed = allocator->try_place(vm);
      std::cout << "  " << algo << ": ";
      if (!placed.ok()) {
        std::cout << "dropped (" << core::name(placed.error()) << ")\n";
        continue;
      }
      for (ResourceType t : kAllResources) {
        std::cout << name(t) << "->box"
                  << fresh->cluster().box(placed->box(t)).index_in_type()
                  << "(rack" << placed->rack(t).value() << ") ";
      }
      std::cout << (placed->inter_rack ? "[INTER-RACK]" : "[intra-rack]")
                << '\n';
    }
  }

  std::cout << "\nToy example 2 -- next-fit vs best-fit packing, step by "
               "step:\n";
  {
    auto stack = sim::make_table4_stack();
    auto risa = core::make_allocator("RISA", stack->context());
    constexpr std::int64_t kSeq[] = {15, 10, 30, 12, 5, 8, 16, 4};
    const auto& cluster = stack->cluster();
    const std::span<const BoxId> rack1_cpu =
        cluster.boxes_of_type_in_rack(RackId{1}, ResourceType::Cpu);
    for (std::size_t i = 0; i < std::size(kSeq); ++i) {
      auto placed = risa->try_place(
          sim::toy_vm(static_cast<std::uint32_t>(i), kSeq[i], 1.0, 64.0));
      std::cout << "  VM " << i << " (" << kSeq[i] << " cores): ";
      if (placed.ok()) {
        std::cout << "box "
                  << cluster.box(placed->box(ResourceType::Cpu)).index_in_type() - 2;
      } else {
        std::cout << "DROPPED";
      }
      std::cout << "   [rack-1 boxes now "
                << cluster.box(rack1_cpu[0]).available_units() << " / "
                << cluster.box(rack1_cpu[1]).available_units()
                << " cores free]\n";
    }
  }
  return 0;
}

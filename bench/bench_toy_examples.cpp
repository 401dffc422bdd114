// Tables 3-4 / §4.3: the paper's two toy walk-throughs, printed step by
// step with the paper's expected outcome next to ours.  Includes the
// documented Table 4 erratum (total demand 100 cores vs 96 available) and
// the corrected scenario showing the intended best-fit advantage.
#include <iostream>

#include "common/table.hpp"
#include "core/contention.hpp"
#include "core/nulb.hpp"
#include "core/registry.hpp"
#include "core/risa.hpp"
#include "sim/experiments.hpp"

using namespace risa;

namespace {

void run_example1() {
  std::cout << "=== Toy example 1 (Table 3): one VM of 8 cores / 16 GB / "
               "128 GB ===\n";
  const wl::VmRequest vm = sim::toy_vm(0, 8, 16.0, 128.0);

  {
    auto stack = sim::make_table3_stack();
    const UnitVector demand = vm.units(stack->cluster().config().unit_scale);
    const auto cr = core::contention_ratios(
        demand, core::cluster_availability(stack->cluster()));
    TextTable crt({"Resource", "CR (measured)", "CR (paper)"});
    crt.add_row({"CPU", TextTable::num(cr[ResourceType::Cpu], 3), "0.08"});
    crt.add_row({"RAM", TextTable::num(cr[ResourceType::Ram], 3), "0.25"});
    crt.add_row({"STO", TextTable::num(cr[ResourceType::Storage], 3), "0.17"});
    std::cout << crt;
  }

  TextTable t({"Algorithm", "(CPU, RAM, STO) ids", "Paper", "Inter-rack?"});
  for (const char* algo : {"NULB", "NALB", "RISA", "RISA-BF"}) {
    auto stack = sim::make_table3_stack();
    auto allocator = core::make_allocator(algo, stack->context());
    auto placed = allocator->try_place(vm);
    std::string ids = "drop";
    std::string inter = "-";
    if (placed.ok()) {
      const auto& p = placed.value();
      ids = "(" +
            std::to_string(
                stack->cluster().box(p.box(ResourceType::Cpu)).index_in_type()) +
            ", " +
            std::to_string(
                stack->cluster().box(p.box(ResourceType::Ram)).index_in_type()) +
            ", " +
            std::to_string(stack->cluster()
                               .box(p.box(ResourceType::Storage))
                               .index_in_type()) +
            ")";
      inter = p.inter_rack ? "yes" : "no";
    }
    // The paper narrates NULB/NALB -> (2,1,2) and RISA -> (2,2,2); RISA-BF
    // is not walked through (best-fit legitimately picks the tighter
    // intra-rack boxes (3,3,2)).
    std::string paper = "-";
    if (std::string(algo) == "NULB" || std::string(algo) == "NALB") {
      paper = "(2, 1, 2)";
    } else if (std::string(algo) == "RISA") {
      paper = "(2, 2, 2)";
    }
    t.add_row({algo, ids, paper, inter});
  }
  std::cout << t << '\n';
}

void run_example2() {
  std::cout << "=== Toy example 2 (Table 4): CPU sequence 15,10,30,12,5,8,16,4"
               " on rack-1 boxes (64, 32 free cores) ===\n"
            << "NOTE: the paper's RISA-BF column claims all 8 VMs fit, but "
               "total demand (100 cores)\nexceeds total availability (96); "
               "VM 6 must drop under any algorithm (see DESIGN.md §2.6).\n";
  constexpr std::int64_t kSeq[] = {15, 10, 30, 12, 5, 8, 16, 4};
  const char* paper_risa[] = {"0", "0", "0", "1", "1", "1", "NA", "1"};
  const char* paper_bf[] = {"1", "1", "0", "0", "1", "0", "0*", "0"};

  auto run_variant = [&](bool best_fit) {
    auto stack = sim::make_table4_stack();
    auto allocator = best_fit ? core::make_risa_bf(stack->context())
                              : core::make_risa(stack->context());
    std::vector<std::string> out;
    for (std::size_t i = 0; i < std::size(kSeq); ++i) {
      auto placed = allocator->try_place(
          sim::toy_vm(static_cast<std::uint32_t>(i), kSeq[i], 1.0, 64.0));
      if (!placed.ok()) {
        out.push_back("NA");
      } else {
        const auto& box = stack->cluster().box(placed->box(ResourceType::Cpu));
        out.push_back(std::to_string(box.index_in_type() - 2));  // rack-local
      }
    }
    return out;
  };

  const auto risa_col = run_variant(false);
  const auto bf_col = run_variant(true);
  TextTable t({"VM id", "CPU req.", "RISA box (measured)", "RISA (paper)",
               "RISA-BF box (measured)", "RISA-BF (paper)"});
  for (std::size_t i = 0; i < std::size(kSeq); ++i) {
    t.add_row({std::to_string(i), std::to_string(kSeq[i]), risa_col[i],
               paper_risa[i], bf_col[i], paper_bf[i]});
  }
  std::cout << t << "(* = paper erratum: infeasible placement)\n\n";
}

void run_corrected() {
  std::cout << "=== Corrected packing scenario: boxes (33, 32), requests "
               "32, 31, 2 ===\n";
  auto build = [] {
    auto cfg = topo::ClusterConfig::toy_example();
    cfg.box_units_override = UnitVector{33, 64, 8};
    auto stack = std::make_unique<sim::ToyStack>(cfg);
    stack->set_availability(ResourceType::Cpu, 0, 0);
    stack->set_availability(ResourceType::Cpu, 1, 0);
    stack->set_availability(ResourceType::Cpu, 3, 32);
    return stack;
  };
  const std::int64_t reqs[] = {32, 31, 2};
  TextTable t({"Packing", "Placed", "Outcome"});
  for (const bool best_fit : {false, true}) {
    auto stack = build();
    auto allocator = best_fit ? core::make_risa_bf(stack->context())
                              : core::make_risa(stack->context());
    int placed = 0;
    for (std::size_t i = 0; i < std::size(reqs); ++i) {
      if (allocator
              ->try_place(sim::toy_vm(static_cast<std::uint32_t>(i), reqs[i],
                                      1.0, 64.0))
              .ok()) {
        ++placed;
      }
    }
    t.add_row({best_fit ? "best-fit (RISA-BF)" : "next-fit (RISA)",
               std::to_string(placed) + "/3",
               placed == 3 ? "packs exactly" : "strands capacity"});
  }
  std::cout << t;
}

}  // namespace

int main() {
  run_example1();
  run_example2();
  run_corrected();
  return 0;
}

#include "core/allocator.hpp"

namespace risa::core {

std::optional<DropReason> Allocator::commit(const wl::VmRequest& vm,
                                            const UnitVector& units,
                                            const PerResource<BoxId>& boxes,
                                            net::LinkSelectPolicy policy,
                                            bool used_fallback,
                                            Placement& out) {
  topo::Cluster& cluster = *ctx_.cluster;

  out.vm = vm.id;
  out.demand = ctx_.bandwidth.demand(units);
  out.used_fallback = used_fallback;

  // --- Compute phase commit ---------------------------------------------
  std::size_t committed = 0;
  for (ResourceType t : kAllResources) {
    if (!cluster.allocate_into(boxes[t], units[t], out.compute[index(t)])) {
      // The caller checked availability before committing, so this is only
      // reachable if the caller's search is buggy; unwind and report.
      for (std::size_t j = 0; j < committed; ++j) {
        cluster.release(out.compute[j]);
      }
      return DropReason::NoComputeResources;
    }
    out.racks[index(t)] = cluster.box_unchecked(boxes[t]).rack();
    ++committed;
  }

  out.inter_rack =
      out.rack(ResourceType::Cpu) != out.rack(ResourceType::Ram) ||
      out.rack(ResourceType::Ram) != out.rack(ResourceType::Storage);

  // --- Network phase ------------------------------------------------------
  auto rollback_compute = [&] {
    for (ResourceType t : kAllResources) {
      cluster.release(out.compute[index(t)]);
    }
  };

  // A zero-rate flow holds no circuit.
  auto connect = [&](net::FlowKind flow, ResourceType src, ResourceType dst,
                     MbitsPerSec bw) {
    return bw <= 0 ||
           ctx_.circuits->connect(vm.id, flow, bw, out.box(src), out.rack(src),
                                  out.box(dst), out.rack(dst), policy);
  };

  if (!connect(net::FlowKind::CpuRam, ResourceType::Cpu, ResourceType::Ram,
               out.demand.cpu_ram)) {
    rollback_compute();
    return DropReason::NoNetworkResources;
  }
  if (!connect(net::FlowKind::RamStorage, ResourceType::Ram,
               ResourceType::Storage, out.demand.ram_sto)) {
    // Undo the CPU-RAM circuit this commit opened, and nothing else: on the
    // migration path the VM's earlier circuits (the old placement's, kept
    // live make-before-break) precede it and stay.
    if (out.demand.cpu_ram > 0) {
      const auto held = ctx_.circuits->circuit_count_of(vm.id);
      ctx_.circuits->teardown_suffix(vm.id,
                                     static_cast<std::uint32_t>(held - 1));
    }
    rollback_compute();
    return DropReason::NoNetworkResources;
  }
  return std::nullopt;
}

void Allocator::release(const Placement& placement) {
  ctx_.circuits->teardown_vm(placement.vm);
  for (ResourceType t : kAllResources) {
    ctx_.cluster->release(placement.compute[index(t)]);
  }
}

void Allocator::release_batched(const Placement& placement) {
  ctx_.circuits->teardown_vm(placement.vm);
  for (ResourceType t : kAllResources) {
    ctx_.cluster->release_batched(placement.compute[index(t)]);
  }
}

}  // namespace risa::core

#include "network/circuit.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace risa::net {

Result<CircuitId, const char*> CircuitTable::establish(
    VmId vm, FlowKind flow, MbitsPerSec bw, const CircuitPath& path) {
  if (!router_->reserve(path, bw)) {
    return Err<const char*>{"a hop of the path lacks the bandwidth"};
  }
  const CircuitId id{next_id_++};
  by_vm_.find_or_insert(vm.value()).emplace_back(bw, id, vm, path, flow);
  ++active_;
  return id;
}

bool CircuitTable::connect(VmId vm, FlowKind flow, MbitsPerSec bw, BoxId src,
                           RackId src_rack, BoxId dst, RackId dst_rack,
                           LinkSelectPolicy policy) {
  CircuitPath path;
  return router_->find_path(src, src_rack, dst, dst_rack, bw, policy, path) &&
         establish(vm, flow, bw, path).ok();
}

void CircuitTable::adopt(Circuit circuit) {
  if (!router_->reserve(circuit.path, circuit.bandwidth)) {
    throw std::runtime_error(
        "CircuitTable::adopt: circuit " + std::to_string(circuit.id.value()) +
        " of VM " + std::to_string(circuit.vm.value()) +
        ": a hop of the recorded path lacks the bandwidth");
  }
  by_vm_.find_or_insert(circuit.vm.value()).push_back(circuit);
  ++active_;
}

std::size_t CircuitTable::teardown_vm(VmId vm) {
  VmCircuits* vc = by_vm_.find(vm.value());
  if (vc == nullptr) return 0;
  const std::size_t removed = vc->size();
  for (const Circuit& c : *vc) router_->release(c.path, c.bandwidth);
  truncate(vm, *vc, 0);
  return removed;
}

std::size_t CircuitTable::teardown_prefix(VmId vm, std::uint32_t k) {
  VmCircuits* vc = by_vm_.find(vm.value());
  if (vc == nullptr || k == 0) return 0;
  const std::size_t n = vc->size();
  const std::size_t removed = std::min<std::size_t>(k, n);
  for (std::size_t i = 0; i < removed; ++i) {
    router_->release((*vc)[i].path, (*vc)[i].bandwidth);
  }
  std::copy(vc->begin() + removed, vc->end(), vc->begin());
  truncate(vm, *vc, n - removed);
  return removed;
}

std::size_t CircuitTable::teardown_suffix(VmId vm, std::uint32_t keep) {
  VmCircuits* vc = by_vm_.find(vm.value());
  if (vc == nullptr || keep >= vc->size()) return 0;
  const std::size_t removed = vc->size() - keep;
  for (std::size_t i = keep; i < vc->size(); ++i) {
    router_->release((*vc)[i].path, (*vc)[i].bandwidth);
  }
  truncate(vm, *vc, keep);
  return removed;
}

void CircuitTable::truncate(VmId vm, VmCircuits& vc, std::size_t count) {
  active_ -= vc.size() - count;
  if (count == 0) {
    by_vm_.erase(vm.value());
    return;
  }
  while (vc.size() > count) vc.pop_back();
}

}  // namespace risa::net

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
  Circuit& c = append(vm);
  c.id = id;
  c.vm = vm;
  c.flow = flow;
  c.bandwidth = bw;
  c.path = path;
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
  append(circuit.vm) = circuit;
}

std::size_t CircuitTable::teardown_vm(VmId vm) {
  VmCircuits* vc = by_vm_.find(vm.value());
  if (vc == nullptr) return 0;
  const std::uint32_t removed = vc->count;
  for (std::uint32_t i = 0; i < removed; ++i) {
    router_->release(slot(*vc, i).path, slot(*vc, i).bandwidth);
  }
  truncate(vm, *vc, 0);
  return removed;
}

std::size_t CircuitTable::teardown_prefix(VmId vm, std::uint32_t k) {
  VmCircuits* vc = by_vm_.find(vm.value());
  if (vc == nullptr || k == 0) return 0;
  k = std::min(k, vc->count);
  for (std::uint32_t i = 0; i < k; ++i) {
    router_->release(slot(*vc, i).path, slot(*vc, i).bandwidth);
  }
  for (std::uint32_t i = k; i < vc->count; ++i) {
    slot(*vc, i - k) = std::move(slot(*vc, i));
  }
  truncate(vm, *vc, vc->count - k);
  return k;
}

std::size_t CircuitTable::teardown_suffix(VmId vm, std::uint32_t keep) {
  VmCircuits* vc = by_vm_.find(vm.value());
  if (vc == nullptr || keep >= vc->count) return 0;
  const std::uint32_t removed = vc->count - keep;
  for (std::uint32_t i = keep; i < vc->count; ++i) {
    router_->release(slot(*vc, i).path, slot(*vc, i).bandwidth);
  }
  truncate(vm, *vc, keep);
  return removed;
}

Circuit& CircuitTable::append(VmId vm) {
  VmCircuits& vc = by_vm_.find_or_insert(vm.value());
  ++active_;
  const std::uint32_t i = vc.count++;
  return i < kInlineCircuits ? vc.inline_circuits[i]
                             : vc.overflow.emplace_back();
}

void CircuitTable::truncate(VmId vm, VmCircuits& vc, std::uint32_t count) {
  active_ -= vc.count - count;
  vc.count = count;
  // Every current scenario keeps both circuits inline: skip the call then.
  if (!vc.overflow.empty()) {
    vc.overflow.resize(count > kInlineCircuits ? count - kInlineCircuits : 0);
  }
  if (count == 0) by_vm_.erase(vm.value());
}

}  // namespace risa::net

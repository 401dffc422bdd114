#include "network/circuit.hpp"

#include <algorithm>
#include <stdexcept>

namespace risa::net {

Result<CircuitId, std::string> CircuitTable::establish(VmId vm, FlowKind flow,
                                                       MbitsPerSec bw,
                                                       CircuitPath path) {
  auto reserved = router_->reserve(path, bw);
  if (!reserved.ok()) {
    return Err<std::string>{reserved.error()};
  }
  const CircuitId id{next_id_++};
  append(Circuit{id, vm, flow, bw, std::move(path)});
  return id;
}

void CircuitTable::adopt(Circuit circuit) {
  auto reserved = router_->reserve(circuit.path, circuit.bandwidth);
  if (!reserved.ok()) {
    throw std::runtime_error("CircuitTable::adopt: " + reserved.error());
  }
  append(std::move(circuit));
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

void CircuitTable::append(Circuit circuit) {
  VmCircuits& vc = by_vm_.find_or_insert(circuit.vm.value());
  if (vc.count < kInlineCircuits) {
    vc.inline_circuits[vc.count] = std::move(circuit);
  } else {
    vc.overflow.push_back(std::move(circuit));
  }
  ++vc.count;
  ++active_;
}

void CircuitTable::truncate(VmId vm, VmCircuits& vc, std::uint32_t count) {
  active_ -= vc.count - count;
  vc.count = count;
  vc.overflow.resize(count > kInlineCircuits ? count - kInlineCircuits : 0);
  if (count == 0) by_vm_.erase(vm.value());
}

}  // namespace risa::net

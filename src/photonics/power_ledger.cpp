#include "photonics/power_ledger.hpp"

#include <stdexcept>

namespace risa::phot {

double circuit_holding_power_w(const PhotonicConfig& config,
                               const net::Fabric& fabric,
                               const net::Circuit& circuit) {
  double power = 0.0;
  for (SwitchId sw : circuit.path.switches()) {
    const auto& node = fabric.switch_node(sw);
    power += config.switch_energy.mrr.alpha *
             static_cast<double>(benes_path_cells(node.ports)) *
             config.switch_energy.mrr.trim_power_w;
  }
  power += transceiver_power_w(config.transceiver, circuit.bandwidth,
                               circuit.path.hop_count());
  return power;
}

VmEnergy PowerLedger::charge_circuit(const net::Circuit& circuit,
                                     double lifetime_tu) {
  VmEnergy e;
  for (SwitchId sw : circuit.path.switches()) {
    const auto& node = fabric_->switch_node(sw);
    const SwitchEnergy se =
        circuit_switch_energy(config_.switch_energy, node.ports, lifetime_tu);
    e.switch_switching_j += se.switching_j;
    e.switch_trimming_j += se.trimming_j;
  }
  const double lifetime_s =
      lifetime_tu * config_.switch_energy.seconds_per_time_unit;
  e.transceiver_j += transceiver_energy_j(
      config_.transceiver, circuit.bandwidth, circuit.path.hop_count(),
      lifetime_s);

  total_.switch_switching_j += e.switch_switching_j;
  total_.switch_trimming_j += e.switch_trimming_j;
  total_.transceiver_j += e.transceiver_j;
  ++charged_;
  per_circuit_energy_.add(e.total_j());
  return e;
}

VmEnergy PowerLedger::charge_vm(const net::CircuitTable& table, VmId vm,
                                double lifetime_tu) {
  VmEnergy sum;
  table.for_each_circuit_of(vm, [&](const net::Circuit& c) {
    const VmEnergy e = charge_circuit(c, lifetime_tu);
    sum.switch_switching_j += e.switch_switching_j;
    sum.switch_trimming_j += e.switch_trimming_j;
    sum.transceiver_j += e.transceiver_j;
  });
  return sum;
}

void PowerLedger::accumulate_circuit_refund(const net::Circuit& circuit,
                                            double unused_tu,
                                            VmEnergy& refund) {
  for (SwitchId sw : circuit.path.switches()) {
    const auto& node = fabric_->switch_node(sw);
    // Only the holding (trimming) term of Eq. (1) scales with duration;
    // the switching term is sunk reconfiguration cost.
    refund.switch_trimming_j +=
        circuit_switch_energy(config_.switch_energy, node.ports, unused_tu)
            .trimming_j;
  }
  const double unused_s =
      unused_tu * config_.switch_energy.seconds_per_time_unit;
  refund.transceiver_j += transceiver_energy_j(
      config_.transceiver, circuit.bandwidth, circuit.path.hop_count(),
      unused_s);
  ++refunded_;
}

VmEnergy PowerLedger::refund_vm_truncation(const net::CircuitTable& table,
                                           VmId vm, double unused_tu) {
  VmEnergy refund;
  if (unused_tu <= 0.0) return refund;  // interval ran to its prepaid end
  // One accumulator across all circuits, subtracted from the totals once:
  // the exact FP accumulation order of the historical kill path (frozen --
  // see the header).  The per-circuit settlement below shares the helper
  // but subtracts per circuit.
  table.for_each_circuit_of(vm, [&](const net::Circuit& c) {
    accumulate_circuit_refund(c, unused_tu, refund);
  });
  total_.switch_trimming_j -= refund.switch_trimming_j;
  total_.transceiver_j -= refund.transceiver_j;
  return refund;
}

VmEnergy PowerLedger::refund_circuit_truncation(const net::Circuit& circuit,
                                                double unused_tu) {
  VmEnergy refund;
  if (unused_tu <= 0.0) return refund;  // interval ran to its prepaid end
  accumulate_circuit_refund(circuit, unused_tu, refund);
  total_.switch_trimming_j -= refund.switch_trimming_j;
  total_.transceiver_j -= refund.transceiver_j;
  return refund;
}

double PowerLedger::average_power_w(double horizon_tu) const {
  if (horizon_tu <= 0) {
    throw std::invalid_argument("average_power_w: non-positive horizon");
  }
  const double horizon_s =
      horizon_tu * config_.switch_energy.seconds_per_time_unit;
  return total_.total_j() / horizon_s;
}

}  // namespace risa::phot

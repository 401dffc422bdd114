#include "photonics/power_ledger.hpp"

#include <stdexcept>

namespace risa::phot {

PowerLedger::PowerLedger(const PhotonicConfig& config,
                         const net::Fabric& fabric)
    : config_(config), fabric_(&fabric) {
  config_.validate();
  // FabricConfig::validate guarantees every switch has >= 2 ports, so the
  // Beneš helpers cannot throw here.
  per_switch_.reserve(fabric.num_switches());
  for (std::size_t i = 0; i < fabric.num_switches(); ++i) {
    const std::uint32_t ports =
        fabric.switch_node(SwitchId{static_cast<std::uint32_t>(i)}).ports;
    per_switch_.push_back({switching_term_j(config_.switch_energy, ports),
                           trim_coefficient_w(config_.switch_energy, ports)});
  }
}

double PowerLedger::holding_power_w(const net::Circuit& circuit) const {
  double power = 0.0;
  fabric_->for_each_path_switch(circuit.path, [&](SwitchId sw) {
    power += per_switch_[sw.value()].trim_w;
  });
  power += transceiver_power_w(config_.transceiver, circuit.bandwidth,
                               circuit.path.hop_count());
  return power;
}

VmEnergy PowerLedger::charge_circuit(const net::Circuit& circuit,
                                     double lifetime_tu) {
  if (lifetime_tu < 0) {
    throw std::invalid_argument("charge_circuit: negative lifetime");
  }
  const double s_per_tu = config_.switch_energy.seconds_per_time_unit;
  VmEnergy e;
  fabric_->for_each_path_switch(circuit.path, [&](SwitchId sw) {
    // The left-to-right product of circuit_switch_energy: coeff * T * s.
    const SwitchCoefficients& k = per_switch_[sw.value()];
    e.switch_switching_j += k.switching_j;
    e.switch_trimming_j += k.trim_w * lifetime_tu * s_per_tu;
  });
  const double lifetime_s = lifetime_tu * s_per_tu;
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
  const double s_per_tu = config_.switch_energy.seconds_per_time_unit;
  fabric_->for_each_path_switch(circuit.path, [&](SwitchId sw) {
    // Only the holding (trimming) term of Eq. (1) scales with duration;
    // the switching term is sunk reconfiguration cost.
    refund.switch_trimming_j += per_switch_[sw.value()].trim_w * unused_tu *
                                s_per_tu;
  });
  const double unused_s = unused_tu * s_per_tu;
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

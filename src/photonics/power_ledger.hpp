// Aggregates optical-component energy over a simulation run and converts it
// to the average-power figure the paper reports (Figure 9: "power
// consumption for optical components" = transceivers + all optical switch
// energy, averaged over the simulated horizon).
//
// Charging is interval-based (DESIGN.md §8): a placement OPENS a charging
// interval by prepaying the expected holding duration (charge_vm -- the
// exact arithmetic and accumulation order of the historical
// charge-full-lifetime-at-placement scheme, which is what keeps no-fault
// runs bit-identical to PR 3), and a truncation (a box failure killing the
// VM before its scheduled departure) SETTLES the interval at kill time by
// refunding the unheld tail's duration-proportional energy
// (refund_vm_truncation).  Switching energy is the one-time
// reconfiguration term of Eq. (1) and is never refunded -- the circuit was
// really established.  A placement that runs to its scheduled departure
// needs no settlement: the prepaid interval already equals the held one.
#pragma once

#include <cstddef>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "network/circuit.hpp"
#include "network/fabric.hpp"
#include "photonics/switch_energy.hpp"
#include "photonics/transceiver.hpp"

namespace risa::phot {

struct PhotonicConfig {
  SwitchEnergyConfig switch_energy{};
  TransceiverParams transceiver{};

  void validate() const {
    switch_energy.validate();
    transceiver.validate();
  }
};

/// Energy attributed to one VM's circuits, joules.
struct VmEnergy {
  double switch_switching_j = 0.0;
  double switch_trimming_j = 0.0;
  double transceiver_j = 0.0;

  [[nodiscard]] double total_j() const noexcept {
    return switch_switching_j + switch_trimming_j + transceiver_j;
  }
};

class PowerLedger {
 public:
  /// Validates `config` and precomputes Eq. (1)'s per-switch coefficients
  /// for every switch of `fabric` (DESIGN.md §8.4).  The ledger reads each
  /// circuit's switches through `fabric` (Fabric::for_each_path_switch), so
  /// the fabric must outlive it.
  PowerLedger(const PhotonicConfig& config, const net::Fabric& fabric);

  /// Charge the energy of one circuit held for `lifetime_tu` simulated time
  /// units: Eq. (1) per switch traversed plus transceiver energy per link
  /// hop.  Returns the decomposition for metrics.
  VmEnergy charge_circuit(const net::Circuit& circuit, double lifetime_tu);

  /// Open the charging interval of `vm`'s circuits at its expected length:
  /// charge every circuit `vm` currently holds in `table` (both circuits
  /// of a placed VM) for `lifetime_tu`, allocation-free via
  /// CircuitTable::for_each_circuit_of.
  VmEnergy charge_vm(const net::CircuitTable& table, VmId vm,
                     double lifetime_tu);

  /// Settle a truncated interval: the VM was killed `unused_tu` time units
  /// before its prepaid interval ended.  Refunds the duration-proportional
  /// components (switch trimming + transceiver) for the unheld tail of
  /// every circuit `vm` still holds in `table`; call BEFORE the circuits
  /// are torn down.  The one-time switching energy stays charged.  A
  /// non-positive `unused_tu` is a no-op that leaves the totals bit-for-bit
  /// untouched (the untruncated case).  Returns the refunded decomposition.
  VmEnergy refund_vm_truncation(const net::CircuitTable& table, VmId vm,
                                double unused_tu);

  /// Per-circuit variant of the truncation settlement, for callers that
  /// retire a SUBSET of a VM's circuits (the migration path: the old
  /// circuits settle at the sweep instant while the freshly established
  /// ones open their own intervals).  Shares the refund arithmetic with
  /// refund_vm_truncation but subtracts from the totals per circuit; the
  /// kill path keeps its whole-VM accumulate-then-subtract order, which is
  /// frozen bit-for-bit (DESIGN.md §8.4).  Non-positive `unused_tu` is a
  /// no-op.
  VmEnergy refund_circuit_truncation(const net::Circuit& circuit,
                                     double unused_tu);

  /// Instantaneous holding power of one active circuit, watts: the trimming
  /// power of every MRR cell along its switch path (alpha * n * P_trim per
  /// switch) plus its transceiver draw.  Used by the timeline recorder; the
  /// time-integral of this quantity equals the ledger's trimming+transceiver
  /// energy.
  [[nodiscard]] double holding_power_w(const net::Circuit& circuit) const;

  [[nodiscard]] double total_energy_j() const noexcept { return total_.total_j(); }
  [[nodiscard]] const VmEnergy& totals() const noexcept { return total_; }
  [[nodiscard]] std::size_t circuits_charged() const noexcept { return charged_; }
  /// Circuits whose interval was settled short by a truncation refund.
  [[nodiscard]] std::size_t circuits_refunded() const noexcept {
    return refunded_;
  }

  /// Average power over a horizon of `horizon_tu` simulated time units.
  [[nodiscard]] double average_power_w(double horizon_tu) const;

  /// Per-circuit energy distribution (joules), recorded at interval OPEN
  /// (prepaid values; truncation refunds do not retro-adjust samples).
  [[nodiscard]] const RunningStats& per_circuit_energy() const noexcept {
    return per_circuit_energy_;
  }

  /// Checkpointable accumulated state (the config/fabric wiring is
  /// reconstructed by the owner; only the run-dependent totals move).
  struct State {
    VmEnergy total;
    std::uint64_t charged;
    std::uint64_t refunded;
    RunningStats::State per_circuit_energy;
  };
  [[nodiscard]] State save() const noexcept {
    return {total_, static_cast<std::uint64_t>(charged_),
            static_cast<std::uint64_t>(refunded_),
            per_circuit_energy_.save()};
  }
  void restore(const State& s) noexcept {
    total_ = s.total;
    charged_ = static_cast<std::size_t>(s.charged);
    refunded_ = static_cast<std::size_t>(s.refunded);
    per_circuit_energy_.restore(s.per_circuit_energy);
  }

 private:
  /// Append one circuit's duration-proportional refund terms (per-switch
  /// trimming, then transceiver -- the shared arithmetic of both public
  /// settlement entry points) into `refund` and count the circuit.
  void accumulate_circuit_refund(const net::Circuit& circuit,
                                 double unused_tu, VmEnergy& refund);

  /// Eq. (1) terms of one circuit through one switch that do not depend on
  /// the lifetime (switch_energy.hpp).
  struct SwitchCoefficients {
    double switching_j;  ///< switching_term_j
    double trim_w;       ///< trim_coefficient_w
  };

  PhotonicConfig config_;
  const net::Fabric* fabric_;
  /// Indexed by SwitchId; built once from the fabric's port counts.
  std::vector<SwitchCoefficients> per_switch_;
  VmEnergy total_{};
  std::size_t charged_ = 0;
  std::size_t refunded_ = 0;
  RunningStats per_circuit_energy_;
};

}  // namespace risa::phot

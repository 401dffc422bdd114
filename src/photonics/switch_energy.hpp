// The paper's optical-switch energy model, Eq. (1):
//
//   E_sw = (n/2 * P_swcell * lat_sw) + (alpha * n * P_trimcell * T)
//
// where n is the number of cells along the circuit's path through a switch
// (one per Beneš stage), lat_sw the cell-switching latency (a function of
// switch size, per HyCo [6]), alpha the cell-sharing factor and T the VM
// lifetime.  The first term is the one-time reconfiguration energy (n/2 of
// the cells are assumed to change state); the second is the holding energy
// for the circuit's lifetime.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "photonics/benes.hpp"
#include "photonics/mrr.hpp"

namespace risa::phot {

struct SwitchEnergyConfig {
  MrrParams mrr{};

  /// lat_sw(N) = base * log2(N).  The cited latency source [6] is
  /// summarized only as "based on the switch size"; this linear-in-log2
  /// model is our documented assumption (DESIGN.md §2.5).  The switching
  /// term is ~9 orders of magnitude below the trimming term, so results are
  /// insensitive to it (pinned by a test).
  double switch_latency_base_s = 1e-6;

  /// Wall-clock seconds represented by one simulated time unit.
  double seconds_per_time_unit = 1.0;

  void validate() const {
    mrr.validate();
    if (switch_latency_base_s < 0) {
      throw std::invalid_argument("SwitchEnergyConfig: negative latency base");
    }
    if (seconds_per_time_unit <= 0) {
      throw std::invalid_argument("SwitchEnergyConfig: non-positive tu scale");
    }
  }
};

/// Decomposed per-switch energy, joules.
struct SwitchEnergy {
  double switching_j = 0.0;  ///< (n/2) * P_swcell * lat_sw
  double trimming_j = 0.0;   ///< alpha * n * P_trimcell * T

  [[nodiscard]] double total_j() const noexcept { return switching_j + trimming_j; }
};

/// Cell-switching latency for an N-port switch.
[[nodiscard]] inline double switch_latency_s(const SwitchEnergyConfig& cfg,
                                             std::uint32_t ports) {
  return cfg.switch_latency_base_s * static_cast<double>(ceil_log2(ports));
}

/// Switching term of Eq. (1) for one circuit through an N-port switch,
/// joules: (n/2) * P_swcell * lat_sw.  Independent of the lifetime.
[[nodiscard]] inline double switching_term_j(const SwitchEnergyConfig& cfg,
                                             std::uint32_t ports) {
  const auto n = static_cast<double>(benes_path_cells(ports));
  return (n / 2.0) * cfg.mrr.switch_power_w * switch_latency_s(cfg, ports);
}

/// Trim coefficient of Eq. (1) for one circuit through an N-port switch,
/// watts: alpha * n * P_trimcell, the circuit's holding power in that
/// switch.  The trimming term is this times T (in seconds), multiplied left
/// to right, so a caller holding the coefficient gets the same bits.
[[nodiscard]] inline double trim_coefficient_w(const SwitchEnergyConfig& cfg,
                                               std::uint32_t ports) {
  return cfg.mrr.alpha * static_cast<double>(benes_path_cells(ports)) *
         cfg.mrr.trim_power_w;
}

/// Eq. (1) for one circuit through one N-port switch held for
/// `lifetime_time_units` simulated time units.
[[nodiscard]] inline SwitchEnergy circuit_switch_energy(
    const SwitchEnergyConfig& cfg, std::uint32_t ports,
    double lifetime_time_units) {
  if (lifetime_time_units < 0) {
    throw std::invalid_argument("circuit_switch_energy: negative lifetime");
  }
  SwitchEnergy e;
  e.switching_j = switching_term_j(cfg, ports);
  e.trimming_j = trim_coefficient_w(cfg, ports) * lifetime_time_units *
                 cfg.seconds_per_time_unit;
  return e;
}

}  // namespace risa::phot

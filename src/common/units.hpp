// Unit arithmetic for the disaggregated architecture of Table 1.
//
// Physical resource amounts (cores, GB, Gb/s) are carried as exact integers:
// RAM/storage in MiB-like "megabytes" (the paper's Azure RAM sizes include
// 0.75 GB, so GB alone is not integral), bandwidth in Mb/s.  Boxes allocate
// in discrete *units*: 1 CPU unit = 4 cores, 1 RAM unit = 4 GB, 1 storage
// unit = 64 GB (Table 1); requests are ceil-divided into units.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/types.hpp"

namespace risa {

/// Integer count of allocation units (bricks are 16 units each).
using Units = std::int64_t;

/// Megabytes (10^6-ish granularity is irrelevant; it is an exact integer
/// carrier for fractional-GB sizes such as Azure's 0.75 GB = 768 MB).
using Megabytes = std::int64_t;

/// Mb/s carrier for bandwidth (1 Gb/s = 1000 Mb/s).
using MbitsPerSec = std::int64_t;

/// Simulated time in abstract "time units" (paper §5.1).  The photonic
/// energy model converts to seconds via PhotonicConfig::seconds_per_time_unit.
using SimTime = double;

[[nodiscard]] constexpr Megabytes gb(double gigabytes) noexcept {
  return static_cast<Megabytes>(gigabytes * 1024.0 + 0.5);
}

[[nodiscard]] constexpr MbitsPerSec gbps(double gigabits_per_sec) noexcept {
  return static_cast<MbitsPerSec>(gigabits_per_sec * 1000.0 + 0.5);
}

[[nodiscard]] constexpr double to_gb(Megabytes mb) noexcept {
  return static_cast<double>(mb) / 1024.0;
}

[[nodiscard]] constexpr double to_gbps(MbitsPerSec mbps) noexcept {
  return static_cast<double>(mbps) / 1000.0;
}

/// Ceiling division for non-negative integers.
template <typename T>
[[nodiscard]] constexpr T ceil_div(T num, T den) {
  if (den <= 0) throw std::invalid_argument("ceil_div: non-positive divisor");
  if (num < 0) throw std::invalid_argument("ceil_div: negative numerator");
  return (num + den - 1) / den;
}

/// Unit granularity of the disaggregated architecture (Table 1).
struct UnitScale {
  std::int64_t cores_per_cpu_unit = 4;     ///< "CPU unit: 4 cores"
  Megabytes mb_per_ram_unit = gb(4.0);     ///< "RAM unit: 4 GB"
  Megabytes mb_per_storage_unit = gb(64.0);///< "Storage unit: 64 GB"

  /// Units needed for a raw demand of the given type.  CPU demand is in
  /// cores; RAM/storage demand is in megabytes.
  [[nodiscard]] Units to_units(ResourceType t, std::int64_t raw) const {
    switch (t) {
      case ResourceType::Cpu: return ceil_div<std::int64_t>(raw, cores_per_cpu_unit);
      case ResourceType::Ram: return ceil_div<std::int64_t>(raw, mb_per_ram_unit);
      case ResourceType::Storage: return ceil_div<std::int64_t>(raw, mb_per_storage_unit);
    }
    throw std::logic_error("to_units: bad resource type");
  }

  friend constexpr bool operator==(const UnitScale&, const UnitScale&) = default;
};

/// Precomputed demand->units conversion for the placement hot path.  Every
/// placement starts with three ceil-divisions; Table 1's granularities
/// (4 cores, 4 GB, 64 GB) are all powers of two, where the ~25-cycle 64-bit
/// divide collapses to a shift.  Non-power-of-two scales keep the exact
/// divide, so results are bit-identical to UnitScale::to_units for every
/// input.
class UnitConverter {
 public:
  UnitConverter() : UnitConverter(UnitScale{}) {}
  explicit UnitConverter(const UnitScale& scale) {
    set(ResourceType::Cpu, scale.cores_per_cpu_unit);
    set(ResourceType::Ram, scale.mb_per_ram_unit);
    set(ResourceType::Storage, scale.mb_per_storage_unit);
  }

  [[nodiscard]] Units to_units(ResourceType t, std::int64_t raw) const {
    if (raw < 0) throw std::invalid_argument("ceil_div: negative numerator");
    const auto i = index(t);
    const std::int64_t num = raw + den_[i] - 1;
    return shift_[i] >= 0 ? num >> shift_[i] : num / den_[i];
  }

 private:
  void set(ResourceType t, std::int64_t den) {
    if (den <= 0) throw std::invalid_argument("ceil_div: non-positive divisor");
    den_[index(t)] = den;
    shift_[index(t)] =
        (den & (den - 1)) == 0
            ? static_cast<int>(std::countr_zero(static_cast<std::uint64_t>(den)))
            : -1;
  }

  std::array<std::int64_t, kNumResourceTypes> den_{};
  std::array<int, kNumResourceTypes> shift_{};
};

/// A per-type vector of unit counts; the currency of all allocation code.
using UnitVector = PerResource<Units>;

/// Component-wise helpers for UnitVector.
[[nodiscard]] constexpr UnitVector operator+(UnitVector a, const UnitVector& b) noexcept {
  for (ResourceType t : kAllResources) a[t] += b[t];
  return a;
}

[[nodiscard]] constexpr UnitVector operator-(UnitVector a, const UnitVector& b) noexcept {
  for (ResourceType t : kAllResources) a[t] -= b[t];
  return a;
}

/// Pretty "cpu=4,ram=2,sto=2" rendering used in logs and error messages.
[[nodiscard]] std::string to_string(const UnitVector& v);

}  // namespace risa

// Time-series recording: samples the cluster/fabric state at every
// placement and departure so runs can be plotted (utilization ramps, power
// draw over time, active-VM census).  Exported as CSV for external tooling
// (`risa_cli --timeline-csv`).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "common/units.hpp"

namespace risa::sim {

/// One sampled instant of a simulation run.
struct TimelinePoint {
  SimTime time = 0.0;
  std::uint64_t active_vms = 0;
  std::uint64_t placed_total = 0;
  std::uint64_t dropped_total = 0;
  std::uint64_t killed_total = 0;  ///< VMs killed by box/link failures so far
  std::uint64_t migrated_total = 0;///< committed live migrations so far
  std::uint32_t offline_boxes = 0; ///< boxes currently offline (degraded)
  std::uint32_t failed_links = 0;  ///< links currently failed (degraded)
  PerResource<double> utilization{0.0, 0.0, 0.0};
  double intra_net_utilization = 0.0;
  double inter_net_utilization = 0.0;
  double optical_power_w = 0.0;  ///< instantaneous holding power estimate
};

class Timeline {
 public:
  void record(const TimelinePoint& point);

  [[nodiscard]] const std::vector<TimelinePoint>& points() const noexcept {
    return points_;
  }
  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }

  /// Largest active-VM census seen.
  [[nodiscard]] std::uint64_t peak_active_vms() const noexcept {
    return peak_active_;
  }

  /// CSV export: header + one row per point.
  void write_csv(std::ostream& os) const;
  void save_csv(const std::string& path) const;

 private:
  std::uint64_t peak_active_ = 0;
  std::vector<TimelinePoint> points_;
};

}  // namespace risa::sim

#include "sim/timeline.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "common/csv.hpp"
#include "common/table.hpp"

namespace risa::sim {

void Timeline::record(const TimelinePoint& point) {
  peak_active_ = std::max(peak_active_, point.active_vms);
  points_.push_back(point);
}

void Timeline::write_csv(std::ostream& os) const {
  CsvWriter writer(os);
  writer.write_row({"time", "active_vms", "placed_total", "dropped_total",
                    "killed_total", "migrated_total", "offline_boxes",
                    "failed_links", "cpu_util", "ram_util", "sto_util",
                    "intra_net_util", "inter_net_util", "optical_power_w"});
  for (const TimelinePoint& p : points_) {
    writer.write_row({TextTable::num(p.time, 3),
                      std::to_string(p.active_vms),
                      std::to_string(p.placed_total),
                      std::to_string(p.dropped_total),
                      std::to_string(p.killed_total),
                      std::to_string(p.migrated_total),
                      std::to_string(p.offline_boxes),
                      std::to_string(p.failed_links),
                      TextTable::num(p.utilization.cpu(), 6),
                      TextTable::num(p.utilization.ram(), 6),
                      TextTable::num(p.utilization.storage(), 6),
                      TextTable::num(p.intra_net_utilization, 6),
                      TextTable::num(p.inter_net_utilization, 6),
                      TextTable::num(p.optical_power_w, 3)});
  }
}

void Timeline::save_csv(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("Timeline: cannot open " + path);
  write_csv(os);
  if (!os) throw std::runtime_error("Timeline: write failed: " + path);
}

}  // namespace risa::sim

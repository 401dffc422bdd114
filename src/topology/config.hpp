// Cluster-shape configuration mirroring Table 1 of the paper.
//
// Defaults encode the paper's evaluation platform exactly:
//   cluster = 18 racks, rack = 6 boxes (2 per resource type),
//   box = 8 bricks, brick = 16 units,
//   CPU unit = 4 cores, RAM unit = 4 GB, storage unit = 64 GB.
// The toy examples of §4.3 use smaller boxes; `box_units_override` supports
// that without changing the allocation code paths.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/types.hpp"
#include "common/units.hpp"

namespace risa::topo {

struct ClusterConfig {
  /// Number of racks in the cluster ("Cluster size: 18 racks").
  std::uint32_t racks = 18;

  /// Boxes of each resource type per rack.  The paper's rack holds 6 boxes;
  /// with three resource types the natural split is 2/2/2 (each box holds a
  /// single type, §3.1).
  PerResource<std::uint32_t> boxes_per_rack{2, 2, 2};

  /// Bricks per box ("Box size: 8 bricks").
  std::uint32_t bricks_per_box = 8;

  /// Units per brick ("Brick size: 16 units").
  Units units_per_brick = 16;

  /// Physical size of one unit per type (Table 1, right column).
  UnitScale unit_scale{};

  /// Optional per-type override of a box's total unit count (0 = use
  /// bricks_per_box * units_per_brick).  Used by the §4.3 toy examples where
  /// CPU/RAM boxes hold 16 units and storage boxes hold 8.
  UnitVector box_units_override{0, 0, 0};

  /// Units in one box of the given type.
  [[nodiscard]] Units box_units(ResourceType t) const {
    const Units o = box_units_override[t];
    return o > 0 ? o : static_cast<Units>(bricks_per_box) * units_per_brick;
  }

  /// Total boxes per rack (all types).
  [[nodiscard]] std::uint32_t total_boxes_per_rack() const {
    std::uint32_t n = 0;
    for (ResourceType t : kAllResources) n += boxes_per_rack[t];
    return n;
  }

  /// Cluster-wide box count.
  [[nodiscard]] std::uint32_t total_boxes() const {
    return racks * total_boxes_per_rack();
  }

  /// Cluster-wide capacity of a type, in units.
  [[nodiscard]] Units total_units(ResourceType t) const {
    return static_cast<Units>(racks) * boxes_per_rack[t] * box_units(t);
  }

  /// Throws std::invalid_argument when the shape is degenerate.
  void validate() const {
    if (racks == 0) throw std::invalid_argument("ClusterConfig: zero racks");
    if (bricks_per_box == 0)
      throw std::invalid_argument("ClusterConfig: zero bricks per box");
    if (units_per_brick <= 0)
      throw std::invalid_argument("ClusterConfig: non-positive units per brick");
    for (ResourceType t : kAllResources) {
      if (boxes_per_rack[t] == 0) {
        throw std::invalid_argument(
            std::string("ClusterConfig: no boxes of type ") +
            std::string(name(t)) + " per rack");
      }
      if (box_units_override[t] < 0) {
        throw std::invalid_argument("ClusterConfig: negative box override");
      }
      // Brick slices record their units as u32 (topology/box.hpp), which
      // is exact only while a whole box fits.  The bricks * units product
      // is bounded by division so the check itself cannot overflow.
      const bool too_big =
          box_units_override[t] > 0
              ? box_units_override[t] > kMaxBoxUnits
              : units_per_brick > kMaxBoxUnits / bricks_per_box;
      if (too_big) {
        throw std::invalid_argument(
            std::string("ClusterConfig: ") + std::string(name(t)) +
            " box units exceed UINT32_MAX");
      }
    }
  }

  /// Largest box (in units) a config may declare: UINT32_MAX.
  static constexpr Units kMaxBoxUnits = 0xFFFFFFFF;

  /// The §4.3 toy-example configuration: 2 racks, 2 boxes of each type per
  /// rack, CPU boxes of 64 cores, RAM boxes of 64 GB, storage boxes of
  /// 512 GB.  Tables 3-4 do their arithmetic at single-core / single-GB
  /// granularity (e.g. 15+10+30 = 55 of 64 cores), so the toy unit scale is
  /// 1 core / 1 GB / 64 GB per unit rather than Table 1's 4/4/64.
  [[nodiscard]] static ClusterConfig toy_example() {
    ClusterConfig cfg;
    cfg.racks = 2;
    cfg.boxes_per_rack = PerResource<std::uint32_t>{2, 2, 2};
    cfg.bricks_per_box = 2;
    cfg.units_per_brick = 8;
    cfg.unit_scale.cores_per_cpu_unit = 1;
    cfg.unit_scale.mb_per_ram_unit = gb(1.0);
    cfg.unit_scale.mb_per_storage_unit = gb(64.0);
    cfg.box_units_override = UnitVector{64, 64, 8};
    return cfg;
  }
};

}  // namespace risa::topo

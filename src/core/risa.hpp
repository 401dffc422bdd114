// RISA and RISA-BF: the paper's contribution (Algorithms 1 and 3).
//
// RISA keeps, per rack, the box with the maximum availability of each
// resource type (maintained incrementally by the Cluster).  For each VM it
// builds INTRA_RACK_POOL -- the racks whose maxima fit the *entire* VM --
// and selects among them round-robin, so rack utilization stays uniform and
// future VMs keep finding intra-rack homes.  Inside the chosen rack, boxes
// are packed next-fit (RISA) or best-fit ascending (RISA-BF; Algorithm 3's
// "sort boxes within each rack in ascending # of resource").  When the pool
// is empty or intra-rack bandwidth is insufficient, RISA "resorts to NULB"
// restricted to the SUPER_RACK: the per-type lists of racks that can host
// each resource individually.
//
// The next-fit policy (first-fit with a roving per-rack cursor that stays
// on the last chosen box) is the only packing rule consistent with the
// paper's Table 4 trace; see DESIGN.md §2.8.
#pragma once

#include <cstdint>
#include <vector>

#include "core/allocator.hpp"
#include "core/search.hpp"

namespace risa::core {

/// Intra-rack packing rule.
enum class RackPacking : std::uint8_t {
  NextFit = 0,  ///< RISA: roving cursor per (rack, type)
  BestFit = 1,  ///< RISA-BF: smallest availability that fits
};

/// Rack selection rule for the intra-rack pool (round-robin is the paper's;
/// first-eligible is the ablation baseline that shows why round-robin
/// matters).
enum class RackSelection : std::uint8_t {
  RoundRobin = 0,
  FirstEligible = 1,
};

struct RisaOptions {
  RackPacking packing = RackPacking::NextFit;
  RackSelection selection = RackSelection::RoundRobin;
};

class RisaAllocator : public Allocator {
 public:
  RisaAllocator(AllocContext ctx, RisaOptions options = {});

  [[nodiscard]] std::string_view name() const noexcept override {
    return options_.packing == RackPacking::BestFit ? "RISA-BF" : "RISA";
  }

  [[nodiscard]] std::optional<DropReason> place(const wl::VmRequest& vm,
                                                Placement& out) override;

  void reset() override;

  /// Round-robin cursor, per-(rack, type) next-fit cursors and the
  /// fallback counter -- exactly the state reset() clears.
  void save_state(std::ostream& os) const override;
  void restore_state(std::istream& is) override;

  /// Number of placements that took the SUPER_RACK/NULB fallback path.
  [[nodiscard]] std::uint64_t fallback_count() const noexcept {
    return fallbacks_;
  }

  /// Racks currently able to host the whole demand (exposed for tests and
  /// the round-robin ablation).  Materializes a vector from the cluster's
  /// rack-availability index; the placement hot path uses the RackSet form
  /// directly and never allocates.
  [[nodiscard]] std::vector<RackId> intra_rack_pool(const UnitVector& units) const;

  /// The per-type SUPER_RACK lists for a demand (vector form, see above).
  [[nodiscard]] PerResource<std::vector<RackId>> super_rack(
      const UnitVector& units) const;

 private:
  [[nodiscard]] BoxId pick_box_in_rack(RackId rack, ResourceType type,
                                       Units units);

  RisaOptions options_;
  std::uint32_t rr_next_rack_ = 0;  ///< round-robin cursor over rack ids
  /// Next-fit cursors: per (rack, type) local box index of the last
  /// allocation, the roving pointer Table 4 exhibits.
  std::vector<PerResource<std::uint32_t>> cursors_;
  std::uint64_t fallbacks_ = 0;
};

/// Factory helpers matching the paper's two variants.
[[nodiscard]] std::unique_ptr<RisaAllocator> make_risa(AllocContext ctx);
[[nodiscard]] std::unique_ptr<RisaAllocator> make_risa_bf(AllocContext ctx);

}  // namespace risa::core

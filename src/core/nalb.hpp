// NALB: the Network-Aware Locality-Based baseline of Zervas et al. [20].
//
// NALB extends NULB in two ways (§4.1): the BFS over candidate boxes is
// re-ordered by descending available uplink bandwidth ("modified BFS"), and
// the network phase "chooses links with the most available bandwidth".
// The extra ordering work is what makes NALB the slowest algorithm in the
// paper's Figures 11-12, a shape this implementation preserves.
#pragma once

#include "core/allocator.hpp"
#include "core/search.hpp"

namespace risa::core {

class NalbAllocator : public Allocator {
 public:
  explicit NalbAllocator(AllocContext ctx,
                         CompanionSearch companion = CompanionSearch::GlobalOrder)
      : Allocator(ctx), companion_(companion) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "NALB"; }

  [[nodiscard]] std::optional<DropReason> place(const wl::VmRequest& vm,
                                                Placement& out) override;

 private:
  CompanionSearch companion_;
};

}  // namespace risa::core

// Extension baselines beyond the paper's NULB/NALB comparison set.
//
// These are the classic placement disciplines the DDC-scheduling literature
// compares against (cf. Papaioannou et al. [16], Call et al. [4]); they
// share the two-phase commit of the Allocator base, differing only in box
// choice:
//   * RandomAllocator   -- uniformly random feasible box per type (the
//                          load-balancing strawman; seeded, deterministic);
//   * WorstFitAllocator -- emptiest box per type (spreads load, maximizes
//                          per-box headroom -- the anti-RISA).
// They participate in the registry ("RANDOM", "WF") and in the `baselines`
// matrix (sim/matrices.hpp), quantifying how much of RISA's win comes from
// rack affinity rather than mere load balancing.  Global first-fit per type
// needs no class of its own: it is exactly NULB's default reading
// (CompanionSearch::GlobalOrder takes the first fitting box in id order).
#pragma once

#include "common/rng.hpp"
#include "core/allocator.hpp"

namespace risa::core {

class RandomAllocator : public Allocator {
 public:
  explicit RandomAllocator(AllocContext ctx, std::uint64_t seed = 0x5eed)
      : Allocator(ctx), seed_(seed), rng_(seed) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "RANDOM";
  }

  [[nodiscard]] std::optional<DropReason> place(const wl::VmRequest& vm,
                                                Placement& out) override;

  void reset() override { rng_ = Rng(seed_); }

  void save_state(std::ostream& os) const override;
  void restore_state(std::istream& is) override;

 private:
  std::uint64_t seed_;
  Rng rng_;
};

class WorstFitAllocator : public Allocator {
 public:
  explicit WorstFitAllocator(AllocContext ctx) : Allocator(ctx) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "WF"; }

  [[nodiscard]] std::optional<DropReason> place(const wl::VmRequest& vm,
                                                Placement& out) override;
};

}  // namespace risa::core

// Extension baselines beyond the paper's NULB/NALB comparison set.
//
// These are the classic placement disciplines the DDC-scheduling literature
// compares against (cf. Papaioannou et al. [16], Call et al. [4]); they
// share the two-phase commit of the Allocator base, differing only in box
// choice:
//   * RandomAllocator   -- uniformly random feasible box per type (the
//                          load-balancing strawman; seeded, deterministic);
//   * FirstFitAllocator -- global first-fit per type, no contention anchor
//                          (what NULB degenerates to without CR ordering);
//   * WorstFitAllocator -- emptiest box per type (spreads load, maximizes
//                          per-box headroom -- the anti-RISA).
// They participate in the registry ("RANDOM", "FF", "WF") and in the
// extension bench, quantifying how much of RISA's win comes from rack
// affinity rather than mere load balancing.
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

class FirstFitAllocator : public Allocator {
 public:
  explicit FirstFitAllocator(AllocContext ctx) : Allocator(ctx) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "FF"; }

  [[nodiscard]] std::optional<DropReason> place(const wl::VmRequest& vm,
                                                Placement& out) override;
};

class WorstFitAllocator : public Allocator {
 public:
  explicit WorstFitAllocator(AllocContext ctx) : Allocator(ctx) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "WF"; }

  [[nodiscard]] std::optional<DropReason> place(const wl::VmRequest& vm,
                                                Placement& out) override;
};

}  // namespace risa::core

// Raw cycle/tick counter for micro-timing hot paths.  steady_clock::now()
// costs ~30 ns per call through the vDSO; the engine times every placement
// attempt (two reads per arrival), which at the 500k-VM bench scale puts
// the *instrumentation* near 20% of the run.  A raw TSC read is ~5 ns and
// needs no syscall.  Ticks are meaningless on their own: callers accumulate
// raw deltas and convert once at the end against a wall-clock interval
// measured over the same span (Engine::run already brackets the run with
// steady_clock for sim_wall_seconds, so calibration is free).
//
// x86-64 TSCs have been invariant (constant-rate, monotonic across P-states)
// on everything produced in the last decade; aarch64's cntvct_el0 is
// architecturally constant-rate.  Other targets fall back to steady_clock,
// trading speed for portability -- correctness never depends on the tick
// rate, only the reported scheduler_exec_seconds does, and that is excluded
// from the determinism fingerprint (sim/sweep.hpp).
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace risa {

struct CycleClock {
  [[nodiscard]] static std::uint64_t now() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
    return __rdtsc();
#elif defined(__aarch64__)
    std::uint64_t ticks;
    asm volatile("mrs %0, cntvct_el0" : "=r"(ticks));
    return ticks;
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
  }
};

/// Nestable cycle-clock spans with *exclusive* per-slot attribution: while
/// an inner span runs, the enclosing span's clock is paused, so the sum of
/// all slot ticks equals the total covered time exactly (never more) and
/// converts to a set of phase times bounded by the run's wall clock.
///
/// begin(slot)/end() pairs must nest like scopes (max depth `MaxDepth`).
/// When disabled every call is a single predictable branch, so the helper
/// can stay compiled into hot loops permanently (sim/phase_profiler.hpp).
template <std::size_t Slots, std::size_t MaxDepth = 8>
class CycleSpanStack {
 public:
  void enable(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void reset() noexcept {
    ticks_.fill(0);
    depth_ = 0;
  }

  void begin(std::size_t slot) noexcept {
    if (!enabled_) return;
    const std::uint64_t t = CycleClock::now();
    if (depth_ > 0) ticks_[stack_[depth_ - 1]] += t - mark_;
    stack_[depth_++] = slot;
    mark_ = t;
  }

  void end() noexcept {
    if (!enabled_) return;
    const std::uint64_t t = CycleClock::now();
    ticks_[stack_[--depth_]] += t - mark_;
    mark_ = t;  // the enclosing span (if any) resumes here
  }

  /// Attribute `delta` ticks to `slot` out of the currently running span's
  /// open segment -- with zero extra clock reads.  For work the caller
  /// already brackets with its own CycleClock reads (the engine times every
  /// placement for scheduler_exec_seconds regardless of profiling), the
  /// measured delta lies provably inside the open segment, so advancing
  /// `mark_` by the same amount subtracts it from the enclosing span
  /// exactly: attribution stays exclusive and the sum stays <= wall.
  void carve(std::size_t slot, std::uint64_t delta) noexcept {
    if (!enabled_) return;
    ticks_[slot] += delta;
    mark_ += delta;
  }

  [[nodiscard]] std::uint64_t ticks(std::size_t slot) const noexcept {
    return ticks_[slot];
  }

 private:
  std::array<std::uint64_t, Slots> ticks_{};
  std::array<std::size_t, MaxDepth> stack_{};
  std::size_t depth_ = 0;
  std::uint64_t mark_ = 0;
  bool enabled_ = false;
};

/// RAII span over a CycleSpanStack: begins `slot` on construction, ends on
/// scope exit -- safe across early returns in the engine's admit path.
template <typename Stack>
class ScopedCycleSpan {
 public:
  ScopedCycleSpan(Stack& stack, std::size_t slot) noexcept : stack_(stack) {
    stack_.begin(slot);
  }
  ~ScopedCycleSpan() { stack_.end(); }
  ScopedCycleSpan(const ScopedCycleSpan&) = delete;
  ScopedCycleSpan& operator=(const ScopedCycleSpan&) = delete;

 private:
  Stack& stack_;
};

}  // namespace risa

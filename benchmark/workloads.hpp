// Benchmark workloads: the paper's §5.1 VM mix streamed at a calibrated
// offered load, so placements run in the low-drop regime the paper studies
// instead of the saturated drop path.
//
// Offered load = (lifetime / gap) / (kVmsPerRack * racks): the mean census
// of live VMs the arrival process asks for, over the census the cluster's
// CPU and RAM can hold.  Every input -- the stream, the cluster shape and
// the fault plan -- is built here from the run's seed.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>

#include "sim/engine.hpp"
#include "sim/fault_plan.hpp"
#include "sim/scenario.hpp"
#include "workload/arrival_source.hpp"

namespace risa::bench {

/// Stationary VM lifetime (no per-100-VM increment), simulated time units.
inline constexpr double kLifetimeTu = 6300.0;
/// CPU/RAM-bound VM census of one Table 1 rack: 256 units of each type per
/// rack over a mean demand of 4.5 units per VM.
inline constexpr double kVmsPerRack = 57.0;

struct WorkloadSpec {
  std::string_view name;
  std::uint32_t racks = 18;
  double load = 1.0;
  std::string_view algorithm;
  std::size_t vms = 0;  ///< per repetition
  bool faults = false;  ///< box + link faults, retries and migration sweeps
};

// Why each workload exists is in BENCHMARK.json and benchmark/README.md.
// A repetition is kept short (well under a second, except for NALB's 22 us
// placements) so one run holds many of them: interference from other
// tenants only ever slows a repetition down, and the fastest of many is the
// steadiest estimate.
inline constexpr std::array<WorkloadSpec, 4> kWorkloads{{
    {"rack18-load100-risa", 18, 1.0, "RISA", 300'000, false},
    {"rack256-load090-risa", 256, 0.9, "RISA", 300'000, false},
    {"rack256-load090-nalb", 256, 0.9, "NALB", 100'000, false},
    {"rack18-load100-faults", 18, 1.0, "RISA", 300'000, true},
}};

/// The workload named `name`, or nullptr.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Mean inter-arrival gap that offers `spec.load` of the cluster's census.
[[nodiscard]] double interarrival_tu(const WorkloadSpec& spec);

/// The scenario of `spec`: Table 1 racks scaled to `spec.racks`, plus the
/// migration plan when `with_faults` is set on the faults workload.
[[nodiscard]] sim::Scenario scenario_of(const WorkloadSpec& spec,
                                        bool with_faults);

/// The arrival stream of `spec`: §5.1 sizes, Poisson arrivals at the
/// calibrated gap, stationary lifetimes.
[[nodiscard]] wl::SyntheticConfig stream_of(const WorkloadSpec& spec);

/// Box faults from compile_mtbf_plan plus link faults at a quarter of the
/// box rate drawn from `seed`, with the workload's retry policy.
[[nodiscard]] sim::FaultPlan fault_plan_of(const WorkloadSpec& spec,
                                           std::uint64_t seed,
                                           std::uint32_t num_boxes,
                                           std::uint32_t num_links);

/// One ready-to-run simulation: engine, arrival source and (on the faults
/// workload) the fault plan the engine points at.  Building it is the
/// benchmark's set-up cost: the engine stack, the source's O(N) RNG
/// pre-advance and the fault plan.  The engine holds a pointer to `plan`,
/// so an Instance never moves.
class Instance {
 public:
  /// `with_faults = false` builds the plan-free twin of a faults workload
  /// (same stream and cluster, no faults, retries or migrations).
  Instance(const WorkloadSpec& spec, std::uint64_t seed, bool with_faults);
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] wl::SyntheticStreamSource& source() noexcept {
    return *source_;
  }
  [[nodiscard]] const sim::Scenario& scenario() const noexcept {
    return engine_->scenario();
  }

 private:
  sim::FaultPlan plan_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<wl::SyntheticStreamSource> source_;
};

}  // namespace risa::bench

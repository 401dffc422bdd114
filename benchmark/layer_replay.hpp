// Outside-in layer replay: the benchmark's own copy of the engine's
// plan-free event loop, built only from public layer APIs, with a
// cycle-clock span around every layer call.
//
// The loop merges the arrival stream against a ladder calendar of
// departures exactly as Engine::run_stream does without a fault plan --
// arrivals win time ties, equal-time departures settle in one
// begin/end_release_batch bracket -- so its placed / dropped / inter-rack
// counts must equal the engine's on the same stream (the replay gate).
// Nothing inside the simulator is instrumented: the spans bracket the
// calls from outside, and the cost of an empty span is measured and
// subtracted from every per-call mean.
//
// The circuits each placement holds are recorded and replayed, in the
// recorded order, as establish/teardown_vm calls on a fresh Fabric and
// CircuitTable (the network replay), each call timed.  Recording is
// flushed in bounded chunks, so memory stays bounded by the chunk, not by
// the stream length.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "sim/scenario.hpp"
#include "workload/arrival_source.hpp"

namespace risa::bench {

/// Timed layer calls.  Each cost is the mean ns per call with the empty
/// span subtracted, NaN when the call never ran.
enum Cost : std::size_t {
  kPullPerVm,        ///< ArrivalSource::next_batch, per VM pulled
  kPush,             ///< LadderCalendar::push
  kPop,              ///< LadderCalendar::next_time + pop, per departure
  kPlaceOk,          ///< Allocator::try_place that placed
  kPlaceFail,        ///< Allocator::try_place that dropped
  kEligibleRacks,    ///< Cluster::eligible_racks (read-only query)
  kChargeVm,         ///< PowerLedger::charge_vm
  kRelease,          ///< Allocator::release_batched
  kEndReleaseBatch,  ///< Cluster::end_release_batch
  kEstablish,        ///< CircuitTable::establish (network replay)
  kTeardown,         ///< CircuitTable::teardown_vm (network replay)
  kNumCosts
};

struct ReplayResult {
  // Outcome counts, compared against Engine::run_stream.
  std::uint64_t total_vms = 0;
  std::uint64_t placed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t inter_rack = 0;  ///< CPU and RAM in different racks
  std::uint64_t fallback = 0;    ///< RISA SUPER_RACK placements

  std::array<double, kNumCosts> ns{};
  double depth_mean = 0.0;   ///< calendar size at each pop
  double hops_mean = 0.0;    ///< link hops per replayed circuit
  double inter_rack_circuit_ratio = 0.0;
  double span_overhead_ns = 0.0;  ///< one empty span, subtracted above
  double wall_s = 0.0;  ///< traced replay wall, network replay excluded

  /// Keeps the faster of each timing (best of several passes).
  void keep_fastest(const ReplayResult& other);
};

/// Replay `source` (rewound first) on a fresh stack for `scenario` and
/// `algorithm`.  When `trace_path` is nonempty, the spans of the first
/// VMs are written there as a Chrome/Perfetto trace.  Throws
/// std::runtime_error when the network replay diverges from the recorded
/// reservations or either stack ends with resources still held.
[[nodiscard]] ReplayResult run_layer_replay(const sim::Scenario& scenario,
                                            const std::string& algorithm,
                                            wl::ArrivalSource& source,
                                            const std::string& trace_path);

}  // namespace risa::bench

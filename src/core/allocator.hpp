// The allocator interface shared by NULB, NALB, RISA and RISA-BF, plus the
// base class implementing the common two-phase commit:
//   compute phase  -- pick one box per resource type (algorithm-specific),
//   network phase  -- reserve the CPU-RAM and RAM-storage circuits.
// Either phase failing drops the VM with no residual state (§4.1: "If
// either the compute allocation or network allocation fails, the VM to be
// assigned is dropped").
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string_view>

#include "common/expected.hpp"
#include "core/placement.hpp"
#include "core/search.hpp"
#include "network/bandwidth.hpp"
#include "network/circuit.hpp"
#include "network/fabric.hpp"
#include "network/routing.hpp"
#include "topology/cluster.hpp"
#include "workload/vm.hpp"

namespace risa::core {

/// Shared mutable state every allocator operates on.  The context outlives
/// the allocator; references are non-owning.
struct AllocContext {
  topo::Cluster* cluster = nullptr;
  net::Fabric* fabric = nullptr;
  net::Router* router = nullptr;
  net::CircuitTable* circuits = nullptr;
  net::BandwidthModel bandwidth{};

  void validate() const {
    if (cluster == nullptr || fabric == nullptr || router == nullptr ||
        circuits == nullptr) {
      throw std::invalid_argument("AllocContext: null component");
    }
  }
};

class Allocator {
 public:
  explicit Allocator(AllocContext ctx) : ctx_(ctx) {
    ctx_.validate();
    units_ = UnitConverter(ctx_.cluster->config().unit_scale);
  }
  virtual ~Allocator() = default;

  Allocator(const Allocator&) = delete;
  Allocator& operator=(const Allocator&) = delete;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Attempt to place `vm`, writing the record into `out` in place.  On
  /// success (nullopt) all compute units and circuit bandwidth are
  /// reserved and every field of `out` is overwritten, so a reused record
  /// reads exactly like a fresh one; on failure the cluster and fabric are
  /// untouched, `out` is unspecified, and the reason is returned.
  [[nodiscard]] virtual std::optional<DropReason> place(
      const wl::VmRequest& vm, Placement& out) = 0;

  /// place() into a fresh record, for tests and one-off callers.
  [[nodiscard]] Result<Placement, DropReason> try_place(
      const wl::VmRequest& vm) {
    Placement placement;
    if (const auto reason = place(vm, placement)) return Err{*reason};
    return placement;
  }

  /// Release a placement made by this allocator family: tears down the
  /// VM's circuits and returns compute units.  No allocator keeps
  /// per-placement state, so one teardown serves them all; the engine
  /// releases through release_batched instead.
  void release(const Placement& placement);

  /// The base teardown inside a Cluster::begin/end_release_batch bracket
  /// (Cluster::release_batched): the engine brackets same-timestamp
  /// departure runs with begin/end; no placement may run in between.
  void release_batched(const Placement& placement);

  /// Restore all per-run state (round-robin cursors, packing cursors,
  /// seeded RNG streams, counters) to the just-constructed values so a
  /// reused allocator behaves bit-for-bit like a fresh one.  The shared
  /// context (cluster/fabric/circuits) is reset separately by its owner.
  virtual void reset() {}

  /// Serialize/restore the same per-run state reset() clears, for engine
  /// checkpointing.  Stateless allocators (NULB, NALB, the first/worst-fit
  /// baselines) inherit these no-ops; stateful ones (RISA's round-robin +
  /// packing cursors, RANDOM's RNG stream) must override both so a restored
  /// run continues bit-for-bit.  The format is private to each allocator.
  virtual void save_state(std::ostream&) const {}
  virtual void restore_state(std::istream&) {}

 protected:
  /// Commits boxes + circuits into `out` (the place() contract).
  /// `policy` is the link-selection policy of the network phase.  Rolls
  /// everything back on failure.
  [[nodiscard]] std::optional<DropReason> commit(
      const wl::VmRequest& vm, const UnitVector& units,
      const PerResource<BoxId>& boxes, net::LinkSelectPolicy policy,
      bool used_fallback, Placement& out);

  [[nodiscard]] AllocContext& ctx() noexcept { return ctx_; }
  [[nodiscard]] const AllocContext& ctx() const noexcept { return ctx_; }

  /// Units-of-demand conversion via the cluster's unit scale (precomputed:
  /// power-of-two granularities divide by shifting -- bit-identical to
  /// vm.units(scale), minus three 64-bit divides per attempt).
  [[nodiscard]] UnitVector demand_units(const wl::VmRequest& vm) const {
    return UnitVector{units_.to_units(ResourceType::Cpu, vm.cores),
                      units_.to_units(ResourceType::Ram, vm.ram_mb),
                      units_.to_units(ResourceType::Storage, vm.storage_mb)};
  }

 private:
  AllocContext ctx_;
  UnitConverter units_;
};

}  // namespace risa::core

// Circuits: live bandwidth reservations belonging to a placed VM.
//
// Each placed VM holds two circuits (Figure 2): CPU<->RAM and RAM<->storage.
// CircuitTable owns their life cycle: establish reserves bandwidth along the
// path; teardown releases every hop.  The table is the source of truth for
// "which optical resources does VM x hold", which the photonic power model
// and the departure path of the simulator both consume.
//
// Storage is a SlotArena (common/slot_arena.hpp) keyed by VM id, the same
// container as the engine's per-VM records.  The engine renumbers every
// arrival so its VmId is its workload index (DESIGN.md §7.2): keys are
// dense and unique per VM, which is what the arena's paged directory is
// built for.  Establish/teardown churn recycles slab slots and directory
// pages, so once the slab has grown to the run's peak live-VM count the
// timed scheduler section (place -> commit -> establish) allocates
// only when the key window crosses into a directory page never seen
// before (one root-vector cell per 4096 keys).
#pragma once

#include <cstdint>
#include <string_view>

#include "common/expected.hpp"
#include "common/slot_arena.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "network/path.hpp"
#include "network/routing.hpp"

namespace risa::net {

/// Which resource pair a circuit connects.
enum class FlowKind : std::uint8_t { CpuRam = 0, RamStorage = 1 };

[[nodiscard]] constexpr std::string_view name(FlowKind f) noexcept {
  switch (f) {
    case FlowKind::CpuRam: return "cpu-ram";
    case FlowKind::RamStorage: return "ram-sto";
  }
  return "?";
}

struct Circuit {
  MbitsPerSec bandwidth = 0;
  CircuitId id;
  VmId vm;
  CircuitPath path;
  FlowKind flow = FlowKind::CpuRam;
};

// Two circuits per live VM sit inline in the table's arena slot (DESIGN.md
// §7.2); the link-only path keeps each at 48 bytes.
static_assert(sizeof(Circuit) <= 48);

class CircuitTable {
 public:
  explicit CircuitTable(Router& router) : router_(&router) {}

  /// Reserve bandwidth along `path` and record the circuit under a fresh
  /// id.  The VM's entry is touched only once every hop is reserved, so on
  /// failure the fabric, the table and the id counter are unchanged and
  /// the error is a static description (no text is built).
  [[nodiscard]] Result<CircuitId, const char*> establish(
      VmId vm, FlowKind flow, MbitsPerSec bw, const CircuitPath& path);

  /// Route a `bw` circuit from `src` to `dst` under `policy` into a path on
  /// the stack and establish it: the placement path's one call per flow.
  /// Returns false, with the fabric and the table unchanged, when a hop
  /// lacks the bandwidth.
  [[nodiscard]] bool connect(VmId vm, FlowKind flow, MbitsPerSec bw, BoxId src,
                             RackId src_rack, BoxId dst, RackId dst_rack,
                             LinkSelectPolicy policy);

  /// Re-establish a checkpointed circuit verbatim: reserve bandwidth along
  /// its recorded path and append it under its recorded id WITHOUT drawing
  /// a fresh id from next_id_.  Circuits must be adopted in their original
  /// establishment order (per VM) so for_each_circuit_of replays
  /// identically; the caller restores next_id_ afterwards via set_next_id.
  /// Throws std::runtime_error if the reservation fails (a checkpoint
  /// restored against a mismatched fabric).
  void adopt(Circuit circuit);

  /// Restore the id counter saved alongside adopted circuits.
  void set_next_id(std::uint32_t next_id) noexcept { next_id_ = next_id; }
  [[nodiscard]] std::uint32_t next_id() const noexcept { return next_id_; }

  /// Tear down every circuit of `vm`, releasing bandwidth.  Returns the
  /// number of circuits removed (0 when the VM holds none).
  std::size_t teardown_vm(VmId vm);

  /// Tear down the first `k` circuits of `vm` in establishment order,
  /// releasing their bandwidth; later circuits keep their order.  The
  /// migration commit path: a re-placed VM briefly holds old + new
  /// circuits, and the old ones are exactly the prefix.  Returns the
  /// number removed (clamped to what the VM holds).
  std::size_t teardown_prefix(VmId vm, std::uint32_t k);

  /// Tear down every circuit of `vm` AFTER the first `keep`, releasing
  /// their bandwidth -- the migration rollback path (drop the freshly
  /// established circuits, keep the original placement's).  Returns the
  /// number removed.
  std::size_t teardown_suffix(VmId vm, std::uint32_t keep);

  [[nodiscard]] std::size_t active_count() const noexcept { return active_; }

  /// Drop every record and restart circuit-id numbering WITHOUT releasing
  /// bandwidth -- only valid after the fabric itself has been reset (the
  /// engine-reuse path).  The arena's slab is retained.
  void clear() {
    by_vm_.clear();
    active_ = 0;
    next_id_ = 0;
  }

  /// Invoke `fn(const Circuit&)` for each circuit `vm` holds, in
  /// establishment order, without allocating.  The engine's placement path
  /// and the power ledger consume circuits through this.
  template <typename Fn>
  void for_each_circuit_of(VmId vm, Fn&& fn) const {
    const VmCircuits* vc = by_vm_.find(vm.value());
    if (vc == nullptr) return;
    for (const Circuit& c : *vc) fn(c);
  }

  /// Number of circuits `vm` currently holds (0 when none) -- O(1) probe,
  /// used by allocator rollback, migration and the checkpoint writer.
  [[nodiscard]] std::size_t circuit_count_of(VmId vm) const {
    const VmCircuits* vc = by_vm_.find(vm.value());
    return vc == nullptr ? 0 : vc->size();
  }

  /// Bytes of one VM's slot in the table's arena, its header included
  /// (DESIGN.md §13).
  [[nodiscard]] static constexpr std::size_t slot_bytes() noexcept {
    return SlotArena<VmCircuits>::slot_bytes();
  }

 private:
  /// A VM holds two circuits (CPU-RAM, RAM-storage) in every current
  /// scenario, stored inline in the single VM-keyed arena slot so the
  /// placement path costs one probe, not three.  A migration's brief
  /// old-plus-new window holds up to four; the extra ones spill to the
  /// heap.
  using VmCircuits = SmallVec<Circuit, 2>;

  /// Keep the first `count` of `vm`'s circuits (the rest already
  /// released), dropping the VM's entry when none remain.
  void truncate(VmId vm, VmCircuits& vc, std::size_t count);

  Router* router_;
  SlotArena<VmCircuits> by_vm_;  // by vm id
  std::size_t active_ = 0;
  std::uint32_t next_id_ = 0;
};

}  // namespace risa::net

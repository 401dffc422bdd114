// A box: the unit of resource pooling in the dReDBox-style architecture.
// Each box holds a single resource type, subdivided into bricks (§3.1).
// Allocation is unit-granular, first-fit across bricks; the brick breakdown
// is recorded so releases restore exactly the bricks that were taken.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

namespace risa::topo {

/// Units taken from one brick of a box (local brick index within the box).
/// Eight bytes: ClusterConfig::validate caps a box at UINT32_MAX units, so
/// a slice's unit count is exact in a u32.
struct BrickSlice {
  std::uint32_t brick = 0;
  std::uint32_t units = 0;

  friend bool operator==(const BrickSlice&, const BrickSlice&) = default;
};

/// Record of one allocation inside one box; the handle needed to release.
/// The resource type is its box's (Box::type), so it is not stored; the
/// unit count is exact in a u32 for the same reason a slice's is.
struct BoxAllocation {
  /// Slices held inline.  Sized from the measured slice-count histogram:
  /// on the 256-rack RISA benchmark 86% of allocations take one brick,
  /// 13.6% two and 0.18% three or more, so two inline slices cover 99.8%
  /// and the rest (fragmented boxes) spill to the heap transparently.
  static constexpr std::size_t kInlineSlices = 2;

  BoxId box;
  std::uint32_t units = 0;
  SmallVec<BrickSlice, kInlineSlices> slices;

  [[nodiscard]] bool empty() const noexcept { return units == 0; }
};

static_assert(sizeof(BrickSlice) == 8);
static_assert(sizeof(SmallVec<BrickSlice, BoxAllocation::kInlineSlices>) == 24);
static_assert(sizeof(BoxAllocation) <= 32);

class Box {
 public:
  /// `brick_units` lists the capacity of each brick (the builder distributes
  /// the box's units across bricks as evenly as possible); the box keeps
  /// its own copy.
  Box(BoxId id, RackId rack, ResourceType type, std::uint32_t index_in_type,
      std::span<const Units> brick_units);

  [[nodiscard]] BoxId id() const noexcept { return id_; }
  [[nodiscard]] RackId rack() const noexcept { return rack_; }
  [[nodiscard]] ResourceType type() const noexcept { return type_; }

  /// Dense index of this box among boxes of the same type, cluster-wide,
  /// ordered by (rack, local position) -- the paper's per-type "id" column
  /// in Table 3 and the NULB/NALB first-fit search order.
  [[nodiscard]] std::uint32_t index_in_type() const noexcept { return index_in_type_; }

  [[nodiscard]] Units capacity_units() const noexcept { return capacity_; }
  [[nodiscard]] Units allocated_units() const noexcept { return allocated_; }

  /// Units available for new allocations: zero while the box is offline
  /// (failure injection), capacity - allocated otherwise.
  [[nodiscard]] Units available_units() const noexcept {
    return offline_ ? 0 : capacity_ - allocated_;
  }

  /// Free units ignoring the offline flag (bookkeeping/invariants).
  [[nodiscard]] Units raw_available_units() const noexcept {
    return capacity_ - allocated_;
  }

  /// Failure injection: an offline box accepts no new allocations; existing
  /// allocations remain recorded and can still be released (the simulator
  /// decides the fate of resident VMs).
  void set_offline(bool offline) noexcept { offline_ = offline; }
  [[nodiscard]] bool offline() const noexcept { return offline_; }
  [[nodiscard]] double utilization() const noexcept {
    return capacity_ > 0
               ? static_cast<double>(allocated_) / static_cast<double>(capacity_)
               : 0.0;
  }

  [[nodiscard]] std::size_t brick_count() const noexcept { return brick_capacity_.size(); }
  [[nodiscard]] Units brick_capacity(std::uint32_t brick) const;
  [[nodiscard]] Units brick_available(std::uint32_t brick) const;

  /// First-fit allocation of `units` across bricks: writes the record
  /// into `out` (clearing it first) and returns false -- without touching
  /// `out` or the box -- when the box cannot host `units` (a non-positive
  /// count, more than available_units(), or an offline box).  The walk
  /// starts at first_free_brick(), below which no brick has room.
  [[nodiscard]] bool allocate_into(Units units, BoxAllocation& out);

  /// Lower bound of the first brick with free units: every brick below it
  /// is full.  Derived state -- allocate_into raises it past the bricks it
  /// fills, release lowers it to the lowest brick it frees, restore_bricks
  /// and reset zero it -- so checkpoints do not carry it, and
  /// Cluster::check_invariants verifies it.
  [[nodiscard]] std::uint32_t first_free_brick() const noexcept {
    return first_free_;
  }

  /// Returns the previously allocated slices.  Throws std::logic_error on a
  /// foreign or double release (these are always caller bugs).
  void release(const BoxAllocation& allocation);

  /// Test/bench hook: snapshot of per-brick availability.
  [[nodiscard]] std::vector<Units> available_by_brick() const;

  /// Overwrite the per-brick occupancy in place from a snapshot of
  /// AVAILABLE units per brick (Cluster::restore, engine checkpoints).
  /// Unlike replaying first-fit allocate_into() calls, this reproduces hole
  /// patterns exactly: a brick sequence like [4 free, 0 free] restores as
  /// recorded instead of first-fit compacting the occupancy into brick 0.
  /// The offline flag is untouched.  Throws std::invalid_argument on a
  /// shape or range mismatch.
  void restore_bricks(const std::vector<Units>& available);

  /// Restore the pristine state (all bricks free, online) in place -- the
  /// engine-reuse path; no storage is reallocated.
  void reset() noexcept {
    for (Units& a : brick_allocated_) a = 0;
    allocated_ = 0;
    first_free_ = 0;
    offline_ = false;
  }

 private:
  /// Give back the first `n` slices a failed release() already applied.
  [[gnu::cold]] void undo_release(const BrickSlice* slices,
                                  std::size_t n) noexcept;

  BoxId id_;
  RackId rack_;
  ResourceType type_;
  std::uint32_t index_in_type_;
  /// Brick ledgers live inline (the paper's box has 8 bricks), so the
  /// per-placement brick walk stays within the Box object instead of
  /// chasing two heap arrays.
  SmallVec<Units, 8> brick_capacity_;
  SmallVec<Units, 8> brick_allocated_;
  Units capacity_ = 0;
  Units allocated_ = 0;
  std::uint32_t first_free_ = 0;
  bool offline_ = false;
};

}  // namespace risa::topo

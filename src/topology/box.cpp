#include "topology/box.hpp"

#include <numeric>
#include <stdexcept>

#include "topology/config.hpp"

namespace risa::topo {

Box::Box(BoxId id, RackId rack, ResourceType type, std::uint32_t index_in_type,
         std::span<const Units> brick_units)
    : id_(id), rack_(rack), type_(type), index_in_type_(index_in_type) {
  if (brick_units.empty()) {
    throw std::invalid_argument("Box: no bricks");
  }
  for (Units u : brick_units) {
    if (u < 0) throw std::invalid_argument("Box: negative brick capacity");
    // Allocations and slices record units as u32 (BoxAllocation,
    // BrickSlice); ClusterConfig::validate bounds whole boxes, this guards
    // directly built ones.
    if (u > ClusterConfig::kMaxBoxUnits - capacity_) {
      throw std::invalid_argument("Box: capacity exceeds u32 units");
    }
    brick_capacity_.push_back(u);
    brick_allocated_.push_back(0);
    capacity_ += u;
  }
}

Units Box::brick_capacity(std::uint32_t brick) const {
  if (brick >= brick_capacity_.size()) throw std::out_of_range("Box: bad brick");
  return brick_capacity_[brick];
}

Units Box::brick_available(std::uint32_t brick) const {
  if (brick >= brick_capacity_.size()) throw std::out_of_range("Box: bad brick");
  return brick_capacity_[brick] - brick_allocated_[brick];
}

bool Box::allocate_into(Units units, BoxAllocation& out) {
  if (units <= 0 || units > available_units()) return false;
  out.box = id_;
  // available_units() <= capacity_ <= ClusterConfig::kMaxBoxUnits.
  out.units = static_cast<std::uint32_t>(units);
  out.slices.clear();
  const Units* capacity = brick_capacity_.data();
  Units* allocated = brick_allocated_.data();
  const auto bricks = static_cast<std::uint32_t>(brick_capacity_.size());
  Units remaining = units;
  // The bricks below first_free_ are full, so a walk from brick 0 would
  // skip them: the slices come out the same.
  for (std::uint32_t b = first_free_; b < bricks; ++b) {
    const Units free = capacity[b] - allocated[b];
    if (free <= 0) continue;
    const Units take = free < remaining ? free : remaining;
    allocated[b] += take;
    out.slices.push_back(BrickSlice{b, static_cast<std::uint32_t>(take)});
    remaining -= take;
    if (remaining == 0) {
      // Every brick before b is now full; b is too when the take drained it.
      first_free_ = take == free ? b + 1 : b;
      break;
    }
  }
  // available_units() was checked above, so the loop must have satisfied
  // the request; anything else is a bookkeeping bug.
  if (remaining != 0) {
    throw std::logic_error("Box::allocate_into: brick accounting out of sync");
  }
  allocated_ += units;
  return true;
}

void Box::release(const BoxAllocation& allocation) {
  if (allocation.box != id_) {
    throw std::logic_error("Box::release: allocation belongs to another box");
  }
  // One pass checks each slice against the ledger as already updated by
  // the slices before it (so a brick named twice is checked against what
  // is left of it) and applies it; a bad slice undoes the applied prefix
  // before throwing, leaving the box as it was.
  const BrickSlice* const slices = allocation.slices.data();
  const std::size_t n = allocation.slices.size();
  const auto bricks = static_cast<std::uint32_t>(brick_capacity_.size());
  Units* allocated = brick_allocated_.data();
  std::uint32_t lowest = first_free_;
  Units total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const BrickSlice& s = slices[i];
    const char* fault = nullptr;
    if (s.brick >= bricks) {
      fault = "Box::release: bad brick index";
    } else if (s.units == 0 || Units{s.units} > allocated[s.brick]) {
      fault = "Box::release: slice exceeds allocated units";
    }
    if (fault != nullptr) {
      undo_release(slices, i);
      throw std::logic_error(fault);
    }
    allocated[s.brick] -= s.units;
    total += s.units;
    if (s.brick < lowest) lowest = s.brick;
  }
  if (total != allocation.units) {
    undo_release(slices, n);
    throw std::logic_error("Box::release: slice sum != allocation units");
  }
  first_free_ = lowest;
  allocated_ -= total;
}

void Box::undo_release(const BrickSlice* slices, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    brick_allocated_[slices[i].brick] += slices[i].units;
  }
}

void Box::restore_bricks(const std::vector<Units>& available) {
  if (available.size() != brick_capacity_.size()) {
    throw std::invalid_argument("Box::restore_bricks: brick count mismatch");
  }
  for (std::size_t b = 0; b < available.size(); ++b) {
    if (available[b] < 0 || available[b] > brick_capacity_[b]) {
      throw std::invalid_argument("Box::restore_bricks: bad availability");
    }
  }
  allocated_ = 0;
  first_free_ = 0;
  for (std::size_t b = 0; b < available.size(); ++b) {
    brick_allocated_[b] = brick_capacity_[b] - available[b];
    allocated_ += brick_allocated_[b];
  }
}

std::vector<Units> Box::available_by_brick() const {
  std::vector<Units> out(brick_capacity_.size());
  for (std::size_t b = 0; b < out.size(); ++b) {
    out[b] = brick_capacity_[b] - brick_allocated_[b];
  }
  return out;
}

}  // namespace risa::topo

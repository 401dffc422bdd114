// A point-to-point optical link (one SiP mid-board module per endpoint,
// 8 x 25 Gb/s = 200 Gb/s, §3.1).  Links carry circuit bandwidth reservations;
// allocation never oversubscribes.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/types.hpp"
#include "common/units.hpp"

namespace risa::net {

enum class LinkKind : std::uint8_t {
  BoxUplink = 0,   ///< box switch <-> rack switch (intra-rack tier)
  RackUplink = 1,  ///< rack switch <-> pod or inter-rack switch (inter tier)
  PodUplink = 2,   ///< pod switch <-> inter-rack switch (three-tier only)
};

[[nodiscard]] constexpr std::string_view name(LinkKind k) noexcept {
  switch (k) {
    case LinkKind::BoxUplink: return "box-uplink";
    case LinkKind::RackUplink: return "rack-uplink";
    case LinkKind::PodUplink: return "pod-uplink";
  }
  return "?";
}

class Link {
 public:
  Link(LinkId id, LinkKind kind, SwitchId a, SwitchId b, RackId rack,
       BoxId box, MbitsPerSec capacity)
      : capacity_(capacity), id_(id), a_(a), b_(b), rack_(rack), box_(box),
        kind_(kind) {}

  [[nodiscard]] LinkId id() const noexcept { return id_; }
  [[nodiscard]] LinkKind kind() const noexcept { return kind_; }
  [[nodiscard]] SwitchId endpoint_a() const noexcept { return a_; }
  [[nodiscard]] SwitchId endpoint_b() const noexcept { return b_; }
  /// Rack this link belongs to (for box uplinks: the box's rack; for rack
  /// uplinks: the rack whose switch it connects to the core).
  [[nodiscard]] RackId rack() const noexcept { return rack_; }
  /// Box for box uplinks; invalid for rack uplinks.
  [[nodiscard]] BoxId box() const noexcept { return box_; }

  [[nodiscard]] MbitsPerSec capacity() const noexcept { return capacity_; }
  [[nodiscard]] MbitsPerSec allocated() const noexcept { return allocated_; }

  /// Free bandwidth for new circuits: zero while failed.
  [[nodiscard]] MbitsPerSec available() const noexcept {
    return failed_ ? 0 : capacity_ - allocated_;
  }

  /// Free bandwidth ignoring the failure flag (bookkeeping/invariants).
  [[nodiscard]] MbitsPerSec raw_available() const noexcept {
    return capacity_ - allocated_;
  }

  /// Failure injection: a failed link admits no new circuits; existing
  /// reservations stay recorded and can still be released (the caller
  /// decides the fate of circuits that were using the link).
  void set_failed(bool failed) noexcept { failed_ = failed; }
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  [[nodiscard]] double utilization() const noexcept {
    return capacity_ > 0
               ? static_cast<double>(allocated_) / static_cast<double>(capacity_)
               : 0.0;
  }

  /// Reserve bandwidth; returns false without side effects when `bw` is
  /// not positive or exceeds available().
  [[nodiscard]] bool allocate(MbitsPerSec bw) noexcept {
    if (bw <= 0 || bw > available()) return false;
    allocated_ += bw;
    return true;
  }

  /// Return bandwidth; throws std::logic_error on over-release (caller bug).
  void release(MbitsPerSec bw);

  /// Restore the pristine state (no reservations, not failed) in place.
  void reset() noexcept {
    allocated_ = 0;
    failed_ = false;
  }

 private:
  // Widest first, so the two one-byte fields share the tail word: a fabric
  // build writes every link once, and 40 bytes a link is 8 fewer to store.
  MbitsPerSec capacity_;
  MbitsPerSec allocated_ = 0;
  LinkId id_;
  SwitchId a_;
  SwitchId b_;
  RackId rack_;
  BoxId box_;
  LinkKind kind_;
  bool failed_ = false;
};

static_assert(sizeof(Link) == 40, "Link has picked up padding");

}  // namespace risa::net

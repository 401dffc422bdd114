// A circuit path through the two-tier fabric.
//
// Intra-rack:  src box switch -> rack switch -> dst box switch
//              (2 link hops: src box uplink + dst box uplink)
// Inter-rack:  src box switch -> rack A switch -> inter-rack switch ->
//              rack B switch -> dst box switch
//              (4 link hops: 2 box uplinks + 2 rack uplinks)
// These match the "communication journey" narrated for Figure 2.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "common/types.hpp"

namespace risa::net {

struct CircuitPath {
  /// The deepest route the router can build (three-tier cross-pod: 6 link
  /// hops through 7 switches).  The hops live in a fixed inline array with
  /// a u8 count, so a path is 28 bytes with no heap storage.  The switches
  /// are not stored: consecutive hops share one, so Fabric::path_switches
  /// derives them from the links (DESIGN.md §7.2).
  static constexpr std::size_t kMaxLinks = 6;
  static constexpr std::size_t kMaxSwitches = kMaxLinks + 1;

  /// Link hops, source to destination order.
  [[nodiscard]] std::span<const LinkId> links() const noexcept {
    return {links_.data(), n_links_};
  }
  [[nodiscard]] std::size_t hop_count() const noexcept { return n_links_; }

  /// Append a hop; throws std::length_error past the fixed capacity.
  void push_link(LinkId l) {
    if (n_links_ == kMaxLinks) {
      throw std::length_error("CircuitPath: too many links");
    }
    links_[n_links_++] = l;
  }

 private:
  std::array<LinkId, kMaxLinks> links_{};
  std::uint8_t n_links_ = 0;

 public:
  bool inter_rack = false;
};

static_assert(sizeof(CircuitPath) <= 28);

/// The switches of one path, source to destination (Fabric::path_switches).
class SwitchList {
 public:
  void push_back(SwitchId s) noexcept { ids_[n_++] = s; }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] const SwitchId* begin() const noexcept { return ids_.data(); }
  [[nodiscard]] const SwitchId* end() const noexcept { return ids_.data() + n_; }
  [[nodiscard]] SwitchId operator[](std::size_t i) const noexcept {
    return ids_[i];
  }

 private:
  std::array<SwitchId, CircuitPath::kMaxSwitches> ids_;
  std::uint8_t n_ = 0;
};

}  // namespace risa::net

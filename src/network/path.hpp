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
  /// hops through 7 switches).  The hops live in fixed inline arrays with
  /// u8 counts, so a path is 56 bytes with no heap storage (DESIGN.md §7.2).
  static constexpr std::size_t kMaxLinks = 6;
  static constexpr std::size_t kMaxSwitches = 7;

  /// Link hops, source to destination order.
  [[nodiscard]] std::span<const LinkId> links() const noexcept {
    return {links_.data(), n_links_};
  }
  /// Switches traversed, in order.
  [[nodiscard]] std::span<const SwitchId> switches() const noexcept {
    return {switches_.data(), n_switches_};
  }
  [[nodiscard]] std::size_t hop_count() const noexcept { return n_links_; }

  /// Append a hop; throws std::length_error past the fixed capacity.
  void push_link(LinkId l) {
    if (n_links_ == kMaxLinks) {
      throw std::length_error("CircuitPath: too many links");
    }
    links_[n_links_++] = l;
  }
  void push_switch(SwitchId s) {
    if (n_switches_ == kMaxSwitches) {
      throw std::length_error("CircuitPath: too many switches");
    }
    switches_[n_switches_++] = s;
  }

 private:
  std::array<LinkId, kMaxLinks> links_{};
  std::array<SwitchId, kMaxSwitches> switches_{};
  std::uint8_t n_links_ = 0;
  std::uint8_t n_switches_ = 0;

 public:
  bool inter_rack = false;
};

static_assert(sizeof(CircuitPath) <= 56);

}  // namespace risa::net

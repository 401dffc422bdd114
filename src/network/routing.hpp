// Path construction + link selection policies.
//
// NULB "selects the first available link to establish the connection
// between each pair of resources"; NALB "chooses links with the most
// available bandwidth" (§4.1).  Both are expressed as a LinkSelectPolicy
// over each parallel-link group along the deterministic two-tier route.
//
// Refusals are ordinary outcomes on the placement path, so they come back
// as `false` or an invalid LinkId: no error text is built unless a caller
// turns one into an exception (CircuitTable::adopt).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "common/types.hpp"
#include "common/units.hpp"
#include "network/fabric.hpp"
#include "network/path.hpp"

namespace risa::net {

enum class LinkSelectPolicy : std::uint8_t {
  FirstFit = 0,       ///< first link with enough free capacity (NULB, RISA)
  MostAvailable = 1,  ///< link with the largest free capacity (NALB)
};

[[nodiscard]] constexpr std::string_view name(LinkSelectPolicy p) noexcept {
  switch (p) {
    case LinkSelectPolicy::FirstFit: return "first-fit";
    case LinkSelectPolicy::MostAvailable: return "most-available";
  }
  return "?";
}

class Router {
 public:
  explicit Router(Fabric& fabric) : fabric_(&fabric) {}

  /// Choose one link from a parallel group -- one of the fabric's uplink
  /// groups or a subspan of it -- with at least `bw` free;
  /// LinkId::invalid() when none has (or the group is empty).
  [[nodiscard]] LinkId select_link(std::span<const LinkId> group,
                                   MbitsPerSec bw,
                                   LinkSelectPolicy policy) const noexcept;

  /// Build (but do not reserve) a path from `src` box to `dst` box able to
  /// carry `bw`, overwriting `out`.  Returns false, leaving `out`
  /// untouched, when a hop has no such link or the boxes are identical (in
  /// this architecture every box holds a single resource type, so any
  /// resource pair crosses the rack switch).
  [[nodiscard]] bool find_path(BoxId src, RackId src_rack, BoxId dst,
                               RackId dst_rack, MbitsPerSec bw,
                               LinkSelectPolicy policy, CircuitPath& out) const;

  /// Reserve bandwidth on every hop of `path`; rolls back on partial
  /// failure, so the fabric is unchanged when it returns false.
  [[nodiscard]] bool reserve(const CircuitPath& path, MbitsPerSec bw);

  /// Return bandwidth on every hop.
  void release(const CircuitPath& path, MbitsPerSec bw);

 private:
  /// MostAvailable over a group, given the group's first most-available
  /// link (Fabric::most_available, or the fabric's cached best_box_uplink /
  /// best_rack_uplink).
  [[nodiscard]] LinkId select_cached(LinkId most_available,
                                     MbitsPerSec bw) const noexcept;

  Fabric* fabric_;
};

}  // namespace risa::net

// Path construction + link selection policies.
//
// NULB "selects the first available link to establish the connection
// between each pair of resources"; NALB "chooses links with the most
// available bandwidth" (§4.1).  Both are expressed as a LinkSelectPolicy
// over each parallel-link group along the deterministic two-tier route.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/expected.hpp"
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

  /// Choose one link from a parallel group with at least `bw` free.
  [[nodiscard]] Result<LinkId, std::string> select_link(
      std::span<const LinkId> group, MbitsPerSec bw,
      LinkSelectPolicy policy) const;

  /// Build (but do not reserve) a path from `src` box to `dst` box able to
  /// carry `bw`.  Boxes must differ: in this architecture every box holds a
  /// single resource type, so any resource pair crosses the rack switch.
  [[nodiscard]] Result<CircuitPath, std::string> find_path(
      BoxId src, RackId src_rack, BoxId dst, RackId dst_rack, MbitsPerSec bw,
      LinkSelectPolicy policy) const;

  /// Reserve bandwidth on every hop of `path`; rolls back on partial
  /// failure so the fabric is unchanged when the result is an error.
  [[nodiscard]] Result<bool, std::string> reserve(const CircuitPath& path,
                                                  MbitsPerSec bw);

  /// Return bandwidth on every hop.
  void release(const CircuitPath& path, MbitsPerSec bw);

  /// Total free bandwidth across a parallel-link group.
  [[nodiscard]] MbitsPerSec group_available(std::span<const LinkId> group) const;

  /// Largest single-link free bandwidth in a group.
  [[nodiscard]] MbitsPerSec group_max_available(std::span<const LinkId> group) const;

 private:
  /// MostAvailable over a box or rack group, given the group's best link
  /// as the fabric maintains it (Fabric::best_box_uplink / best_rack_uplink).
  [[nodiscard]] Result<LinkId, std::string> select_cached(
      LinkId most_available, MbitsPerSec bw) const;

  Fabric* fabric_;
};

}  // namespace risa::net

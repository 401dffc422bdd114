// Exact division by a divisor fixed at run time, without a divide
// instruction.
//
// A 64-bit `idiv` costs tens of cycles; the fabric divides by its channel
// rate on every change of a rack's best uplink (network/fabric.hpp).  The
// reciprocal m = floor((2^64 - 1) / d) is computed once.  For n < 2^63,
// n * m / 2^64 lies in (n / d - 1, n / d]: m exceeds (2^64 - 1) / d - 1,
// so n * m / 2^64 > n / d - 2n / 2^64 > n / d - 1.  Its integer part,
// one 64x64 -> 128-bit multiply-high, is therefore floor(n / d) or one
// less, and one compare of the remainder against d settles which.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>

namespace risa {

class Divisor {
 public:
  /// `d` must be at least 1.
  explicit Divisor(std::uint64_t d = 1) noexcept
      : d_(d), reciprocal_(std::numeric_limits<std::uint64_t>::max() / d) {
    assert(d >= 1);
  }

  [[nodiscard]] std::uint64_t divisor() const noexcept { return d_; }

  /// floor(n / divisor()), for n < 2^63.
  [[nodiscard]] std::uint64_t quotient(std::uint64_t n) const noexcept {
    assert(n < (std::uint64_t{1} << 63));
    __extension__ using U128 = unsigned __int128;
    std::uint64_t q =
        static_cast<std::uint64_t>((static_cast<U128>(n) * reciprocal_) >> 64);
    if (n - q * d_ >= d_) ++q;
    return q;
  }

 private:
  std::uint64_t d_;
  std::uint64_t reciprocal_;
};

}  // namespace risa

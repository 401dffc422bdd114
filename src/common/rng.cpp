#include "common/rng.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace risa {

namespace {

/// A polynomial over GF(2) of degree < 256, in Xoshiro256::kCharPoly's
/// layout (bit i of the 256 is the coefficient of x^i).
using Poly = std::array<std::uint64_t, 4>;

/// q * x mod P: a one-bit shift, folding the x^256 carry back in as
/// P's low terms.
void times_x(Poly& q) noexcept {
  const std::uint64_t carry = 0 - (q[3] >> 63);
  q[3] = (q[3] << 1) | (q[2] >> 63);
  q[2] = (q[2] << 1) | (q[1] >> 63);
  q[1] = (q[1] << 1) | (q[0] >> 63);
  q[0] <<= 1;
  for (std::size_t i = 0; i < 4; ++i) q[i] ^= Xoshiro256::kCharPoly[i] & carry;
}

/// The 32 bits of v moved to the even bit positions of a word: squaring
/// over GF(2) has no cross terms, so it only spreads the coefficients.
std::uint64_t spread(std::uint64_t v) noexcept {
  v &= 0xFFFFFFFFULL;
  v = (v | (v << 16)) & 0x0000FFFF0000FFFFULL;
  v = (v | (v << 8)) & 0x00FF00FF00FF00FFULL;
  v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0FULL;
  v = (v | (v << 2)) & 0x3333333333333333ULL;
  v = (v | (v << 1)) & 0x5555555555555555ULL;
  return v;
}

/// q^2 mod P.  Each set coefficient x^(256+s) of the square, from the top
/// down, is replaced by x^s times P's low terms (degree 241, so the fold
/// never reaches a bit it has yet to visit).
void square(Poly& q) noexcept {
  std::array<std::uint64_t, 8> w{};
  for (std::size_t i = 0; i < 4; ++i) {
    w[2 * i] = spread(q[i]);
    w[2 * i + 1] = spread(q[i] >> 32);
  }
  for (std::size_t bit = 511; bit >= 256; --bit) {
    const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
    if ((w[bit / 64] & mask) == 0) continue;
    w[bit / 64] ^= mask;
    const std::size_t shift = bit - 256;
    const std::size_t words = shift / 64;
    const std::size_t bits = shift % 64;
    for (std::size_t i = 0; i < 4; ++i) {
      const std::uint64_t p = Xoshiro256::kCharPoly[i];
      w[i + words] ^= p << bits;
      if (bits != 0) w[i + words + 1] ^= p >> (64 - bits);
    }
  }
  q = {w[0], w[1], w[2], w[3]};
}

}  // namespace

void Xoshiro256::apply(const std::array<std::uint64_t, 4>& q) noexcept {
  // Horner walk: accumulate T^i s for every set coefficient x^i.
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t word : q) {
    for (int b = 0; b < 64; ++b) {
      if (word & (std::uint64_t{1} << b)) {
        s0 ^= state_[0];
        s1 ^= state_[1];
        s2 ^= state_[2];
        s3 ^= state_[3];
      }
      (void)(*this)();
    }
  }
  state_ = {s0, s1, s2, s3};
}

void Xoshiro256::jump() noexcept {
  // x^(2^128) mod kCharPoly.
  apply({0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
         0x39abdc4529b1661cULL});
}

void Xoshiro256::discard(std::uint64_t steps) noexcept {
  // Left-to-right square-and-multiply from x^0.
  Poly q{1, 0, 0, 0};
  for (int b = static_cast<int>(std::bit_width(steps)) - 1; b >= 0; --b) {
    square(q);
    if ((steps >> b) & 1) times_x(q);
  }
  apply(q);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo > hi");
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(gen_());
  }
  // Lemire's multiply-shift rejection method: unbiased and fast.
  std::uint64_t x = gen_();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  auto l = static_cast<std::uint64_t>(m);
  if (l < range) {
    const std::uint64_t threshold = (0 - range) % range;
    while (l < threshold) {
      x = gen_();
      m = static_cast<__uint128_t>(x) * range;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(m >> 64);
}

double Rng::uniform01() {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("uniform: lo > hi");
  return lo + (hi - lo) * uniform01();
}

double Rng::exponential(double mean) {
  if (mean <= 0) throw std::invalid_argument("exponential: non-positive mean");
  double u = uniform01();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

std::int64_t Rng::poisson(double mean) {
  if (mean < 0) throw std::invalid_argument("poisson: negative mean");
  if (mean == 0) return 0;
  if (mean < 60.0) {
    // Knuth's product-of-uniforms method.
    const double limit = std::exp(-mean);
    double prod = uniform01();
    std::int64_t n = 0;
    while (prod > limit) {
      prod *= uniform01();
      ++n;
    }
    return n;
  }
  // Normal approximation with continuity correction for large means.
  const double u1 = uniform01();
  const double u2 = uniform01();
  const double z = std::sqrt(-2.0 * std::log(u1 <= 0 ? 0x1.0p-53 : u1)) *
                   std::cos(2.0 * 3.14159265358979323846 * u2);
  const double v = mean + std::sqrt(mean) * z + 0.5;
  return v < 0 ? 0 : static_cast<std::int64_t>(v);
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) {
    if (w < 0) throw std::invalid_argument("weighted_index: negative weight");
    total += w;
  }
  if (total <= 0) throw std::invalid_argument("weighted_index: zero total weight");
  double r = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0) return i;
  }
  return weights.size() - 1;  // numeric edge: attribute to the last bucket
}

}  // namespace risa

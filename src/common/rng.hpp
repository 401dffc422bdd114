// Deterministic pseudo-random infrastructure.
//
// Every stochastic element of the reproduction (synthetic workload sizes,
// Poisson arrivals, shuffles) draws from a seeded xoshiro256** generator so
// that experiments are bit-reproducible across runs and platforms.  We do
// not use std::mt19937/std::uniform_int_distribution because their outputs
// are not guaranteed identical across standard-library implementations.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace risa {

/// SplitMix64: used to expand a single 64-bit seed into xoshiro state.
/// Reference: Sebastiano Vigna, public domain.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit PRNG (Blackman & Vigna).
/// Satisfies UniformRandomBitGenerator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x9271e6c0de5eedULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Advance 2^128 steps; yields an independent stream for parallel use.
  void jump() noexcept;

  /// Advance `steps` steps, exactly as `steps` calls of operator() would,
  /// in O(log steps): x^steps mod kCharPoly by square-and-multiply, then
  /// the same Horner walk as jump() (DESIGN.md §11.1).
  void discard(std::uint64_t steps) noexcept;

  /// Characteristic polynomial P(x) of the state transition, a linear map
  /// on the 256 state bits over GF(2): P(x) = x^256 + sum of the bits i
  /// set here (word i / 64, bit i % 64) as x^i.  By Cayley-Hamilton a
  /// power T^k of the transition equals (x^k mod P)(T).
  static constexpr std::array<std::uint64_t, 4> kCharPoly = {
      0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL, 0x04b4edcf26259f85ULL,
      0x0003c03c3f3ecb19ULL};

  /// Raw 256-bit state, for checkpoint/restore of in-flight streams.  A
  /// generator restored from state() continues the identical sequence.
  using State = std::array<std::uint64_t, 4>;
  [[nodiscard]] const State& state() const noexcept { return state_; }
  void set_state(const State& s) noexcept { state_ = s; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  /// Replace the state by q(T) applied to it, q a polynomial of degree
  /// < 256 in kCharPoly's layout.
  void apply(const std::array<std::uint64_t, 4>& q) noexcept;

  std::array<std::uint64_t, 4> state_{};
};

/// Deterministic distributions built on Xoshiro256.  Algorithms are fixed
/// here (not delegated to <random>) for cross-platform reproducibility.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9271e6c0de5eedULL) : gen_(seed) {}

  /// Uniform integer in [lo, hi] inclusive (Lemire's unbiased method).
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// True when uniform_int(lo, hi) takes exactly one generator word per
  /// call: a power-of-two range leaves Lemire's rejection threshold
  /// (2^64 - range) mod range at zero.  Requires lo <= hi.
  [[nodiscard]] static constexpr bool uniform_int_is_one_draw(
      std::int64_t lo, std::int64_t hi) noexcept {
    const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
    return (range & (range - 1)) == 0;
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01();

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  /// Exponential with the given mean (inter-arrival times of a Poisson
  /// process with rate 1/mean, as in the paper's arrival model).
  [[nodiscard]] double exponential(double mean);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 60).
  [[nodiscard]] std::int64_t poisson(double mean);

  /// Pick an index in [0, weights.size()) proportionally to weights.
  [[nodiscard]] std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  [[nodiscard]] Xoshiro256& generator() noexcept { return gen_; }
  [[nodiscard]] const Xoshiro256& generator() const noexcept { return gen_; }

 private:
  Xoshiro256 gen_;
};

}  // namespace risa

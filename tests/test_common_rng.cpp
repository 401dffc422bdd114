// Deterministic RNG: reproducibility, bounds, and distribution sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace risa {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1'000'000) == b.uniform_int(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(1, 32);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 32);
  }
}

TEST(Rng, UniformIntSinglePoint) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
  EXPECT_THROW((void)rng.uniform_int(6, 5), std::invalid_argument);
}

TEST(Rng, UniformIntCoversAllValuesRoughlyEqually) {
  Rng rng(11);
  std::vector<int> counts(8, 0);
  const int n = 80'000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform_int(0, 7))];
  }
  for (int c : counts) {
    // Expected 10000 each; 5-sigma band ~ +-500.
    EXPECT_NEAR(c, n / 8, 600);
  }
}

TEST(Rng, Uniform01Range) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, ExponentialMeanMatches) {
  // The paper's arrival process: Poisson with mean inter-arrival 10 tu.
  Rng rng(17);
  double sum = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.25);
  EXPECT_THROW((void)rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, PoissonMeanMatchesSmallAndLarge) {
  Rng rng(19);
  for (double mean : {0.5, 4.0, 30.0, 100.0}) {
    double sum = 0;
    const int n = 20'000;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(rng.poisson(mean));
    }
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
  EXPECT_EQ(rng.poisson(0.0), 0);
  EXPECT_THROW((void)rng.poisson(-1.0), std::invalid_argument);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(23);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(29);
  const std::vector<double> w{1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 30'000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.weighted_index(w)];
  }
  EXPECT_NEAR(counts[0], n * 0.1, 350);
  EXPECT_NEAR(counts[1], n * 0.3, 500);
  EXPECT_NEAR(counts[2], n * 0.6, 600);
  EXPECT_THROW((void)rng.weighted_index({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)rng.weighted_index({-1.0, 2.0}), std::invalid_argument);
}

TEST(Rng, JumpProducesDecorrelatedStream) {
  Xoshiro256 a(5);
  Xoshiro256 b(5);
  b.jump();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Xoshiro, DiscardMatchesSingleSteps) {
  // Edge counts around the polynomial's word and degree boundaries, plus
  // random counts up to ~10^6; one reference generator walks past them
  // all in order.
  std::vector<std::uint64_t> ks{0,   1,   2,   63,  64,  65,   127,
                                128, 255, 256, 257, 511, 512, 1000};
  Rng pick(31);
  for (int i = 0; i < 16; ++i) {
    ks.push_back(static_cast<std::uint64_t>(pick.uniform_int(0, 1'050'000)));
  }
  std::sort(ks.begin(), ks.end());
  for (std::uint64_t seed : {std::uint64_t{5}, std::uint64_t{20231112}}) {
    Xoshiro256 stepped(seed);
    std::uint64_t at = 0;
    for (std::uint64_t k : ks) {
      for (; at < k; ++at) (void)stepped();
      Xoshiro256 jumped(seed);
      jumped.discard(k);
      ASSERT_EQ(jumped.state(), stepped.state())
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(Xoshiro, DiscardComposes) {
  const std::uint64_t big = std::uint64_t{1} << 62;
  const std::array<std::pair<std::uint64_t, std::uint64_t>, 5> splits{{
      {0, 0}, {1, 255}, {300'000, 300'001}, {big + 12345, big - 1},
      {std::numeric_limits<std::uint64_t>::max() - 7, 7}}};
  for (const auto& [a, b] : splits) {
    Xoshiro256 twice(9);
    twice.discard(a);
    twice.discard(b);
    Xoshiro256 once(9);
    once.discard(a + b);
    EXPECT_EQ(twice.state(), once.state()) << a << " + " << b;
  }
}

TEST(Xoshiro, CharPolyIsBerlekampMasseyOfTheStateBits) {
  // Berlekamp-Massey over GF(2) on 512 bits of one state bit's sequence
  // finds that sequence's minimal polynomial; the transition's
  // characteristic polynomial is primitive (period 2^256 - 1), so it is
  // the minimal polynomial of every nonzero bit sequence.
  Xoshiro256 gen(77);
  std::vector<int> seq(512);
  for (int& bit : seq) {
    bit = static_cast<int>(gen.state()[0] & 1);
    (void)gen();
  }
  std::vector<int> c(seq.size() + 1, 0), b(seq.size() + 1, 0);
  c[0] = b[0] = 1;
  std::size_t len = 0, m = 1;
  for (std::size_t n = 0; n < seq.size(); ++n) {
    int d = seq[n];
    for (std::size_t i = 1; i <= len; ++i) d ^= c[i] & seq[n - i];
    if (d == 0) {
      ++m;
      continue;
    }
    const std::vector<int> prev = c;
    for (std::size_t i = 0; i + m < c.size(); ++i) c[i + m] ^= b[i];
    if (2 * len <= n) {
      len = n + 1 - len;
      b = prev;
      m = 1;
    } else {
      ++m;
    }
  }
  ASSERT_EQ(len, 256u);
  // C(x) = 1 + c1 x + ... + c256 x^256 is the reciprocal of P(x): the
  // coefficient of x^(256 - i) in P is c_i.
  std::array<std::uint64_t, 4> poly{};
  for (std::size_t i = 1; i <= 256; ++i) {
    const std::size_t power = 256 - i;
    if (c[i]) poly[power / 64] |= std::uint64_t{1} << (power % 64);
  }
  EXPECT_EQ(poly, Xoshiro256::kCharPoly);
}

TEST(Rng, OneDrawRangesAreThePowersOfTwo) {
  // The ranges on which uniform_int never rejects: each call takes one
  // word, which is what lets a stream jump over N calls with discard.
  for (std::int64_t hi : {1, 2, 4, 32, 1024}) {
    EXPECT_TRUE(Rng::uniform_int_is_one_draw(1, hi)) << hi;
    Rng counted(41);
    Xoshiro256 raw(41);
    for (int i = 0; i < 1000; ++i) (void)counted.uniform_int(1, hi);
    raw.discard(1000);
    EXPECT_EQ(counted.generator().state(), raw.state()) << hi;
  }
  for (std::int64_t hi : {3, 24, 33, 1000}) {
    EXPECT_FALSE(Rng::uniform_int_is_one_draw(1, hi)) << hi;
  }
}

// The C library's log and exp on a fixed sample, bit for bit.  The
// arrival stream's exponential gaps and the Poisson draws go through them,
// so a libm whose rounding differs moves every fingerprint; these pins fail
// first and name the cause (DESIGN.md §18).  Inputs pass through a
// volatile so the compiler cannot fold the calls at build time.
double libm_log(double x) {
  volatile double in = x;
  return std::log(in);
}
double libm_exp(double x) {
  volatile double in = x;
  return std::exp(in);
}
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(LibmPins, LogBitsOnAFixedSample) {
  const std::pair<double, std::uint64_t> pins[] = {
      {0x1p-53, 0xc0425e4f7b2737faULL},
      {1e-300, 0xc085963447f87fb5ULL},
      {0.1, 0xc0026bb1bbb55515ULL},
      {0.5, 0xbfe62e42fefa39efULL},
      {0.75, 0xbfd269621134db92ULL},
      {0x1.fffffffffffffp-1, 0xbca0000000000000ULL},
      {2.0, 0x3fe62e42fefa39efULL},
      {6300.0, 0x40217f21d24c3698ULL},
      {1e300, 0x4085963447f87fb5ULL}};
  for (const auto& [x, want] : pins) {
    EXPECT_EQ(bits(libm_log(x)), want) << "log(" << x << ")";
  }
}

TEST(LibmPins, ExpBitsOnAFixedSample) {
  const std::pair<double, std::uint64_t> pins[] = {
      {-700.0, 0x00d14f2b0fb9307fULL},
      {-60.0, 0x3a85ae191a99585aULL},
      {-30.0, 0x3d3a56e0c2ac7f75ULL},
      {-5.0, 0x3f7b993fe00d5376ULL},
      {-0.5, 0x3fe368b2fc6f960aULL},
      {-0x1p-30, 0x3fefffffff800000ULL},
      {0.25, 0x3ff48b5e3c3e8186ULL},
      {1.0, 0x4005bf0a8b145769ULL},
      {700.0, 0x7f0d945df4f8ec8eULL}};
  for (const auto& [x, want] : pins) {
    EXPECT_EQ(bits(libm_exp(x)), want) << "exp(" << x << ")";
  }
}

TEST(LibmPins, LogExpDigestOverUniformDraws) {
  // FNV-1a over log(u) and exp(-60 u) for 4096 uniform01 draws: the
  // ranges the exponential and the Knuth Poisson draws evaluate.
  Rng rng(20231112);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](double v) {
    h ^= bits(v);
    h *= 0x100000001b3ULL;
  };
  for (int i = 0; i < 4096; ++i) {
    double u = rng.uniform01();
    if (u <= 0) u = 0x1p-53;
    mix(libm_log(u));
    mix(libm_exp(-60.0 * u));
  }
  EXPECT_EQ(h, 0x26c139107f3bd2a5ULL);
}

TEST(LibmPins, FirstExponentialAndPoissonDraws) {
  Rng expo(20231112);
  for (const std::uint64_t want :
       {0x40682bc17be4f84fULL, 0x403d166975d625bfULL, 0x4043b9e172e1ff0bULL,
        0x4067f372a3026c22ULL}) {
    EXPECT_EQ(bits(expo.exponential(110.5)), want);
  }
  // Means below 60 take Knuth's product of uniforms against exp(-mean);
  // 100 takes the normal approximation through log, sqrt and cos.
  const std::pair<double, std::array<std::int64_t, 8>> poisson[] = {
      {0.5, {1, 4, 0, 0, 0, 0, 2, 0}},
      {5.0, {7, 7, 3, 5, 2, 2, 11, 6}},
      {30.0, {29, 40, 25, 32, 35, 29, 20, 26}},
      {100.0, {98, 106, 101, 119, 108, 99, 103, 88}}};
  for (const auto& [mean, want] : poisson) {
    Rng rng(7);
    std::array<std::int64_t, 8> got{};
    for (std::int64_t& n : got) n = rng.poisson(mean);
    EXPECT_EQ(got, want) << "mean " << mean;
  }
}

}  // namespace
}  // namespace risa

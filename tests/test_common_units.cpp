// Unit arithmetic: conversions of Table 1 granularity, UnitVector algebra,
// strong ids.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/divisor.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

namespace risa {
namespace {

TEST(Divisor, QuotientMatchesPlainDivision) {
  // Powers of two (where the reciprocal is one short of 2^64 / d), odd and
  // composite non-powers of two, the paper's 25 Gb/s channel in Mb/s, and
  // divisors near the top of the dividend range.
  std::vector<std::uint64_t> divisors = {
      1, 2, 3, 5, 7, 10, 1000, 1024, 25000, 33333, 65535, 65536, 65537,
      (std::uint64_t{1} << 31) - 1, std::uint64_t{1} << 32,
      (std::uint64_t{1} << 62) + 1, (std::uint64_t{1} << 63) - 1};
  Rng rng(20231112);
  for (int i = 0; i < 64; ++i) {
    divisors.push_back(static_cast<std::uint64_t>(
        rng.uniform_int(1, std::int64_t{1} << rng.uniform_int(1, 62))));
  }
  constexpr std::uint64_t kMaxDividend = (std::uint64_t{1} << 63) - 1;
  for (const std::uint64_t d : divisors) {
    const Divisor div(d);
    ASSERT_EQ(div.divisor(), d);
    // Multiples of d and their neighbours, where a one-off estimate shows.
    std::vector<std::uint64_t> dividends = {0, 1, d - 1, d, kMaxDividend,
                                            kMaxDividend - 1};
    for (const std::uint64_t k : {std::uint64_t{1}, std::uint64_t{2},
                                  std::uint64_t{65535}, std::uint64_t{65536},
                                  kMaxDividend / d}) {
      if (k == 0 || k > kMaxDividend / d) continue;
      dividends.push_back(k * d);
      dividends.push_back(k * d - 1);
      if (k * d < kMaxDividend) dividends.push_back(k * d + 1);
    }
    for (int j = 0; j < 2000; ++j) {
      const auto bits = rng.uniform_int(0, 63);
      dividends.push_back(static_cast<std::uint64_t>(rng.uniform_int(
          0, bits == 63 ? static_cast<std::int64_t>(kMaxDividend)
                        : (std::int64_t{1} << bits) - 1)));
    }
    for (const std::uint64_t n : dividends) {
      ASSERT_EQ(div.quotient(n), n / d) << n << " / " << d;
    }
  }
}

TEST(Units, GbConversionRoundTrips) {
  EXPECT_EQ(gb(4.0), 4096);
  EXPECT_EQ(gb(0.75), 768);
  EXPECT_EQ(gb(128.0), 131072);
  EXPECT_DOUBLE_EQ(to_gb(gb(56.0)), 56.0);
}

TEST(Units, GbpsConversion) {
  EXPECT_EQ(gbps(200.0), 200000);
  EXPECT_EQ(gbps(5.0), 5000);
  EXPECT_DOUBLE_EQ(to_gbps(gbps(25.0)), 25.0);
}

TEST(Units, CeilDiv) {
  EXPECT_EQ(ceil_div<std::int64_t>(0, 4), 0);
  EXPECT_EQ(ceil_div<std::int64_t>(1, 4), 1);
  EXPECT_EQ(ceil_div<std::int64_t>(4, 4), 1);
  EXPECT_EQ(ceil_div<std::int64_t>(5, 4), 2);
  EXPECT_THROW((void)ceil_div<std::int64_t>(1, 0), std::invalid_argument);
  EXPECT_THROW((void)ceil_div<std::int64_t>(-1, 4), std::invalid_argument);
}

TEST(Units, UnitScaleMatchesTable1) {
  const UnitScale scale;
  // CPU unit = 4 cores.
  EXPECT_EQ(scale.to_units(ResourceType::Cpu, 1), 1);
  EXPECT_EQ(scale.to_units(ResourceType::Cpu, 4), 1);
  EXPECT_EQ(scale.to_units(ResourceType::Cpu, 5), 2);
  EXPECT_EQ(scale.to_units(ResourceType::Cpu, 32), 8);
  // RAM unit = 4 GB; Azure's 0.75 GB still occupies one unit.
  EXPECT_EQ(scale.to_units(ResourceType::Ram, gb(0.75)), 1);
  EXPECT_EQ(scale.to_units(ResourceType::Ram, gb(4.0)), 1);
  EXPECT_EQ(scale.to_units(ResourceType::Ram, gb(56.0)), 14);
  // Storage unit = 64 GB; the fixed 128 GB VM disk is 2 units.
  EXPECT_EQ(scale.to_units(ResourceType::Storage, gb(128.0)), 2);
  EXPECT_EQ(scale.to_units(ResourceType::Storage, gb(64.0)), 1);
  EXPECT_EQ(scale.to_units(ResourceType::Storage, gb(65.0)), 2);
}

TEST(Units, UnitVectorAlgebra) {
  const UnitVector a{4, 2, 1};
  const UnitVector b{1, 1, 1};
  EXPECT_EQ((a + b), (UnitVector{5, 3, 2}));
  EXPECT_EQ((a - b), (UnitVector{3, 1, 0}));
  EXPECT_EQ(to_string(a), "cpu=4,ram=2,sto=1");
}

TEST(Types, PerResourceIndexing) {
  PerResource<int> p{10, 20, 30};
  EXPECT_EQ(p[ResourceType::Cpu], 10);
  EXPECT_EQ(p[ResourceType::Ram], 20);
  EXPECT_EQ(p[ResourceType::Storage], 30);
  p[ResourceType::Ram] = 25;
  EXPECT_EQ(p.ram(), 25);
  int sum = 0;
  for (int v : p) sum += v;
  EXPECT_EQ(sum, 65);
}

TEST(Types, ResourceNames) {
  EXPECT_EQ(name(ResourceType::Cpu), "CPU");
  EXPECT_EQ(name(ResourceType::Ram), "RAM");
  EXPECT_EQ(name(ResourceType::Storage), "STO");
  EXPECT_EQ(kAllResources.size(), kNumResourceTypes);
}

TEST(Types, StrongIdsAreDistinctAndComparable) {
  const RackId r1{3};
  const RackId r2{5};
  EXPECT_LT(r1, r2);
  EXPECT_NE(r1, r2);
  EXPECT_TRUE(r1.valid());
  EXPECT_FALSE(RackId::invalid().valid());
  EXPECT_FALSE(RackId{}.valid());
  // Ids of different tags are different types (compile-time property); a
  // hash exists for container use.
  EXPECT_EQ(std::hash<RackId>{}(r1), std::hash<RackId>{}(RackId{3}));
}

}  // namespace
}  // namespace risa

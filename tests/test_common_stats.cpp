// Statistical accumulators: exactness of the time-weighted integrals that
// produce the paper's "average utilization / power" numbers.
#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hpp"

namespace risa {
namespace {

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(TimeWeightedMean, PiecewiseConstantIntegralIsExact) {
  TimeWeightedMean twm;
  twm.update(0.0, 1.0);   // value 1 over [0, 10)
  twm.update(10.0, 3.0);  // value 3 over [10, 20)
  twm.update(20.0, 0.0);  // value 0 over [20, 40]
  // integral = 1*10 + 3*10 + 0*20 = 40; mean over [0, 40] = 1.0.
  EXPECT_DOUBLE_EQ(twm.integral(40.0), 40.0);
  EXPECT_DOUBLE_EQ(twm.mean(40.0), 1.0);
  EXPECT_DOUBLE_EQ(twm.peak(), 3.0);
  EXPECT_DOUBLE_EQ(twm.current(), 0.0);
}

TEST(TimeWeightedMean, RepeatedSameTimeUpdatesKeepLastValue) {
  TimeWeightedMean twm;
  twm.update(0.0, 5.0);
  twm.update(0.0, 2.0);  // zero-width segment contributes nothing
  EXPECT_DOUBLE_EQ(twm.mean(10.0), 2.0);
}

TEST(TimeWeightedMean, RejectsTimeTravel) {
  TimeWeightedMean twm;
  twm.update(5.0, 1.0);
  EXPECT_THROW(twm.update(4.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)twm.integral(4.0), std::invalid_argument);
}

TEST(TimeWeightedMean, EmptyMeansZero) {
  const TimeWeightedMean twm;
  EXPECT_TRUE(twm.empty());
  EXPECT_DOUBLE_EQ(twm.mean(100.0), 0.0);
  EXPECT_DOUBLE_EQ(twm.integral(100.0), 0.0);
}

}  // namespace
}  // namespace risa

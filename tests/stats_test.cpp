#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace graf {
namespace {

TEST(Percentile, EndpointsAndMedian) {
  std::vector<double> v{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 30.0);
}

TEST(Percentile, LinearInterpolation) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 90.0), 9.0);
}

TEST(Percentile, UnsortedInputHandled) {
  std::vector<double> v{50.0, 10.0, 40.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 30.0);
}

TEST(Percentile, SingleElement) {
  std::vector<double> v{42.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 42.0);
}

TEST(Percentile, OutOfRangeRanksClampToExtremes) {
  std::vector<double> v{10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(percentile(v, -5.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 140.0), 30.0);
}

TEST(Percentile, ThrowsOnEmpty) {
  std::vector<double> v;
  EXPECT_THROW(percentile(v, 50.0), std::invalid_argument);
}

TEST(Percentile, P99TracksTailOracle) {
  Rng rng{7};
  std::vector<double> v;
  for (int i = 0; i < 10000; ++i) v.push_back(rng.exponential(1.0));
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_NEAR(percentile(v, 99.0), sorted[static_cast<std::size_t>(0.99 * 9999)], 0.05);
}

}  // namespace
}  // namespace graf

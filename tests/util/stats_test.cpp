#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ess {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(7.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 7.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.0);
}

TEST(OnlineStats, MatchesDirectComputation) {
  const std::vector<double> xs = {3.0, 1.5, -2.0, 8.25, 0.0, 4.5};
  OnlineStats s;
  double sum = 0;
  for (const double x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  double m2 = 0;
  for (const double x : xs) m2 += (x - mean) * (x - mean);
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), m2 / static_cast<double>(xs.size()), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.25);
  EXPECT_NEAR(s.sum(), sum, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(s.variance()), 1e-12);
}

TEST(Histogram, CountsAndFractions) {
  Histogram h;
  h.add(1024, 3);
  h.add(4096);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(1024), 3u);
  EXPECT_EQ(h.count(4096), 1u);
  EXPECT_EQ(h.count(2048), 0u);
  EXPECT_DOUBLE_EQ(h.fraction(1024), 0.75);
  EXPECT_DOUBLE_EQ(h.fraction(9999), 0.0);
}

TEST(Histogram, KeysSorted) {
  Histogram h;
  h.add(30);
  h.add(10);
  h.add(20);
  const auto keys = h.keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], 10);
  EXPECT_EQ(keys[1], 20);
  EXPECT_EQ(keys[2], 30);
}

TEST(Histogram, TopByCountWithTieBreak) {
  Histogram h;
  h.add(5, 10);
  h.add(3, 10);
  h.add(7, 2);
  const auto top = h.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, 3);  // tie broken by ascending key
  EXPECT_EQ(top[1].first, 5);
}

TEST(Percentile, EmptyIsZero) {
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, MedianAndExtremes) {
  std::vector<double> xs = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 75.0), 7.5);
}

TEST(Percentile, ThrowsOnBadP) {
  EXPECT_THROW(percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

}  // namespace
}  // namespace ess

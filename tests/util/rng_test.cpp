#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace ess {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitMix64KnownValues) {
  // Reference values from the SplitMix64 reference implementation
  // (seed 1234567).
  SplitMix64 sm(1234567);
  const std::uint64_t first = sm.next();
  SplitMix64 sm2(1234567);
  EXPECT_EQ(first, sm2.next());
  EXPECT_NE(first, sm.next());
}

class RngBoundTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundTest, UniformStaysInBound) {
  const std::uint64_t bound = GetParam();
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.uniform(bound), bound);
  }
}

TEST_P(RngBoundTest, UniformCoversRangeForSmallBounds) {
  const std::uint64_t bound = GetParam();
  if (bound > 64) GTEST_SKIP() << "coverage check only for small bounds";
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(rng.uniform(bound));
  EXPECT_EQ(seen.size(), bound);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundTest,
                         ::testing::Values(1, 2, 3, 7, 10, 64, 1000,
                                           1'000'000'007ULL));

// The rejection loop as it was before the threshold was computed lazily:
// the threshold first, then draws until one clears it.
std::uint64_t uniform_eager(Rng& rng, std::uint64_t bound) {
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = rng.next_u64();
    if (r >= threshold) return r % bound;
  }
}

TEST(Rng, UniformMatchesTheEagerThresholdLoop) {
  // 2^63 + 1 rejects about half its draws below bound, 2^64 - 1 only a
  // draw of 0; the small bounds exercise the lazy path's common case.
  for (const std::uint64_t bound :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{5}, std::uint64_t{650}, std::uint64_t{40000},
        (std::uint64_t{1} << 32) + 1, (std::uint64_t{1} << 63) + 1,
        ~std::uint64_t{0}}) {
    for (const std::uint64_t seed : {1u, 71u, 0x1996u}) {
      Rng lazy(seed), eager(seed);
      for (int i = 0; i < 100000; ++i) {
        ASSERT_EQ(lazy.uniform(bound), uniform_eager(eager, bound))
            << "bound " << bound << " seed " << seed << " draw " << i;
      }
      // Both consumed the same draws: the streams stay in step.
      EXPECT_EQ(lazy.next_u64(), eager.next_u64())
          << "bound " << bound << " seed " << seed;
    }
  }
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.split();
  // Parent and child should not produce the same sequence.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(37);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

}  // namespace
}  // namespace ess

#include "common/rng.h"

#include <algorithm>
#include <gtest/gtest.h>

namespace mirabel {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(10);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.Uniform(-3.5, 7.25);
    EXPECT_GE(v, -3.5);
    EXPECT_LT(v, 7.25);
  }
}

TEST(RngTest, UniformIntInclusiveAndCoversRange) {
  Rng rng(11);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 60000; ++i) {
    int64_t v = rng.UniformInt(0, 5);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 5);
    counts[static_cast<size_t>(v)]++;
  }
  // Each bucket should be near 10000 (loose 3-sigma-ish check).
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.UniformInt(7, 7), 7);
  }
}

TEST(RngTest, GaussianMomentsApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(14);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(16);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<size_t>(i)] = i;
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, IndexWithinBounds) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Index(13), 13u);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(18);
  Rng child = a.Fork();
  // Child stream should differ from the parent's continuation.
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.NextUint64() == child.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

}  // namespace
}  // namespace mirabel

#include "common/math_util.h"

#include <gtest/gtest.h>

namespace mirabel {
namespace {

TEST(SigmoidTest, BasicValues) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_GT(Sigmoid(10.0), 0.999);
  EXPECT_LT(Sigmoid(-10.0), 0.001);
}

TEST(SigmoidTest, Monotone) {
  double prev = 0.0;
  for (double x = -6.0; x <= 6.0; x += 0.25) {
    double v = Sigmoid(x);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(SigmoidTest, ScaledMidpoint) {
  EXPECT_DOUBLE_EQ(ScaledSigmoid(12.0, 12.0, 3.0), 0.5);
  EXPECT_GT(ScaledSigmoid(20.0, 12.0, 3.0), 0.9);
}

TEST(ClampTest, Clamps) {
  EXPECT_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
}

TEST(MeanStdDevTest, Basics) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0, 4.0}), 3.0);
  EXPECT_DOUBLE_EQ(StdDev({5.0}), 0.0);
  EXPECT_NEAR(StdDev({2.0, 4.0}), 1.0, 1e-12);
}

TEST(SmapeTest, PerfectForecastIsZero) {
  auto r = Smape({1.0, 2.0, 3.0}, {1.0, 2.0, 3.0});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(*r, 0.0);
}

TEST(SmapeTest, KnownValue) {
  // |150-100| / ((100+150)/2) = 0.4
  auto r = Smape({100.0}, {150.0});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 0.4, 1e-12);
}

TEST(SmapeTest, BothZeroContributesNothing) {
  auto r = Smape({0.0, 100.0}, {0.0, 100.0});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(*r, 0.0);
}

TEST(SmapeTest, ErrorsOnBadInput) {
  EXPECT_FALSE(Smape({}, {}).ok());
  EXPECT_FALSE(Smape({1.0}, {1.0, 2.0}).ok());
}

TEST(SmapeTest, SymmetricInArguments) {
  auto a = Smape({100.0, 50.0}, {120.0, 40.0});
  auto b = Smape({120.0, 40.0}, {100.0, 50.0});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(*a, *b);
}

TEST(FitLineTest, RecoversExactLine) {
  std::vector<double> x = {0.0, 1.0, 2.0, 3.0};
  std::vector<double> y = {1.0, 3.0, 5.0, 7.0};  // y = 2x + 1
  auto fit = FitLine(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->slope, 2.0, 1e-12);
  EXPECT_NEAR(fit->intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-12);
}

TEST(FitLineTest, NoisyFitHasLowerR2) {
  std::vector<double> x = {0.0, 1.0, 2.0, 3.0, 4.0};
  std::vector<double> y = {0.0, 2.5, 1.5, 3.5, 3.0};
  auto fit = FitLine(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_GT(fit->r_squared, 0.0);
  EXPECT_LT(fit->r_squared, 1.0);
}

TEST(FitLineTest, ConstantXIsError) {
  EXPECT_FALSE(FitLine({1.0, 1.0, 1.0}, {1.0, 2.0, 3.0}).ok());
}

TEST(FitLineTest, TooFewPointsIsError) {
  EXPECT_FALSE(FitLine({1.0}, {1.0}).ok());
}

/// Property sweep: SMAPE is scale-invariant (multiplying both series by a
/// positive constant leaves it unchanged).
class SmapeScaleInvariance : public ::testing::TestWithParam<double> {};

TEST_P(SmapeScaleInvariance, ScaleInvariant) {
  double k = GetParam();
  std::vector<double> a = {10.0, 20.0, 35.0, 7.0};
  std::vector<double> f = {12.0, 18.0, 30.0, 9.0};
  std::vector<double> ka = a;
  std::vector<double> kf = f;
  for (auto& v : ka) v *= k;
  for (auto& v : kf) v *= k;
  auto base = Smape(a, f);
  auto scaled = Smape(ka, kf);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(scaled.ok());
  EXPECT_NEAR(*base, *scaled, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Scales, SmapeScaleInvariance,
                         ::testing::Values(0.001, 0.5, 1.0, 3.0, 1000.0));

}  // namespace
}  // namespace mirabel

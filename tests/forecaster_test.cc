#include "forecasting/forecaster.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/math_util.h"
#include "datagen/energy_series_generator.h"

namespace mirabel::forecasting {
namespace {

TimeSeries DemandSeries(int days, uint64_t seed = 7) {
  datagen::DemandSeriesConfig cfg;
  cfg.days = days;
  cfg.seed = seed;
  return TimeSeries(datagen::GenerateDemandSeries(cfg), 48);
}

ForecasterConfig FastConfig() {
  ForecasterConfig cfg;
  cfg.seasonal_periods = {48, 336};
  cfg.initial_estimation = {0.2, 0, 3};
  cfg.adaptation_estimation = {0.05, 200, 4};
  return cfg;
}

TEST(ForecasterTest, ForecastBeforeTrainFails) {
  Forecaster forecaster(FastConfig());
  EXPECT_FALSE(forecaster.Forecast(10).ok());
  EXPECT_FALSE(forecaster.AddMeasurement(1.0).ok());
}

TEST(ForecasterTest, UnknownEstimatorRejected) {
  ForecasterConfig cfg = FastConfig();
  cfg.estimator = "Oracle";
  Forecaster forecaster(cfg);
  EXPECT_EQ(forecaster.Train(DemandSeries(21)).code(),
            StatusCode::kInvalidArgument);
}

TEST(ForecasterTest, TrainsAndForecastsAccurately) {
  Forecaster forecaster(FastConfig());
  datagen::DemandSeriesConfig cfg;
  cfg.days = 29;
  auto values = datagen::GenerateDemandSeries(cfg);
  TimeSeries train(std::vector<double>(values.begin(), values.end() - 48), 48);
  ASSERT_TRUE(forecaster.Train(train).ok());
  auto forecast = forecaster.Forecast(48);
  ASSERT_TRUE(forecast.ok());
  std::vector<double> actual(values.end() - 48, values.end());
  auto smape = Smape(actual, *forecast);
  ASSERT_TRUE(smape.ok());
  EXPECT_LT(*smape, 0.09);
}

TEST(ForecasterTest, OnlineUpdatesKeepRollingSmapeSane) {
  Forecaster forecaster(FastConfig());
  datagen::DemandSeriesConfig cfg;
  cfg.days = 28;
  auto values = datagen::GenerateDemandSeries(cfg);
  size_t split = values.size() - 96;
  TimeSeries train(
      std::vector<double>(values.begin(),
                          values.begin() + static_cast<ptrdiff_t>(split)),
      48);
  ASSERT_TRUE(forecaster.Train(train).ok());
  for (size_t i = split; i < values.size(); ++i) {
    ASSERT_TRUE(forecaster.AddMeasurement(values[i]).ok());
  }
  EXPECT_GT(forecaster.RollingSmape(), 0.0);
  EXPECT_LT(forecaster.RollingSmape(), 0.2);
}

TEST(ForecasterTest, TimeBasedStrategyTriggersReestimation) {
  ForecasterConfig cfg = FastConfig();
  cfg.evaluation = EvaluationStrategy::kTimeBased;
  cfg.reestimation_interval = 50;
  Forecaster forecaster(cfg);
  auto series = DemandSeries(22);
  ASSERT_TRUE(forecaster.Train(series).ok());
  datagen::DemandSeriesConfig more;
  more.days = 3;
  more.seed = 99;
  for (double v : datagen::GenerateDemandSeries(more)) {
    ASSERT_TRUE(forecaster.AddMeasurement(v).ok());
  }
  // 144 measurements at interval 50 -> at least 2 re-estimations.
  EXPECT_GE(forecaster.reestimation_count(), 2);
}

TEST(ForecasterTest, ThresholdStrategyTriggersOnRegimeChange) {
  ForecasterConfig cfg = FastConfig();
  cfg.evaluation = EvaluationStrategy::kThresholdBased;
  cfg.smape_threshold = 0.10;
  cfg.evaluation_window = 24;
  Forecaster forecaster(cfg);
  ASSERT_TRUE(forecaster.Train(DemandSeries(22)).ok());
  EXPECT_EQ(forecaster.reestimation_count(), 0);
  // Feed a violently different regime: forecasts break, threshold fires.
  for (int i = 0; i < 48; ++i) {
    ASSERT_TRUE(forecaster.AddMeasurement(i % 2 == 0 ? 5000.0 : 70000.0).ok());
  }
  EXPECT_GE(forecaster.reestimation_count(), 1);
}

TEST(ForecasterTest, FailedRetrainLeavesTheTrainedForecasterIntact) {
  ForecasterConfig cfg = FastConfig();
  cfg.evaluation = EvaluationStrategy::kTimeBased;
  cfg.reestimation_interval = 1;
  Forecaster forecaster(cfg);
  ASSERT_TRUE(forecaster.Train(DemandSeries(22)).ok());
  Result<std::vector<double>> before = forecaster.Forecast(48);
  ASSERT_TRUE(before.ok());

  // Shorter than two weekly cycles: no candidate fits, so Train fails.
  TimeSeries too_short(std::vector<double>(100, 100.0), 48);
  EXPECT_FALSE(forecaster.Train(too_short).ok());
  Result<std::vector<double>> after = forecaster.Forecast(48);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), before->size());
  const size_t bytes = before->size() * sizeof(double);
  EXPECT_EQ(std::memcmp(after->data(), before->data(), bytes), 0);

  // The next measurement re-estimates on the kept 22-day history.
  EXPECT_TRUE(forecaster.AddMeasurement(100.0).ok());
  EXPECT_EQ(forecaster.reestimation_count(), 1);
}

}  // namespace
}  // namespace mirabel::forecasting

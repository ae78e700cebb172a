#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "common/math_util.h"
#include "datagen/energy_series_generator.h"
#include "datagen/flex_offer_generator.h"

namespace mirabel::datagen {
namespace {

TEST(FlexOfferGeneratorTest, GeneratesRequestedCount) {
  FlexOfferWorkloadConfig cfg;
  cfg.count = 500;
  auto offers = GenerateFlexOffers(cfg);
  EXPECT_EQ(offers.size(), 500u);
}

TEST(FlexOfferGeneratorTest, AllOffersValid) {
  FlexOfferWorkloadConfig cfg;
  cfg.count = 2000;
  cfg.seed = 3;
  for (const auto& fo : GenerateFlexOffers(cfg)) {
    ASSERT_TRUE(fo.Validate().ok()) << fo.ToString();
  }
}

TEST(FlexOfferGeneratorTest, DeterministicInSeed) {
  FlexOfferWorkloadConfig cfg;
  cfg.count = 100;
  cfg.seed = 77;
  auto a = GenerateFlexOffers(cfg);
  auto b = GenerateFlexOffers(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].earliest_start, b[i].earliest_start);
    EXPECT_EQ(a[i].latest_start, b[i].latest_start);
    EXPECT_EQ(a[i].profile.size(), b[i].profile.size());
    EXPECT_DOUBLE_EQ(a[i].TotalMaxEnergy(), b[i].TotalMaxEnergy());
  }
}

TEST(FlexOfferGeneratorTest, DifferentSeedsDiffer) {
  FlexOfferWorkloadConfig cfg;
  cfg.count = 100;
  cfg.seed = 1;
  auto a = GenerateFlexOffers(cfg);
  cfg.seed = 2;
  auto b = GenerateFlexOffers(cfg);
  int same = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].earliest_start == b[i].earliest_start) ++same;
  }
  EXPECT_LT(same, 30);
}

TEST(FlexOfferGeneratorTest, RespectsDurationAndFlexBounds) {
  FlexOfferWorkloadConfig cfg;
  cfg.count = 1000;
  cfg.min_duration_slices = 3;
  cfg.max_duration_slices = 7;
  cfg.min_time_flexibility = 2;
  cfg.max_time_flexibility = 10;
  cfg.duration_step = 1;
  cfg.time_flexibility_step = 1;
  for (const auto& fo : GenerateFlexOffers(cfg)) {
    EXPECT_GE(fo.Duration(), 3);
    EXPECT_LE(fo.Duration(), 7);
    EXPECT_GE(fo.TimeFlexibility(), 2);
    EXPECT_LE(fo.TimeFlexibility(), 10);
  }
}

TEST(FlexOfferGeneratorTest, ProductionFractionProducesNegativeBands) {
  FlexOfferWorkloadConfig cfg;
  cfg.count = 2000;
  cfg.production_fraction = 0.5;
  int production = 0;
  for (const auto& fo : GenerateFlexOffers(cfg)) {
    ASSERT_TRUE(fo.Validate().ok());
    if (fo.TotalMaxEnergy() <= 0.0) ++production;
  }
  EXPECT_GT(production, 800);
  EXPECT_LT(production, 1200);
}

TEST(FlexOfferGeneratorTest, QuantisationCreatesDuplicates) {
  FlexOfferWorkloadConfig cfg;
  cfg.count = 5000;
  cfg.time_flexibility_step = 8;
  std::vector<int64_t> tf;
  for (const auto& fo : GenerateFlexOffers(cfg)) {
    tf.push_back(fo.TimeFlexibility());
  }
  std::sort(tf.begin(), tf.end());
  tf.erase(std::unique(tf.begin(), tf.end()), tf.end());
  EXPECT_LE(tf.size(), 6u);  // 0..32 step 8
}

TEST(DemandSeriesTest, CorrectLengthAndDeterminism) {
  DemandSeriesConfig cfg;
  cfg.days = 14;
  auto a = GenerateDemandSeries(cfg);
  auto b = GenerateDemandSeries(cfg);
  EXPECT_EQ(a.size(), 14u * 48u);
  EXPECT_EQ(a, b);
}

TEST(DemandSeriesTest, EveningPeakAboveNightTrough) {
  DemandSeriesConfig cfg;
  cfg.days = 28;
  cfg.noise_stddev = 0.0;
  auto v = GenerateDemandSeries(cfg);
  // Compare 18:00 against 03:00 averaged over all days.
  double evening = 0.0;
  double night = 0.0;
  for (int d = 0; d < cfg.days; ++d) {
    evening += v[static_cast<size_t>(d * 48 + 36)];
    night += v[static_cast<size_t>(d * 48 + 6)];
  }
  EXPECT_GT(evening, night + cfg.days * 0.3 * cfg.daily_amplitude);
}

TEST(DemandSeriesTest, WeekendBelowWeekday) {
  DemandSeriesConfig cfg;
  cfg.days = 28;
  cfg.noise_stddev = 0.0;
  auto v = GenerateDemandSeries(cfg);
  double weekday = 0.0;
  double weekend = 0.0;
  int wd = 0;
  int we = 0;
  for (int d = 0; d < cfg.days; ++d) {
    double day_mean = 0.0;
    for (int p = 0; p < 48; ++p) day_mean += v[static_cast<size_t>(d * 48 + p)];
    day_mean /= 48;
    if (d % 7 >= 5) {
      weekend += day_mean;
      ++we;
    } else {
      weekday += day_mean;
      ++wd;
    }
  }
  EXPECT_GT(weekday / wd, weekend / we);
}

TEST(DemandSeriesTest, HolidayDipApplies) {
  DemandSeriesConfig cfg;
  cfg.days = 3;
  cfg.noise_stddev = 0.0;
  cfg.start_day_of_year = 0;  // day 0 and 1 are holidays in the calendar
  auto with_dip = GenerateDemandSeries(cfg);
  cfg.holiday_dip = 0.0;
  auto without = GenerateDemandSeries(cfg);
  EXPECT_LT(with_dip[10], without[10]);
}

TEST(HolidayCalendarTest, KnownHolidays) {
  EXPECT_TRUE(IsHolidayDayOfYear(0));
  EXPECT_TRUE(IsHolidayDayOfYear(359));
  EXPECT_FALSE(IsHolidayDayOfYear(50));
  EXPECT_TRUE(IsHolidayDayOfYear(365));  // wraps to 0
}

TEST(WindSeriesTest, WithinCapacity) {
  WindSeriesConfig cfg;
  cfg.days = 28;
  auto v = GenerateWindSeries(cfg);
  for (double p : v) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, cfg.capacity_mw + 1e-9);
  }
}

TEST(WindSeriesTest, HasVariability) {
  WindSeriesConfig cfg;
  cfg.days = 28;
  auto v = GenerateWindSeries(cfg);
  EXPECT_GT(StdDev(v), 0.05 * cfg.capacity_mw);
}

TEST(WindSeriesTest, WeakerSeasonalityThanDemand) {
  // The defining property for Fig. 4(b): correlation between consecutive
  // days is much weaker for wind than for demand.
  DemandSeriesConfig dcfg;
  dcfg.days = 28;
  auto demand = GenerateDemandSeries(dcfg);
  WindSeriesConfig wcfg;
  wcfg.days = 28;
  auto wind = GenerateWindSeries(wcfg);

  auto day_corr = [](const std::vector<double>& v) {
    std::vector<double> a(v.begin(), v.end() - 48);
    std::vector<double> b(v.begin() + 48, v.end());
    double ma = Mean(a);
    double mb = Mean(b);
    double num = 0.0;
    double da = 0.0;
    double db = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      num += (a[i] - ma) * (b[i] - mb);
      da += (a[i] - ma) * (a[i] - ma);
      db += (b[i] - mb) * (b[i] - mb);
    }
    return num / std::sqrt(da * db);
  };
  EXPECT_GT(day_corr(demand), day_corr(wind) + 0.2);
}

}  // namespace
}  // namespace mirabel::datagen

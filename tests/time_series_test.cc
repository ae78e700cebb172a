#include "forecasting/time_series.h"

#include <gtest/gtest.h>

namespace mirabel::forecasting {
namespace {

TEST(TimeSeriesTest, ConstructionAndAccess) {
  TimeSeries ts({1.0, 2.0, 3.0}, 48);
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts.periods_per_day(), 48);
  EXPECT_DOUBLE_EQ(ts.at(1), 2.0);
  EXPECT_FALSE(ts.empty());
}

TEST(TimeSeriesTest, AppendGrows) {
  TimeSeries ts({}, 48);
  EXPECT_TRUE(ts.empty());
  ts.Append(5.0);
  EXPECT_EQ(ts.size(), 1u);
  EXPECT_DOUBLE_EQ(ts.at(0), 5.0);
}

TEST(TimeSeriesTest, SliceExtractsRange) {
  TimeSeries ts({0.0, 1.0, 2.0, 3.0, 4.0}, 24);
  auto slice = ts.Slice(1, 3);
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(slice->size(), 3u);
  EXPECT_DOUBLE_EQ(slice->at(0), 1.0);
  EXPECT_DOUBLE_EQ(slice->at(2), 3.0);
  EXPECT_EQ(slice->periods_per_day(), 24);
}

TEST(TimeSeriesTest, SliceOutOfRangeFails) {
  TimeSeries ts({0.0, 1.0}, 48);
  EXPECT_FALSE(ts.Slice(1, 2).ok());
  EXPECT_TRUE(ts.Slice(0, 2).ok());
}

TEST(TimeSeriesTest, SplitPartitions) {
  TimeSeries ts({0.0, 1.0, 2.0, 3.0}, 48);
  auto split = ts.Split(3);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->first.size(), 3u);
  EXPECT_EQ(split->second.size(), 1u);
  EXPECT_DOUBLE_EQ(split->second.at(0), 3.0);
  EXPECT_FALSE(ts.Split(5).ok());
}

}  // namespace
}  // namespace mirabel::forecasting

#include "flexoffer/flex_offer.h"

#include <gtest/gtest.h>

#include "flexoffer/time_slice.h"

namespace mirabel::flexoffer {
namespace {

FlexOffer SampleOffer() {
  return FlexOfferBuilder(1)
      .OwnedBy(10)
      .CreatedAt(0)
      .AssignBefore(80)
      .StartWindow(88, 100)
      .AddSlice(1.0, 2.0)
      .AddSlice(0.5, 0.5)
      .AddSlice(2.0, 4.0)
      .UnitPrice(0.03)
      .Build();
}

TEST(TimeSliceTest, Conversions) {
  EXPECT_EQ(HoursToSlices(1), 4);
  EXPECT_EQ(DaysToSlices(2), 192);
  EXPECT_EQ(HourOfDay(0), 0);
  EXPECT_EQ(HourOfDay(95), 23);
  EXPECT_EQ(HourOfDay(96), 0);
  EXPECT_EQ(SliceOfDay(97), 1);
  EXPECT_EQ(DayOf(95), 0);
  EXPECT_EQ(DayOf(96), 1);
}

TEST(TimeSliceTest, NegativeSlices) {
  EXPECT_EQ(HourOfDay(-1), 23);
  EXPECT_EQ(SliceOfDay(-1), 95);
  EXPECT_EQ(DayOf(-1), -1);
  EXPECT_EQ(DayOfWeek(-96), 6);  // the day before Monday is Sunday
}

TEST(TimeSliceTest, DayOfWeekAndWeekend) {
  EXPECT_EQ(DayOfWeek(0), 0);                       // Monday
  EXPECT_EQ(DayOfWeek(DaysToSlices(5)), 5);         // Saturday
  EXPECT_TRUE(IsWeekend(DaysToSlices(5)));
  EXPECT_TRUE(IsWeekend(DaysToSlices(6)));
  EXPECT_FALSE(IsWeekend(DaysToSlices(7)));
}

TEST(TimeSliceTest, Formatting) {
  EXPECT_EQ(FormatTimeSlice(0), "d0 00:00");
  EXPECT_EQ(FormatTimeSlice(5), "d0 01:15");
  EXPECT_EQ(FormatTimeSlice(96 + 4 * 10 + 2), "d1 10:30");
}

TEST(FlexOfferTest, DerivedQuantities) {
  FlexOffer fo = SampleOffer();
  EXPECT_EQ(fo.Duration(), 3);
  EXPECT_EQ(fo.TimeFlexibility(), 12);
  EXPECT_EQ(fo.LatestEnd(), 103);
  EXPECT_DOUBLE_EQ(fo.TotalMinEnergy(), 3.5);
  EXPECT_DOUBLE_EQ(fo.TotalMaxEnergy(), 6.5);
  EXPECT_DOUBLE_EQ(fo.TotalEnergyFlexibility(), 3.0);
}

TEST(FlexOfferTest, ValidOfferValidates) {
  EXPECT_TRUE(SampleOffer().Validate().ok());
}

TEST(FlexOfferTest, EmptyProfileInvalid) {
  FlexOffer fo = SampleOffer();
  fo.profile.clear();
  EXPECT_FALSE(fo.Validate().ok());
}

TEST(FlexOfferTest, MinAboveMaxInvalid) {
  FlexOffer fo = SampleOffer();
  fo.profile[1] = {2.0, 1.0};
  EXPECT_FALSE(fo.Validate().ok());
}

TEST(FlexOfferTest, WindowInvertedInvalid) {
  FlexOffer fo = SampleOffer();
  fo.earliest_start = 101;
  EXPECT_FALSE(fo.Validate().ok());
}

TEST(FlexOfferTest, DeadlineAfterLatestStartInvalid) {
  FlexOffer fo = SampleOffer();
  fo.assignment_before = 101;
  EXPECT_FALSE(fo.Validate().ok());
}

TEST(FlexOfferTest, CreationAfterDeadlineInvalid) {
  FlexOffer fo = SampleOffer();
  fo.creation_time = 81;
  EXPECT_FALSE(fo.Validate().ok());
}

TEST(FlexOfferTest, NonFiniteEnergyInvalid) {
  FlexOffer fo = SampleOffer();
  fo.profile[0].max_kwh = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(fo.Validate().ok());
}

TEST(FlexOfferTest, NonFiniteUnitPriceInvalid) {
  // Aggregation averages unit prices into the macro offer, so one NaN price
  // would turn every scheduling cost of a gate into NaN.
  FlexOffer fo = SampleOffer();
  fo.unit_price_eur = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(fo.Validate().code(), StatusCode::kInvalidArgument);
  fo.unit_price_eur = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(fo.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(FlexOfferTest, ProductionOfferWithNegativeBandsValidates) {
  FlexOffer fo = FlexOfferBuilder(2)
                     .StartWindow(10, 12)
                     .AddSlice(-3.0, -1.0)
                     .Build();
  fo.assignment_before = 10;
  EXPECT_TRUE(fo.Validate().ok());
  EXPECT_DOUBLE_EQ(fo.TotalEnergyFlexibility(), 2.0);
}

TEST(FlexOfferBuilderTest, DefaultsAssignmentToEarliestStart) {
  FlexOffer fo = FlexOfferBuilder(3).StartWindow(40, 50).AddSlice(1, 1).Build();
  EXPECT_EQ(fo.assignment_before, 40);
}

TEST(FlexOfferBuilderTest, AddSlicesRepeats) {
  FlexOffer fo =
      FlexOfferBuilder(4).StartWindow(0, 0).AddSlices(5, 1.0, 2.0).Build();
  EXPECT_EQ(fo.Duration(), 5);
  for (const auto& r : fo.profile) {
    EXPECT_DOUBLE_EQ(r.min_kwh, 1.0);
    EXPECT_DOUBLE_EQ(r.max_kwh, 2.0);
  }
}

TEST(ScheduledFlexOfferTest, ValidScheduleValidates) {
  FlexOffer fo = SampleOffer();
  ScheduledFlexOffer s{1, 90, {1.5, 0.5, 3.0}};
  EXPECT_TRUE(s.ValidateAgainst(fo).ok());
  EXPECT_DOUBLE_EQ(s.TotalEnergy(), 5.0);
}

TEST(ScheduledFlexOfferTest, WrongIdRejected) {
  ScheduledFlexOffer s{99, 90, {1.5, 0.5, 3.0}};
  EXPECT_FALSE(s.ValidateAgainst(SampleOffer()).ok());
}

TEST(ScheduledFlexOfferTest, StartOutsideWindowRejected) {
  ScheduledFlexOffer early{1, 87, {1.5, 0.5, 3.0}};
  ScheduledFlexOffer late{1, 101, {1.5, 0.5, 3.0}};
  EXPECT_FALSE(early.ValidateAgainst(SampleOffer()).ok());
  EXPECT_FALSE(late.ValidateAgainst(SampleOffer()).ok());
  ScheduledFlexOffer boundary{1, 100, {1.5, 0.5, 3.0}};
  EXPECT_TRUE(boundary.ValidateAgainst(SampleOffer()).ok());
}

TEST(ScheduledFlexOfferTest, EnergyOutsideBandRejected) {
  ScheduledFlexOffer low{1, 90, {0.9, 0.5, 3.0}};
  ScheduledFlexOffer high{1, 90, {1.5, 0.5, 4.1}};
  EXPECT_FALSE(low.ValidateAgainst(SampleOffer()).ok());
  EXPECT_FALSE(high.ValidateAgainst(SampleOffer()).ok());
}

TEST(ScheduledFlexOfferTest, NonFiniteEnergyRejected) {
  // NaN fails both band comparisons, so only an explicit check catches it.
  ScheduledFlexOffer s{
      1, 90, {1.5, std::numeric_limits<double>::quiet_NaN(), 3.0}};
  EXPECT_EQ(s.ValidateAgainst(SampleOffer()).code(),
            StatusCode::kInvalidArgument);
}

TEST(ScheduledFlexOfferTest, SliceCountMismatchRejected) {
  ScheduledFlexOffer s{1, 90, {1.5, 0.5}};
  EXPECT_FALSE(s.ValidateAgainst(SampleOffer()).ok());
}

TEST(FallbackScheduleTest, StartsEarliestAtMaxEnergy) {
  FlexOffer fo = SampleOffer();
  ScheduledFlexOffer s = FallbackSchedule(fo);
  EXPECT_TRUE(s.ValidateAgainst(fo).ok());
  EXPECT_EQ(s.start, fo.earliest_start);
  EXPECT_DOUBLE_EQ(s.TotalEnergy(), fo.TotalMaxEnergy());
}

}  // namespace
}  // namespace mirabel::flexoffer

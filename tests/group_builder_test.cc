#include "aggregation/group_builder.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace mirabel::aggregation {
namespace {

using flexoffer::FlexOffer;
using testutil::UniformOffer;

TEST(GroupKeyTest, ExactToleranceSeparatesValues) {
  AggregationParams p0 = AggregationParams::P0();
  EXPECT_EQ(MakeGroupKey(UniformOffer(1, 10, 4), p0),
            MakeGroupKey(UniformOffer(2, 10, 4), p0));
  EXPECT_NE(MakeGroupKey(UniformOffer(1, 10, 4), p0),
            MakeGroupKey(UniformOffer(2, 11, 4), p0));
  EXPECT_NE(MakeGroupKey(UniformOffer(1, 10, 4), p0),
            MakeGroupKey(UniformOffer(2, 10, 5), p0));
}

TEST(GroupKeyTest, ToleranceBucketsNearbyValues) {
  AggregationParams p;
  p.start_after_tolerance = 8;
  p.time_flexibility_tolerance = 0;
  EXPECT_EQ(MakeGroupKey(UniformOffer(1, 0, 4), p),
            MakeGroupKey(UniformOffer(2, 8, 4), p));
  EXPECT_NE(MakeGroupKey(UniformOffer(1, 8, 4), p),
            MakeGroupKey(UniformOffer(2, 9, 4), p));
}

TEST(GroupKeyTest, BucketedOffersDeviateAtMostTolerance) {
  AggregationParams p;
  p.start_after_tolerance = 5;
  for (int64_t a = 0; a < 40; ++a) {
    for (int64_t b = 0; b < 40; ++b) {
      if (MakeGroupKey(UniformOffer(1, a, 0), p) ==
          MakeGroupKey(UniformOffer(2, b, 0), p)) {
        EXPECT_LE(std::abs(a - b), 5);
      }
    }
  }
}

TEST(GroupKeyTest, NegativeToleranceIgnoresAttribute) {
  AggregationParams p;
  p.start_after_tolerance = -1;
  p.time_flexibility_tolerance = 0;
  EXPECT_EQ(MakeGroupKey(UniformOffer(1, 0, 4), p),
            MakeGroupKey(UniformOffer(2, 500, 4), p));
}

TEST(GroupKeyTest, DurationGroupingWhenEnabled) {
  AggregationParams p;
  p.start_after_tolerance = -1;
  p.time_flexibility_tolerance = -1;
  p.duration_tolerance = 0;
  EXPECT_NE(MakeGroupKey(UniformOffer(1, 0, 4, 2), p),
            MakeGroupKey(UniformOffer(2, 0, 4, 3), p));
}

TEST(GroupBuilderTest, InsertsGroupSimilarOffers) {
  GroupBuilder builder(AggregationParams::P0());
  ASSERT_TRUE(builder.Insert(UniformOffer(1, 10, 4)).ok());
  ASSERT_TRUE(builder.Insert(UniformOffer(2, 10, 4)).ok());
  ASSERT_TRUE(builder.Insert(UniformOffer(3, 20, 4)).ok());
  auto updates = builder.Flush();
  ASSERT_EQ(updates.size(), 2u);
  EXPECT_EQ(builder.num_groups(), 2u);
  EXPECT_EQ(builder.num_offers(), 3u);
  for (const auto& u : updates) {
    EXPECT_EQ(u.kind, UpdateKind::kCreated);
  }
}

TEST(GroupBuilderTest, DuplicateIdRejected) {
  GroupBuilder builder(AggregationParams::P0());
  ASSERT_TRUE(builder.Insert(UniformOffer(1, 10, 4)).ok());
  EXPECT_EQ(builder.Insert(UniformOffer(1, 10, 4)).code(),
            StatusCode::kAlreadyExists);
  builder.Flush();
  EXPECT_EQ(builder.Insert(UniformOffer(1, 10, 4)).code(),
            StatusCode::kAlreadyExists);
}

TEST(GroupBuilderTest, IdZeroRejected) {
  GroupBuilder builder(AggregationParams::P0());
  EXPECT_EQ(builder.Insert(UniformOffer(0, 10, 4)).code(),
            StatusCode::kInvalidArgument);
}

TEST(GroupBuilderTest, RemoveUnknownNotFound) {
  GroupBuilder builder(AggregationParams::P0());
  EXPECT_EQ(builder.Remove(5).code(), StatusCode::kNotFound);
}

TEST(GroupBuilderTest, InsertThenRemoveInSameBatchCancels) {
  GroupBuilder builder(AggregationParams::P0());
  ASSERT_TRUE(builder.Insert(UniformOffer(1, 10, 4)).ok());
  ASSERT_TRUE(builder.Remove(1).ok());
  auto updates = builder.Flush();
  EXPECT_TRUE(updates.empty());
  EXPECT_EQ(builder.num_offers(), 0u);
}

TEST(GroupBuilderTest, RemovalEmptiesGroupEmitsDeleted) {
  GroupBuilder builder(AggregationParams::P0());
  ASSERT_TRUE(builder.Insert(UniformOffer(1, 10, 4)).ok());
  builder.Flush();
  ASSERT_TRUE(builder.Remove(1).ok());
  auto updates = builder.Flush();
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].kind, UpdateKind::kDeleted);
  EXPECT_EQ(builder.num_groups(), 0u);
}

TEST(GroupBuilderTest, ChangedGroupCarriesDeltas) {
  GroupBuilder builder(AggregationParams::P0());
  ASSERT_TRUE(builder.Insert(UniformOffer(1, 10, 4)).ok());
  ASSERT_TRUE(builder.Insert(UniformOffer(2, 10, 4)).ok());
  builder.Flush();
  ASSERT_TRUE(builder.Insert(UniformOffer(3, 10, 4)).ok());
  ASSERT_TRUE(builder.Remove(1).ok());
  auto updates = builder.Flush();
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].kind, UpdateKind::kChanged);
  ASSERT_EQ(updates[0].added.size(), 1u);
  EXPECT_EQ(updates[0].added[0].id, 3u);
  ASSERT_EQ(updates[0].removed.size(), 1u);
  EXPECT_EQ(updates[0].removed[0], 1u);
}

TEST(GroupBuilderTest, GroupMembersReturnsSortedMembership) {
  GroupBuilder builder(AggregationParams::P0());
  ASSERT_TRUE(builder.Insert(UniformOffer(5, 10, 4)).ok());
  ASSERT_TRUE(builder.Insert(UniformOffer(2, 10, 4)).ok());
  auto updates = builder.Flush();
  ASSERT_EQ(updates.size(), 1u);
  auto members = builder.GroupMembers(updates[0].group);
  ASSERT_TRUE(members.ok());
  ASSERT_EQ(members->size(), 2u);
  EXPECT_EQ((*members)[0].id, 2u);
  EXPECT_EQ((*members)[1].id, 5u);
  EXPECT_FALSE(builder.GroupMembers(9999).ok());
}

TEST(GroupBuilderTest, ReinsertAfterRemoveWorks) {
  GroupBuilder builder(AggregationParams::P0());
  ASSERT_TRUE(builder.Insert(UniformOffer(1, 10, 4)).ok());
  builder.Flush();
  ASSERT_TRUE(builder.Remove(1).ok());
  builder.Flush();
  EXPECT_TRUE(builder.Insert(UniformOffer(1, 10, 4)).ok());
  builder.Flush();
  EXPECT_EQ(builder.num_offers(), 1u);
}

TEST(GroupBuilderTest, GroupCreatedAndEmptiedInOneBatchIsNoOp) {
  GroupBuilder builder(AggregationParams::P0());
  ASSERT_TRUE(builder.Insert(UniformOffer(1, 10, 4)).ok());
  builder.Flush();
  // New group for offer 2 appears and disappears within one batch via the
  // cancel path; only offer 1's group exists.
  ASSERT_TRUE(builder.Insert(UniformOffer(2, 30, 4)).ok());
  ASSERT_TRUE(builder.Remove(2).ok());
  auto updates = builder.Flush();
  EXPECT_TRUE(updates.empty());
  EXPECT_EQ(builder.num_groups(), 1u);
}

}  // namespace
}  // namespace mirabel::aggregation

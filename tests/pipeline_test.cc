#include "aggregation/pipeline.h"

#include <gtest/gtest.h>

#include "datagen/flex_offer_generator.h"

namespace mirabel::aggregation {
namespace {

using flexoffer::FlexOffer;
using flexoffer::ScheduledFlexOffer;

std::vector<FlexOffer> Workload(int64_t n, uint64_t seed) {
  datagen::FlexOfferWorkloadConfig cfg;
  cfg.count = n;
  cfg.seed = seed;
  return datagen::GenerateFlexOffers(cfg);
}

TEST(PipelineTest, CompressesWorkload) {
  AggregationPipeline pipeline({AggregationParams::P3(), std::nullopt});
  for (const auto& fo : Workload(2000, 3)) {
    ASSERT_TRUE(pipeline.Insert(fo).ok());
  }
  auto updates = pipeline.Flush();
  EXPECT_FALSE(updates.empty());
  AggregationStats stats = pipeline.Stats();
  EXPECT_EQ(stats.offer_count, 2000u);
  EXPECT_GT(stats.compression_ratio, 2.0);
  EXPECT_EQ(stats.aggregate_count, pipeline.aggregates().size());
}

TEST(PipelineTest, BatchInsertMatchesIncrementalInsert) {
  std::vector<FlexOffer> offers = Workload(2000, 3);
  AggregationPipeline incremental({AggregationParams::P3(), std::nullopt});
  for (const auto& fo : offers) {
    ASSERT_TRUE(incremental.Insert(fo).ok());
  }
  incremental.Flush();

  AggregationPipeline batch({AggregationParams::P3(), std::nullopt});
  ASSERT_TRUE(batch.Insert(std::span<const FlexOffer>(offers)).ok());
  batch.Flush();

  EXPECT_EQ(batch.Stats().offer_count, incremental.Stats().offer_count);
  EXPECT_EQ(batch.Stats().aggregate_count,
            incremental.Stats().aggregate_count);
  EXPECT_EQ(batch.num_groups(), incremental.num_groups());

  // A duplicate in the batch surfaces as AlreadyExists.
  EXPECT_EQ(batch.Insert(std::span<const FlexOffer>(offers)).code(),
            StatusCode::kAlreadyExists);
}

TEST(PipelineTest, P0HasZeroFlexibilityLoss) {
  AggregationPipeline pipeline({AggregationParams::P0(), std::nullopt});
  for (const auto& fo : Workload(2000, 4)) {
    ASSERT_TRUE(pipeline.Insert(fo).ok());
  }
  pipeline.Flush();
  EXPECT_DOUBLE_EQ(pipeline.Stats().avg_time_flexibility_loss, 0.0);
}

TEST(PipelineTest, TolerantCombosLoseNoMoreThanTolerance) {
  AggregationPipeline pipeline({AggregationParams::P1(), std::nullopt});
  for (const auto& fo : Workload(2000, 5)) {
    ASSERT_TRUE(pipeline.Insert(fo).ok());
  }
  pipeline.Flush();
  // With a time-flexibility tolerance of 8, per-offer loss is at most 8.
  EXPECT_LE(pipeline.Stats().avg_time_flexibility_loss, 8.0);
  for (const auto& [id, agg] : pipeline.aggregates()) {
    int64_t macro_tf = agg.macro.TimeFlexibility();
    for (const auto& m : agg.members) {
      EXPECT_LE(m.offer.TimeFlexibility() - macro_tf, 8);
    }
  }
}

TEST(PipelineTest, AllAggregatesValid) {
  AggregationPipeline pipeline({AggregationParams::P2(), std::nullopt});
  for (const auto& fo : Workload(3000, 6)) {
    ASSERT_TRUE(pipeline.Insert(fo).ok());
  }
  pipeline.Flush();
  for (const auto& [id, agg] : pipeline.aggregates()) {
    ASSERT_TRUE(agg.Validate().ok());
  }
}

TEST(PipelineTest, InvalidOfferRejectedAtInsert) {
  AggregationPipeline pipeline({AggregationParams::P0(), std::nullopt});
  FlexOffer bad;
  bad.id = 1;
  EXPECT_FALSE(pipeline.Insert(bad).ok());  // empty profile
}

TEST(PipelineTest, RemoveShrinksAggregates) {
  AggregationPipeline pipeline({AggregationParams::P0(), std::nullopt});
  auto offers = Workload(100, 7);
  for (const auto& fo : offers) {
    ASSERT_TRUE(pipeline.Insert(fo).ok());
  }
  pipeline.Flush();
  size_t before = pipeline.Stats().offer_count;
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(pipeline.Remove(offers[i].id).ok());
  }
  pipeline.Flush();
  EXPECT_EQ(pipeline.Stats().offer_count, before - 50);
  for (const auto& [id, agg] : pipeline.aggregates()) {
    ASSERT_TRUE(agg.Validate().ok());
  }
}

TEST(PipelineTest, RemoveAllDeletesAllAggregates) {
  AggregationPipeline pipeline({AggregationParams::P3(), std::nullopt});
  auto offers = Workload(200, 8);
  for (const auto& fo : offers) {
    ASSERT_TRUE(pipeline.Insert(fo).ok());
  }
  pipeline.Flush();
  for (const auto& fo : offers) {
    ASSERT_TRUE(pipeline.Remove(fo.id).ok());
  }
  auto updates = pipeline.Flush();
  EXPECT_EQ(pipeline.aggregates().size(), 0u);
  for (const auto& u : updates) {
    EXPECT_EQ(u.kind, UpdateKind::kDeleted);
  }
}

TEST(PipelineTest, IncrementalEqualsBatchMembership) {
  // Inserting in two batches must yield the same offer->aggregate coverage
  // as one batch (aggregate ids may differ).
  auto offers = Workload(500, 9);
  AggregationPipeline batched({AggregationParams::P2(), std::nullopt});
  for (const auto& fo : offers) {
    ASSERT_TRUE(batched.Insert(fo).ok());
  }
  batched.Flush();

  AggregationPipeline incremental({AggregationParams::P2(), std::nullopt});
  for (size_t i = 0; i < 250; ++i) {
    ASSERT_TRUE(incremental.Insert(offers[i]).ok());
  }
  incremental.Flush();
  for (size_t i = 250; i < offers.size(); ++i) {
    ASSERT_TRUE(incremental.Insert(offers[i]).ok());
  }
  incremental.Flush();

  EXPECT_EQ(batched.Stats().offer_count, incremental.Stats().offer_count);
  EXPECT_EQ(batched.Stats().aggregate_count,
            incremental.Stats().aggregate_count);
  for (const auto& [id, agg] : incremental.aggregates()) {
    ASSERT_TRUE(agg.Validate().ok());
  }
}

TEST(PipelineTest, BinPackerBoundsAggregateSizes) {
  PipelineConfig config;
  config.params = AggregationParams::P3();
  BinPackerBounds bounds;
  bounds.max_offers = 16;
  config.bin_packer = bounds;
  AggregationPipeline pipeline(config);
  for (const auto& fo : Workload(2000, 10)) {
    ASSERT_TRUE(pipeline.Insert(fo).ok());
  }
  pipeline.Flush();
  for (const auto& [id, agg] : pipeline.aggregates()) {
    EXPECT_LE(agg.members.size(), 16u);
    ASSERT_TRUE(agg.Validate().ok());
  }
  EXPECT_EQ(pipeline.Stats().offer_count, 2000u);
}

TEST(PipelineTest, DisaggregateScheduleRoundTrip) {
  AggregationPipeline pipeline({AggregationParams::P1(), std::nullopt});
  auto offers = Workload(300, 11);
  for (const auto& fo : offers) {
    ASSERT_TRUE(pipeline.Insert(fo).ok());
  }
  pipeline.Flush();
  size_t micro_total = 0;
  for (const auto& [id, agg] : pipeline.aggregates()) {
    ScheduledFlexOffer s;
    s.offer_id = id;
    s.start = agg.macro.earliest_start;
    for (const auto& band : agg.macro.profile) {
      s.energies_kwh.push_back(band.max_kwh);
    }
    auto micro = pipeline.DisaggregateSchedule(s);
    ASSERT_TRUE(micro.ok());
    micro_total += micro->size();
  }
  EXPECT_EQ(micro_total, offers.size());
}

TEST(PipelineTest, DisaggregateUnknownAggregateNotFound) {
  AggregationPipeline pipeline({AggregationParams::P0(), std::nullopt});
  ScheduledFlexOffer s;
  s.offer_id = 4242;
  EXPECT_EQ(pipeline.DisaggregateSchedule(s).status().code(),
            StatusCode::kNotFound);
}

/// Property: under every parameter combination, all aggregates stay valid
/// and account for every inserted offer through insert/remove churn.
class PipelineChurn
    : public ::testing::TestWithParam<
          std::pair<const char*, AggregationParams>> {};

TEST_P(PipelineChurn, StaysConsistent) {
  AggregationPipeline pipeline({GetParam().second, std::nullopt});
  auto offers = Workload(400, 12);
  // Insert all, remove every third, insert 100 fresh ones.
  for (const auto& fo : offers) {
    ASSERT_TRUE(pipeline.Insert(fo).ok());
  }
  pipeline.Flush();
  size_t removed = 0;
  for (size_t i = 0; i < offers.size(); i += 3) {
    ASSERT_TRUE(pipeline.Remove(offers[i].id).ok());
    ++removed;
  }
  pipeline.Flush();
  datagen::FlexOfferWorkloadConfig fresh_cfg;
  fresh_cfg.count = 100;
  fresh_cfg.seed = 999;
  auto fresh = datagen::GenerateFlexOffers(fresh_cfg);
  for (auto& fo : fresh) {
    fo.id += 100000;  // avoid id collisions
    ASSERT_TRUE(pipeline.Insert(fo).ok());
  }
  pipeline.Flush();

  EXPECT_EQ(pipeline.Stats().offer_count, offers.size() - removed + 100);
  for (const auto& [id, agg] : pipeline.aggregates()) {
    ASSERT_TRUE(agg.Validate().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Combos, PipelineChurn,
    ::testing::Values(std::make_pair("P0", AggregationParams::P0()),
                      std::make_pair("P1", AggregationParams::P1()),
                      std::make_pair("P2", AggregationParams::P2()),
                      std::make_pair("P3", AggregationParams::P3())),
    [](const auto& info) { return info.param.first; });

}  // namespace
}  // namespace mirabel::aggregation

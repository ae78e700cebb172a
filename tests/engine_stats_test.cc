// EngineStats::Merge must cover every field — shard stats are summed by the
// sharded runtime, and a silently-dropped field would corrupt merged
// reporting. The member count itself is pinned at compile time: Merge()
// destructures the whole struct (and static_asserts its size), so adding a
// field without extending it fails the build before this test even runs.
#include <gtest/gtest.h>

#include "edms/edms_engine.h"

namespace mirabel::edms {
namespace {

/// Distinct per-field values so a dropped or cross-wired field shows up.
EngineStats Filled(int64_t base) {
  EngineStats s;
  s.offers_received = base + 1;
  s.submit_batches = base + 2;
  s.offers_accepted = base + 3;
  s.offers_rejected = base + 4;
  s.scheduling_runs = base + 5;
  s.macros_scheduled = base + 6;
  s.micro_schedules_sent = base + 7;
  s.offers_expired_in_pipeline = base + 8;
  s.offers_executed = base + 9;
  s.payments_eur = static_cast<double>(base) + 10.5;
  s.imbalance_before_kwh = static_cast<double>(base) + 11.5;
  s.imbalance_after_kwh = static_cast<double>(base) + 12.5;
  s.schedule_cost_eur = static_cast<double>(base) + 13.5;
  s.budget_saved_s = static_cast<double>(base) + 14.5;
  s.intake_errors = base + 15;
  s.metering_failures = base + 16;
  s.offers_shed = base + 17;
  s.offers_dropped_at_shutdown = base + 18;
  s.macros_expired_unscheduled = base + 19;
  s.executions_timed_out = base + 20;
  s.invariant_violations = base + 21;
  s.portfolio_wins_greedy = base + 22;
  s.portfolio_wins_ea = base + 23;
  s.portfolio_wins_bnb = base + 24;
  s.bnb_optimal_proven = base + 25;
  return s;
}

void ExpectSum(const EngineStats& merged, int64_t a, int64_t b) {
  EXPECT_EQ(merged.offers_received, a + b + 2);
  EXPECT_EQ(merged.submit_batches, a + b + 4);
  EXPECT_EQ(merged.offers_accepted, a + b + 6);
  EXPECT_EQ(merged.offers_rejected, a + b + 8);
  EXPECT_EQ(merged.scheduling_runs, a + b + 10);
  EXPECT_EQ(merged.macros_scheduled, a + b + 12);
  EXPECT_EQ(merged.micro_schedules_sent, a + b + 14);
  EXPECT_EQ(merged.offers_expired_in_pipeline, a + b + 16);
  EXPECT_EQ(merged.offers_executed, a + b + 18);
  EXPECT_DOUBLE_EQ(merged.payments_eur, static_cast<double>(a + b) + 21.0);
  EXPECT_DOUBLE_EQ(merged.imbalance_before_kwh,
                   static_cast<double>(a + b) + 23.0);
  EXPECT_DOUBLE_EQ(merged.imbalance_after_kwh,
                   static_cast<double>(a + b) + 25.0);
  EXPECT_DOUBLE_EQ(merged.schedule_cost_eur, static_cast<double>(a + b) + 27.0);
  EXPECT_DOUBLE_EQ(merged.budget_saved_s, static_cast<double>(a + b) + 29.0);
  EXPECT_EQ(merged.intake_errors, a + b + 30);
  EXPECT_EQ(merged.metering_failures, a + b + 32);
  EXPECT_EQ(merged.offers_shed, a + b + 34);
  EXPECT_EQ(merged.offers_dropped_at_shutdown, a + b + 36);
  EXPECT_EQ(merged.macros_expired_unscheduled, a + b + 38);
  EXPECT_EQ(merged.executions_timed_out, a + b + 40);
  EXPECT_EQ(merged.invariant_violations, a + b + 42);
  EXPECT_EQ(merged.portfolio_wins_greedy, a + b + 44);
  EXPECT_EQ(merged.portfolio_wins_ea, a + b + 46);
  EXPECT_EQ(merged.portfolio_wins_bnb, a + b + 48);
  EXPECT_EQ(merged.bnb_optimal_proven, a + b + 50);
}

TEST(EngineStatsTest, MergeCoversEveryField) {
  EngineStats a = Filled(100);
  EngineStats b = Filled(2000);
  a.Merge(b);
  ExpectSum(a, 100, 2000);
}

TEST(EngineStatsTest, PlusOperatorsMatchMerge) {
  EngineStats a = Filled(100);
  a += Filled(2000);
  ExpectSum(a, 100, 2000);
  ExpectSum(Filled(100) + Filled(2000), 100, 2000);
}

TEST(EngineStatsTest, MergingDefaultIsIdentity) {
  EngineStats a = Filled(7);
  EngineStats before = a;
  a.Merge(EngineStats{});
  EXPECT_EQ(a.offers_received, before.offers_received);
  EXPECT_EQ(a.offers_executed, before.offers_executed);
  EXPECT_DOUBLE_EQ(a.schedule_cost_eur, before.schedule_cost_eur);
}

}  // namespace
}  // namespace mirabel::edms

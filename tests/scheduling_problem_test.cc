#include "scheduling/scheduling_problem.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "scheduling/compiled_problem.h"
#include "scheduling/scenario.h"

namespace mirabel::scheduling {
namespace {

using flexoffer::FlexOffer;
using flexoffer::FlexOfferBuilder;

/// Two-slice horizon, one offer, hand-checkable numbers.
SchedulingProblem TinyProblem() {
  SchedulingProblem p;
  p.horizon_start = 0;
  p.horizon_length = 4;
  p.baseline_imbalance_kwh = {2.0, -3.0, 0.0, 1.0};
  p.imbalance_penalty_eur = {1.0, 1.0, 1.0, 1.0};
  p.market.buy_price_eur = {0.5, 0.5, 0.5, 0.5};
  p.market.sell_price_eur = {0.2, 0.2, 0.2, 0.2};
  p.market.max_buy_kwh = 1.0;
  p.market.max_sell_kwh = 1.0;
  FlexOffer fo = FlexOfferBuilder(1)
                     .StartWindow(0, 2)
                     .AddSlice(1.0, 2.0)
                     .AddSlice(1.0, 1.0)
                     .Build();
  p.offers.push_back(fo);
  return p;
}

TEST(SchedulingProblemTest, ValidProblemValidates) {
  EXPECT_TRUE(TinyProblem().Validate().ok());
}

TEST(SchedulingProblemTest, RejectsBadHorizon) {
  SchedulingProblem p = TinyProblem();
  p.horizon_length = 0;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(SchedulingProblemTest, RejectsVectorSizeMismatch) {
  SchedulingProblem p = TinyProblem();
  p.imbalance_penalty_eur.pop_back();
  EXPECT_FALSE(p.Validate().ok());
}

TEST(SchedulingProblemTest, RejectsOfferOutsideHorizon) {
  SchedulingProblem p = TinyProblem();
  p.offers[0].latest_start = 3;  // profile would end at slice 5 > 4
  EXPECT_FALSE(p.Validate().ok());
}

TEST(SchedulingProblemTest, NonFiniteSliceInputsRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  {
    SchedulingProblem p = TinyProblem();
    p.baseline_imbalance_kwh[1] = nan;
    EXPECT_EQ(p.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    SchedulingProblem p = TinyProblem();
    p.imbalance_penalty_eur[2] = inf;
    EXPECT_EQ(p.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    SchedulingProblem p = TinyProblem();
    p.market.buy_price_eur[0] = inf;
    EXPECT_EQ(p.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    SchedulingProblem p = TinyProblem();
    p.market.sell_price_eur[3] = -inf;
    EXPECT_EQ(p.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    SchedulingProblem p = TinyProblem();
    p.market.max_buy_kwh = -1.0;
    EXPECT_EQ(p.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    SchedulingProblem p = TinyProblem();
    p.market.max_sell_kwh = nan;
    EXPECT_EQ(p.Validate().code(), StatusCode::kInvalidArgument);
  }
  // Unbounded caps (the MarketAccess default) and zero caps stay valid.
  SchedulingProblem p = TinyProblem();
  p.market.max_buy_kwh = inf;
  p.market.max_sell_kwh = 0.0;
  EXPECT_TRUE(p.Validate().ok());
}

// The cost model, evaluated by the SoA kernel (CompiledProblem +
// ScheduleWorkspace) on hand-checkable instances.

TEST(ScheduleWorkspaceTest, DefaultScheduleIsEarliestMaxFill) {
  SchedulingProblem p = TinyProblem();
  CompiledProblem cp(p);
  ScheduleWorkspace ws(cp);
  EXPECT_EQ(ws.start(0), 0);
  EXPECT_DOUBLE_EQ(ws.fill(0), 1.0);
}

TEST(ScheduleWorkspaceTest, HandComputedCost) {
  SchedulingProblem p = TinyProblem();
  CompiledProblem cp(p);
  ScheduleWorkspace ws(cp);
  // Offer at start 0, fill 1: energies 2,1 -> net = {4, -2, 0, 1}.
  // Slice 0: deficit 4, buy 1 @0.5, remaining 3 @1.0      -> 0.5 + 3.0
  // Slice 1: surplus 2, sell 1 @0.2 (revenue), 1 penalty  -> -0.2 + 1.0
  // Slice 2: balanced                                      -> 0
  // Slice 3: deficit 1, buy 1 @0.5                         -> 0.5
  // Activation: unit price 0 -> 0.
  ScheduleCost cost = ws.Cost(cp);
  EXPECT_NEAR(cost.market_eur, 0.5 - 0.2 + 0.5, 1e-9);
  EXPECT_NEAR(cost.imbalance_eur, 3.0 + 1.0, 1e-9);
  EXPECT_NEAR(cost.flex_activation_eur, 0.0, 1e-9);
  EXPECT_NEAR(cost.total(), 4.8, 1e-9);
}

TEST(ScheduleWorkspaceTest, ActivationCostUsesUnitPrice) {
  SchedulingProblem p = TinyProblem();
  p.offers[0].unit_price_eur = 0.1;
  CompiledProblem cp(p);
  // 3 kWh scheduled at 0.1 EUR/kWh.
  EXPECT_NEAR(ScheduleWorkspace(cp).Cost(cp).flex_activation_eur, 0.3, 1e-9);
}

TEST(ScheduleWorkspaceTest, MovingOfferToSurplusSliceReducesCost) {
  SchedulingProblem p = TinyProblem();
  CompiledProblem cp(p);
  ScheduleWorkspace ws(cp);
  double before = ws.Cost(cp).total();
  // Start 1 puts the big slice onto the surplus: net = {2, -1, 1, 1}.
  ws.ApplyMove(cp, 0, 1, 1.0);
  EXPECT_LT(ws.Cost(cp).total(), before);
}

TEST(ScheduleWorkspaceTest, SetScheduleRejectsInfeasible) {
  SchedulingProblem p = TinyProblem();
  CompiledProblem cp(p);
  ScheduleWorkspace ws(cp);
  Schedule s;
  s.assignments = {{3, 1.0}};  // start after latest_start
  EXPECT_FALSE(ws.SetSchedule(cp, s).ok());
  s.assignments = {{1, 1.5}};  // fill > 1
  EXPECT_FALSE(ws.SetSchedule(cp, s).ok());
  s.assignments = {{1, 0.5}, {0, 1.0}};  // wrong count
  EXPECT_FALSE(ws.SetSchedule(cp, s).ok());
}

TEST(ScheduleWorkspaceTest, TryMoveMatchesFullReevaluation) {
  ScenarioConfig cfg;
  cfg.num_offers = 30;
  cfg.seed = 91;
  SchedulingProblem p = MakeScenario(cfg);
  ASSERT_TRUE(p.Validate().ok());
  CompiledProblem cp(p);
  ScheduleWorkspace ws(cp);
  ScheduleWorkspace scratch(cp);
  Schedule moved;
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    size_t i = rng.Index(p.offers.size());
    const FlexOffer& fo = p.offers[i];
    OfferAssignment candidate{
        fo.earliest_start + rng.UniformInt(0, fo.TimeFlexibility()),
        rng.NextDouble()};
    double delta = ws.TryMove(cp, i, candidate.start, candidate.fill);

    ws.ExportSchedule(&moved);
    moved.assignments[i] = candidate;
    auto full = scratch.EvaluateInto(cp, moved);
    ASSERT_TRUE(full.ok());
    EXPECT_NEAR(ws.Cost(cp).total() + delta, *full, 1e-6) << "trial " << trial;
    // Occasionally apply the move so the walk covers many states.
    if (trial % 3 == 0) ws.ApplyMove(cp, i, candidate.start, candidate.fill);
  }
}

TEST(ScheduleWorkspaceTest, ExportedOffersValidate) {
  ScenarioConfig cfg;
  cfg.num_offers = 25;
  cfg.seed = 92;
  cfg.production_fraction = 0.4;
  SchedulingProblem p = MakeScenario(cfg);
  CompiledProblem cp(p);
  ScheduleWorkspace ws(cp);
  Rng rng(3);
  for (size_t i = 0; i < p.offers.size(); ++i) {
    const FlexOffer& fo = p.offers[i];
    const flexoffer::TimeSlice start =
        fo.earliest_start + rng.UniformInt(0, fo.TimeFlexibility());
    ws.ApplyMove(cp, i, start, rng.NextDouble());
  }
  auto scheduled = ws.ExportScheduledOffers(cp);
  ASSERT_EQ(scheduled.size(), p.offers.size());
  for (size_t i = 0; i < scheduled.size(); ++i) {
    EXPECT_TRUE(scheduled[i].ValidateAgainst(p.offers[i]).ok());
  }
}

TEST(ScheduleWorkspaceTest, MarketCapsLimitTrades) {
  SchedulingProblem p = TinyProblem();
  p.market.max_buy_kwh = 0.0;
  p.market.max_sell_kwh = 0.0;
  CompiledProblem cp(p);
  // With no market access every deviation is imbalance: |4|+|2|+0+|1| = 7.
  ScheduleCost cost = ScheduleWorkspace(cp).Cost(cp);
  EXPECT_NEAR(cost.market_eur, 0.0, 1e-9);
  EXPECT_NEAR(cost.imbalance_eur, 7.0, 1e-9);
}

TEST(ScheduleWorkspaceTest, ExpensiveBuyingIsSkipped) {
  SchedulingProblem p = TinyProblem();
  p.market.buy_price_eur = {2.0, 2.0, 2.0, 2.0};  // above the penalty
  CompiledProblem cp(p);
  ScheduleCost cost = ScheduleWorkspace(cp).Cost(cp);
  // No buying: slice 0 deficit 4 and slice 3 deficit 1 are pure imbalance;
  // slice 1 surplus still sells 1.
  EXPECT_NEAR(cost.market_eur, -0.2, 1e-9);
  EXPECT_NEAR(cost.imbalance_eur, 4.0 + 1.0 + 1.0, 1e-9);
}

}  // namespace
}  // namespace mirabel::scheduling

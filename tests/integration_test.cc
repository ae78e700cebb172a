// Cross-module integration tests: the full aggregate -> schedule ->
// disaggregate path at realistic scale (the paper's core pipeline, §8), plus
// forecasting feeding scheduling.
#include <gtest/gtest.h>

#include "aggregation/pipeline.h"
#include "common/math_util.h"
#include "datagen/energy_series_generator.h"
#include "datagen/flex_offer_generator.h"
#include "forecasting/forecaster.h"
#include "scheduling/compiled_problem.h"
#include "scheduling/scenario.h"
#include "scheduling/scheduler.h"

namespace mirabel {
namespace {

using aggregation::AggregationParams;
using aggregation::AggregationPipeline;
using flexoffer::FlexOffer;
using flexoffer::kSlicesPerDay;
using flexoffer::ScheduledFlexOffer;

/// End-to-end property over the three components: for every aggregation
/// parameter combination, every offer of a generated workload is aggregated,
/// the macro offers are scheduled, and the disaggregated micro schedules
/// respect all original constraints while summing to the macro schedules.
class EndToEndPipeline
    : public ::testing::TestWithParam<std::pair<const char*, AggregationParams>> {
};

TEST_P(EndToEndPipeline, AggregateScheduleDisaggregate) {
  datagen::FlexOfferWorkloadConfig workload;
  workload.count = 1500;
  workload.seed = 1212;
  workload.horizon_days = 1;
  std::vector<FlexOffer> offers = datagen::GenerateFlexOffers(workload);

  AggregationPipeline pipeline({GetParam().second, std::nullopt});
  for (const auto& fo : offers) {
    ASSERT_TRUE(pipeline.Insert(fo).ok());
  }
  pipeline.Flush();
  ASSERT_GT(pipeline.aggregates().size(), 0u);
  ASSERT_LT(pipeline.aggregates().size(), offers.size());

  // Schedule all macro offers that fit a 2.5-day horizon (the generated
  // windows extend past day 1).
  scheduling::SchedulingProblem problem;
  problem.horizon_start = 0;
  problem.horizon_length = kSlicesPerDay * 5 / 2;
  size_t h = static_cast<size_t>(problem.horizon_length);
  problem.baseline_imbalance_kwh.assign(h, 0.0);
  for (size_t s = 0; s < h; ++s) {
    problem.baseline_imbalance_kwh[s] =
        20.0 - 45.0 * (s % 96 > 40 && s % 96 < 70 ? 1.0 : 0.0);
  }
  problem.imbalance_penalty_eur.assign(h, 0.3);
  problem.market.buy_price_eur.assign(h, 0.15);
  problem.market.sell_price_eur.assign(h, 0.04);
  problem.market.max_buy_kwh = 10.0;
  problem.market.max_sell_kwh = 10.0;
  size_t member_count = 0;
  for (const auto& [id, agg] : pipeline.aggregates()) {
    ASSERT_GE(agg.macro.earliest_start, 0);
    ASSERT_LE(agg.macro.LatestEnd(), problem.horizon_length);
    problem.offers.push_back(agg.macro);
    member_count += agg.members.size();
  }
  ASSERT_EQ(member_count, offers.size());
  ASSERT_TRUE(problem.Validate().ok());

  scheduling::GreedyScheduler scheduler;
  scheduling::SchedulerOptions options;
  options.time_budget_s = 0.0;
  options.max_iterations = static_cast<int>(problem.offers.size());
  auto run = scheduler.Run(problem, options);
  ASSERT_TRUE(run.ok());

  scheduling::CompiledProblem compiled(problem);
  scheduling::ScheduleWorkspace workspace(compiled);
  ASSERT_TRUE(workspace.SetSchedule(compiled, run->schedule).ok());
  std::unordered_map<flexoffer::FlexOfferId, const FlexOffer*> offer_by_id;
  for (const auto& fo : offers) offer_by_id[fo.id] = &fo;

  size_t micro_count = 0;
  for (const auto& macro_schedule : workspace.ExportScheduledOffers(compiled)) {
    auto micro = pipeline.DisaggregateSchedule(macro_schedule);
    ASSERT_TRUE(micro.ok());
    double macro_total = macro_schedule.TotalEnergy();
    double micro_total = 0.0;
    for (const auto& s : *micro) {
      auto it = offer_by_id.find(s.offer_id);
      ASSERT_NE(it, offer_by_id.end());
      ASSERT_TRUE(s.ValidateAgainst(*it->second).ok());
      micro_total += s.TotalEnergy();
      ++micro_count;
    }
    EXPECT_NEAR(micro_total, macro_total, 1e-5);
  }
  EXPECT_EQ(micro_count, offers.size());
}

INSTANTIATE_TEST_SUITE_P(
    Combos, EndToEndPipeline,
    ::testing::Values(std::make_pair("P0", AggregationParams::P0()),
                      std::make_pair("P1", AggregationParams::P1()),
                      std::make_pair("P2", AggregationParams::P2()),
                      std::make_pair("P3", AggregationParams::P3())),
    [](const auto& info) { return info.param.first; });

TEST(ForecastToScheduleTest, ForecastDrivesImbalanceCurve) {
  // Train the forecaster on synthetic history, build a scheduling problem
  // from its forecast, and verify scheduling against the forecast beats the
  // fallback placement (the forecasting->scheduling interplay of §8).
  datagen::DemandSeriesConfig dcfg;
  dcfg.periods_per_day = kSlicesPerDay;
  dcfg.days = 15;
  dcfg.base_load_mw = 100.0;
  dcfg.daily_amplitude = 40.0;
  dcfg.weekly_amplitude = 10.0;
  dcfg.annual_amplitude = 0.0;
  dcfg.noise_stddev = 2.0;
  auto demand = datagen::GenerateDemandSeries(dcfg);

  forecasting::ForecasterConfig fcfg;
  fcfg.seasonal_periods = {kSlicesPerDay, 7 * kSlicesPerDay};
  fcfg.initial_estimation = {0.2, 0, 4};
  forecasting::Forecaster forecaster(fcfg);
  ASSERT_TRUE(
      forecaster.Train(forecasting::TimeSeries(demand, kSlicesPerDay)).ok());
  auto forecast = forecaster.Forecast(kSlicesPerDay);
  ASSERT_TRUE(forecast.ok());

  scheduling::ScenarioConfig scfg;
  scfg.num_offers = 60;
  scfg.seed = 4;
  scheduling::SchedulingProblem problem = scheduling::MakeScenario(scfg);
  for (size_t s = 0; s < problem.baseline_imbalance_kwh.size(); ++s) {
    problem.baseline_imbalance_kwh[s] = ((*forecast)[s] - 100.0);
  }

  scheduling::CompiledProblem compiled(problem);
  double fallback_cost =
      scheduling::ScheduleWorkspace(compiled).Cost(compiled).total();
  scheduling::GreedyScheduler scheduler;
  scheduling::SchedulerOptions options;
  options.time_budget_s = 0.0;
  options.max_iterations = 120;
  auto run = scheduler.Run(problem, options);
  ASSERT_TRUE(run.ok());
  EXPECT_LT(run->cost.total(), fallback_cost);
}

TEST(AggregationSchedulingTradeoffTest, MoreAggressiveAggregationIsFaster) {
  // §8's aggregation/scheduling interplay: stronger compression leaves the
  // scheduler fewer objects. We check the structural half (fewer macros and
  // at-most-equal flexibility) deterministically.
  datagen::FlexOfferWorkloadConfig workload;
  workload.count = 3000;
  workload.seed = 55;
  auto offers = datagen::GenerateFlexOffers(workload);

  AggregationPipeline weak({AggregationParams::P0(), std::nullopt});
  AggregationPipeline strong({AggregationParams::P3(), std::nullopt});
  for (const auto& fo : offers) {
    ASSERT_TRUE(weak.Insert(fo).ok());
    ASSERT_TRUE(strong.Insert(fo).ok());
  }
  weak.Flush();
  strong.Flush();
  EXPECT_LT(strong.aggregates().size(), weak.aggregates().size());
  EXPECT_GE(strong.Stats().avg_time_flexibility_loss,
            weak.Stats().avg_time_flexibility_loss);
}

}  // namespace
}  // namespace mirabel

// Google-benchmark micro-benchmarks of the hot operations under the paper's
// experiments: grouping-key computation and n-to-1 aggregation (Fig. 5),
// disaggregation (Fig. 5d), HWT model update/forecast (Fig. 4), and the
// scheduler's incremental cost evaluation (Fig. 6).
#include <benchmark/benchmark.h>

#include "gbench_json_reporter.h"

#include "aggregation/aggregated_flex_offer.h"
#include "aggregation/aggregation_params.h"
#include "common/rng.h"
#include "datagen/energy_series_generator.h"
#include "datagen/flex_offer_generator.h"
#include "forecasting/hwt_model.h"
#include "scheduling/compiled_problem.h"
#include "scheduling/scenario.h"
#include "scheduling/scheduler.h"

namespace {

using namespace mirabel;  // NOLINT: bench brevity

std::vector<flexoffer::FlexOffer> MakeOffers(int64_t n) {
  datagen::FlexOfferWorkloadConfig cfg;
  cfg.count = n;
  cfg.seed = 5;
  return datagen::GenerateFlexOffers(cfg);
}

void BM_GroupKey(benchmark::State& state) {
  auto offers = MakeOffers(1024);
  auto params = aggregation::AggregationParams::P3();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        aggregation::MakeGroupKey(offers[i++ % offers.size()], params));
  }
}
BENCHMARK(BM_GroupKey);

void BM_BuildAggregate(benchmark::State& state) {
  auto offers = MakeOffers(state.range(0));
  for (auto _ : state) {
    auto agg = aggregation::BuildAggregate(1, offers);
    benchmark::DoNotOptimize(agg);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildAggregate)->Arg(16)->Arg(256)->Arg(4096);

void BM_AddMemberIncremental(benchmark::State& state) {
  auto offers = MakeOffers(4096);
  auto seed = aggregation::BuildAggregate(
      1, {offers.begin(), offers.begin() + 16});
  size_t i = 16;
  for (auto _ : state) {
    state.PauseTiming();
    aggregation::AggregatedFlexOffer agg = *seed;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        aggregation::AddMember(offers[i++ % offers.size()], &agg));
  }
}
BENCHMARK(BM_AddMemberIncremental);

void BM_Disaggregate(benchmark::State& state) {
  auto offers = MakeOffers(state.range(0));
  auto agg = aggregation::BuildAggregate(1, offers);
  flexoffer::ScheduledFlexOffer s;
  s.offer_id = 1;
  s.start = agg->macro.earliest_start;
  for (const auto& band : agg->macro.profile) {
    s.energies_kwh.push_back(0.5 * (band.min_kwh + band.max_kwh));
  }
  for (auto _ : state) {
    auto micro = aggregation::Disaggregate(*agg, s);
    benchmark::DoNotOptimize(micro);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Disaggregate)->Arg(16)->Arg(256)->Arg(4096);

void BM_HwtUpdate(benchmark::State& state) {
  datagen::DemandSeriesConfig cfg;
  cfg.periods_per_day = 48;
  cfg.days = 15;
  auto values = datagen::GenerateDemandSeries(cfg);
  forecasting::HwtModel model({48, 336});
  forecasting::TimeSeries series(values, 48);
  (void)model.FitWithParams(series, model.DefaultParams());
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Update(35000.0 + rng.Gaussian(0, 500)));
  }
}
BENCHMARK(BM_HwtUpdate);

void BM_HwtForecastDay(benchmark::State& state) {
  datagen::DemandSeriesConfig cfg;
  cfg.periods_per_day = 48;
  cfg.days = 15;
  auto values = datagen::GenerateDemandSeries(cfg);
  forecasting::HwtModel model({48, 336});
  forecasting::TimeSeries series(values, 48);
  (void)model.FitWithParams(series, model.DefaultParams());
  for (auto _ : state) {
    auto f = model.Forecast(48);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_HwtForecastDay);

void BM_HwtFit8Weeks(benchmark::State& state) {
  datagen::DemandSeriesConfig cfg;
  cfg.periods_per_day = 48;
  cfg.days = 56;
  auto values = datagen::GenerateDemandSeries(cfg);
  forecasting::HwtModel model({48, 336});
  forecasting::TimeSeries series(values, 48);
  auto params = model.DefaultParams();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.FitWithParams(series, params));
  }
}
BENCHMARK(BM_HwtFit8Weeks);

void BM_TryMove(benchmark::State& state) {
  scheduling::ScenarioConfig cfg;
  cfg.num_offers = static_cast<int>(state.range(0));
  auto problem = scheduling::MakeScenario(cfg);
  scheduling::CompiledProblem compiled(problem);
  scheduling::ScheduleWorkspace workspace(compiled);
  Rng rng(9);
  for (auto _ : state) {
    size_t i = rng.Index(problem.offers.size());
    const auto& fo = problem.offers[i];
    const flexoffer::TimeSlice start =
        fo.earliest_start + rng.UniformInt(0, fo.TimeFlexibility());
    const double fill = rng.NextDouble();
    benchmark::DoNotOptimize(workspace.TryMove(compiled, i, start, fill));
  }
}
BENCHMARK(BM_TryMove)->Arg(100)->Arg(1000);

void BM_FullCostEval(benchmark::State& state) {
  scheduling::ScenarioConfig cfg;
  cfg.num_offers = static_cast<int>(state.range(0));
  auto problem = scheduling::MakeScenario(cfg);
  scheduling::CompiledProblem compiled(problem);
  scheduling::ScheduleWorkspace workspace(compiled);
  scheduling::Schedule schedule;
  workspace.ExportSchedule(&schedule);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workspace.EvaluateInto(compiled, schedule));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullCostEval)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  mirabel::bench::GBenchJsonReporter reporter("micro_core");
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

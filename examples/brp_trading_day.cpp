// A balance-responsible party's trading day at realistic scale: train the
// forecasting component on 4 weeks of area history, plug it straight into a
// ShardedEdmsRuntime via ForecastBaselineProvider, stream thousands of
// prosumer flex-offers through batch intake, and let the per-shard control
// loops negotiate, aggregate (P2 + bin-packer), schedule with the
// evolutionary algorithm and disaggregate — all observed through the merged
// typed event stream. Pass a shard count as the first argument (default 1).
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "common/stopwatch.h"
#include "datagen/energy_series_generator.h"
#include "datagen/flex_offer_generator.h"
#include "edms/sharded_runtime.h"
#include "forecasting/forecaster.h"

using namespace mirabel;             // NOLINT: example brevity
using namespace mirabel::flexoffer;  // NOLINT

int main(int argc, char** argv) {
  size_t num_shards = 1;
  if (argc > 1) {
    long parsed = std::strtol(argv[1], nullptr, 10);
    num_shards = parsed < 1 ? 1 : (parsed > 64 ? 64 : static_cast<size_t>(parsed));
  }
  Stopwatch total_watch;

  // --- Forecasting: train HWT on 4 weeks of area history -------------------
  datagen::DemandSeriesConfig demand_cfg;
  demand_cfg.periods_per_day = kSlicesPerDay;
  demand_cfg.days = 29;
  demand_cfg.base_load_mw = 5000.0;  // kWh per slice at BRP scale
  demand_cfg.daily_amplitude = 1500.0;
  demand_cfg.weekly_amplitude = 400.0;
  demand_cfg.noise_stddev = 60.0;
  std::vector<double> demand_history =
      datagen::GenerateDemandSeries(demand_cfg);

  datagen::WindSeriesConfig wind_cfg;
  wind_cfg.periods_per_day = kSlicesPerDay;
  wind_cfg.days = 29;
  wind_cfg.capacity_mw = 4000.0;
  std::vector<double> wind_history = datagen::GenerateWindSeries(wind_cfg);

  // Hold out the final day: that's the trading day the engine schedules.
  size_t train = static_cast<size_t>(28 * kSlicesPerDay);
  forecasting::ForecasterConfig fc;
  fc.seasonal_periods = {kSlicesPerDay, 7 * kSlicesPerDay};
  fc.initial_estimation = {0.5, 0, 11};
  forecasting::Forecaster demand_forecaster(fc);
  forecasting::Forecaster wind_forecaster(fc);
  {
    forecasting::TimeSeries demand_series(
        std::vector<double>(demand_history.begin(),
                            demand_history.begin() + train),
        kSlicesPerDay);
    forecasting::TimeSeries wind_series(
        std::vector<double>(wind_history.begin(),
                            wind_history.begin() + train),
        kSlicesPerDay);
    if (!demand_forecaster.Train(demand_series).ok() ||
        !wind_forecaster.Train(wind_series).ok()) {
      std::cerr << "forecaster training failed\n";
      return 1;
    }
  }
  std::puts("forecasters for the trading day ready (demand + wind, HWT)");

  // --- The engine: forecasting plugged in directly -------------------------
  // Slice 0 of the engine clock is the first slice after the training
  // history; the provider forecasts demand minus wind on demand, scaled down
  // to the flexible-load magnitude (as in the paper's experiments).
  edms::EdmsEngine::Config config;
  config.actor = 100;
  config.negotiate = true;
  config.aggregation.params = aggregation::AggregationParams::P2();
  aggregation::BinPackerBounds bounds;
  bounds.max_offers = 256;
  config.aggregation.bin_packer = bounds;
  config.gate_period = 16;
  config.horizon = 2 * kSlicesPerDay;  // day + spill-over for tails
  config.scheduler_factory = [] {
    return std::make_unique<scheduling::EvolutionaryScheduler>();
  };
  config.scheduler_budget_s = 0.5;
  config.seed = 7;
  config.penalty_eur_per_kwh = 0.25;
  config.buy_price_eur = 0.12;
  config.sell_price_eur = 0.05;
  config.max_buy_kwh = 40.0;
  config.max_sell_kwh = 40.0;
  config.baseline = std::make_shared<edms::ForecastBaselineProvider>(
      &demand_forecaster, &wind_forecaster, /*origin=*/0, /*scale=*/0.01);
  edms::ShardedEdmsRuntime::Config runtime_config;
  runtime_config.num_shards = num_shards;
  runtime_config.engine = config;
  edms::ShardedEdmsRuntime engine(runtime_config);
  std::printf("runtime: %zu engine shard(s)\n", engine.num_shards());

  // --- Offers: 10k prosumer flex-offers, batch intake ----------------------
  datagen::FlexOfferWorkloadConfig workload;
  workload.count = 10000;
  workload.seed = 99;
  workload.horizon_days = 1;
  std::vector<FlexOffer> offers = datagen::GenerateFlexOffers(workload);

  // With more than one shard SubmitOffers only enqueues the batch: flush
  // the intake before reading the negotiation outcome off the stats.
  Stopwatch intake_watch;
  auto submitted = engine.SubmitOffers(offers, 0);
  Status flushed = submitted.ok() ? engine.FlushIntake() : submitted.status();
  if (!flushed.ok()) {
    std::cerr << "intake failed: " << flushed << "\n";
    return 1;
  }
  const edms::EngineStats intake = engine.stats();
  std::printf("negotiation: %lld accepted, %lld rejected, %.0f EUR "
              "flexibility payments (%.2fs)\n",
              static_cast<long long>(intake.offers_accepted),
              static_cast<long long>(intake.offers_rejected),
              intake.payments_eur, intake_watch.ElapsedSeconds());

  // --- The control loop: gates fire across the trading day -----------------
  Stopwatch loop_watch;
  size_t macros = 0;
  size_t micro_schedules = 0;
  size_t expired = 0;
  for (TimeSlice now = 0; now < 2 * kSlicesPerDay; now += config.gate_period) {
    if (Status st = engine.Advance(now); !st.ok()) {
      std::cerr << "gate failed: " << st << "\n";
      return 1;
    }
    for (const edms::Event& event : engine.PollEvents()) {
      if (std::get_if<edms::MacroPublished>(&event) != nullptr) {
        ++macros;
      } else if (std::get_if<edms::ScheduleAssigned>(&event) != nullptr) {
        ++micro_schedules;
      } else if (std::get_if<edms::OfferExpired>(&event) != nullptr) {
        ++expired;
      }
    }
  }

  const edms::EngineStats stats = engine.stats();
  size_t pooled = 0;
  for (size_t i = 0; i < engine.num_shards(); ++i) {
    pooled += engine.shard(i).pipeline().Stats().offer_count;
  }
  std::printf("control loop: %lld scheduling runs, %zu macro offers, "
              "%zu micro schedules, %zu expired (%.2fs)\n",
              static_cast<long long>(stats.scheduling_runs), macros,
              micro_schedules, expired, loop_watch.ElapsedSeconds());
  // Imbalance reduction, not the raw before/after: the raw totals count
  // the shared area baseline once per shard's scheduling problem.
  std::printf("imbalance reduced %.0f kWh, schedule cost %.0f EUR, "
              "%zu offers still pooled\n",
              stats.imbalance_before_kwh - stats.imbalance_after_kwh,
              stats.schedule_cost_eur, pooled);
  std::printf("trading day done in %.1fs\n", total_watch.ElapsedSeconds());
  if (micro_schedules == 0) {
    std::cerr << "no schedules assigned\n";
    return 1;
  }
  return 0;
}

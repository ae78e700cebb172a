// The paper's §2 use scenario, end to end:
//   Step 1  A consumer arrives home at 22:00 and plugs in the electric car;
//           the battery must be full by 07:00.
//   Step 2  The prosumer node generates a flex-offer (Fig. 3): a 2 h profile,
//           earliest start 22:00, latest start 05:00.
//   Step 3  The trader's EdmsEngine negotiates, aggregates and schedules the
//           offer against the wind forecast — charging starts when RES
//           supply peaks (the paper's run lands at 03:00) — and assigns the
//           schedule.
//   Step 4  The consumer node charges the car; the battery is full by ~05:00.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "datagen/energy_series_generator.h"
#include "edms/sharded_runtime.h"
#include "flexoffer/flex_offer.h"

using namespace mirabel;             // NOLINT: example brevity
using namespace mirabel::flexoffer;  // NOLINT

int main(int argc, char** argv) {
  // Shard-count knob: a one-offer day is single-engine work, but the same
  // code drives a partitioned trader unchanged.
  size_t num_shards = 1;
  if (argc > 1) {
    long parsed = std::strtol(argv[1], nullptr, 10);
    num_shards =
        parsed < 1 ? 1 : (parsed > 64 ? 64 : static_cast<size_t>(parsed));
  }
  // Step 1+2: the flex-offer. 2 h (8 slices) at up to 6.25 kWh/slice =
  // 50 kWh battery; the consumer allows shaving down to 5 kWh/slice.
  FlexOffer ev = FlexOfferBuilder(42)
                     .OwnedBy(7)
                     .CreatedAt(HoursToSlices(22))
                     .AssignBefore(HoursToSlices(27))  // decision due by 03:00
                     .StartWindow(HoursToSlices(22), HoursToSlices(29))
                     .AddSlices(8, 5.0, 6.25)
                     .UnitPrice(0.02)
                     .Build();
  std::printf("flex-offer: %s\n", ev.ToString().c_str());
  std::printf("  time flexibility: %lld slices (%lld h)\n",
              static_cast<long long>(ev.TimeFlexibility()),
              static_cast<long long>(ev.TimeFlexibility() / kSlicesPerHour));

  // Step 3: the trader's wind forecast for the night. Wind ramps up after
  // midnight and peaks around 02:00-05:00. The curve is indexed by absolute
  // slice and served to the engine through the BaselineProvider seam.
  datagen::WindSeriesConfig wind_cfg;
  wind_cfg.periods_per_day = kSlicesPerDay;
  wind_cfg.days = 1;
  wind_cfg.capacity_mw = 10.0;  // a small share of a wind park, in kWh/slice
  wind_cfg.mean_speed = 9.5;
  wind_cfg.seed = 3;
  std::vector<double> wind = datagen::GenerateWindSeries(wind_cfg);
  std::vector<double> imbalance(static_cast<size_t>(HoursToSlices(34)), 0.0);
  for (int t = HoursToSlices(22); t < HoursToSlices(34); ++t) {
    int slice_of_day = t % kSlicesPerDay;
    double night_household_load = 1.0;  // kWh per slice, non-flexible
    // Wind picks up after midnight: weight the synthetic series upward there.
    double wind_kwh = wind[static_cast<size_t>(slice_of_day)] *
                      (slice_of_day < 22 * 4 && slice_of_day >= 4 ? 0.9 : 0.3);
    imbalance[static_cast<size_t>(t)] = night_household_load - wind_kwh;
  }

  // The trader: one EdmsEngine negotiating with the prosumer and scheduling
  // greedily over a 10 h horizon (22:00 .. 08:00).
  edms::EdmsEngine::Config config;
  config.actor = 1;
  config.negotiate = true;
  config.horizon = HoursToSlices(10);
  config.scheduler_budget_s = 0.2;
  config.penalty_eur_per_kwh = 0.35;
  config.buy_price_eur = 0.18;
  config.sell_price_eur = 0.03;
  config.max_buy_kwh = 3.0;
  config.max_sell_kwh = 3.0;
  config.baseline =
      std::make_shared<edms::VectorBaselineProvider>(std::move(imbalance));
  edms::ShardedEdmsRuntime::Config runtime_config;
  runtime_config.num_shards = num_shards;
  runtime_config.engine = config;
  edms::ShardedEdmsRuntime engine(runtime_config);

  // Intake at 22:00; the gate closes just before the start window opens.
  const TimeSlice arrival = HoursToSlices(22);
  if (Status st = engine.SubmitOffer(ev, arrival); !st.ok()) {
    std::cerr << "submit failed: " << st << "\n";
    return 1;
  }
  if (Status st = engine.Advance(arrival - 1); !st.ok()) {
    std::cerr << "advance failed: " << st << "\n";
    return 1;
  }

  bool accepted = false;
  ScheduledFlexOffer schedule;
  for (const edms::Event& event : engine.PollEvents()) {
    if (const auto* e = std::get_if<edms::OfferAccepted>(&event)) {
      accepted = true;
      std::printf("negotiated flexibility price: %.2f EUR\n",
                  e->agreed_price_eur);
    } else if (std::get_if<edms::OfferRejected>(&event) != nullptr) {
      std::cerr << "BRP rejected the offer\n";
      return 1;
    } else if (const auto* e = std::get_if<edms::ScheduleAssigned>(&event)) {
      schedule = e->schedule;
    }
  }
  if (!accepted || schedule.offer_id != ev.id) {
    std::cerr << "no schedule assigned\n";
    return 1;
  }

  Status valid = schedule.ValidateAgainst(ev);
  std::printf("scheduled charging start: %s (%s)\n",
              FormatTimeSlice(schedule.start).c_str(),
              valid.ToString().c_str());
  std::printf("scheduled energy: %.1f kWh, schedule cost %.2f EUR\n",
              schedule.TotalEnergy(), engine.stats().schedule_cost_eur);

  // Step 4: execution timeline.
  TimeSlice done = schedule.start + ev.Duration();
  std::printf("charging runs %s .. %s; battery full before 07:00: %s\n",
              FormatTimeSlice(schedule.start).c_str(),
              FormatTimeSlice(done).c_str(),
              done <= HoursToSlices(31) ? "yes" : "NO");
  return valid.ok() ? 0 : 1;
}

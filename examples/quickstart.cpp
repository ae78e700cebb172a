// Quickstart: the full flex-offer round trip on a handful of offers, driven
// end to end by the ShardedEdmsRuntime — submit offers, advance the control
// loop, and read the life cycle off the merged typed event stream. No
// hand-wiring of negotiator / pipeline / scheduler: the runtime's engine
// shards own all three. Pass a shard count as the first argument (default 1
// = the single-engine deployment).
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "edms/sharded_runtime.h"
#include "flexoffer/flex_offer.h"

using namespace mirabel;             // NOLINT: example brevity
using namespace mirabel::flexoffer;  // NOLINT

int main(int argc, char** argv) {
  size_t num_shards = 1;
  if (argc > 1) {
    long parsed = std::strtol(argv[1], nullptr, 10);
    num_shards =
        parsed < 1 ? 1 : (parsed > 64 ? 64 : static_cast<size_t>(parsed));
  }
  // --- 1. A few household flex-offers (paper Fig. 3 style) -----------------
  // Two dishwashers and an EV charger, all willing to start tonight between
  // 22:00 and 05:00 next morning.
  std::vector<FlexOffer> offers;
  offers.push_back(FlexOfferBuilder(1)
                       .OwnedBy(501)
                       .CreatedAt(HoursToSlices(20))
                       .AssignBefore(HoursToSlices(21))
                       .StartWindow(HoursToSlices(22), HoursToSlices(26))
                       .AddSlices(4, 0.4, 0.6)  // 1 h @ ~0.5 kWh/slice
                       .UnitPrice(0.03)
                       .Build());
  offers.push_back(FlexOfferBuilder(2)
                       .OwnedBy(502)
                       .CreatedAt(HoursToSlices(20))
                       .AssignBefore(HoursToSlices(21))
                       .StartWindow(HoursToSlices(22), HoursToSlices(26))
                       .AddSlices(4, 0.3, 0.7)
                       .UnitPrice(0.02)
                       .Build());
  offers.push_back(FlexOfferBuilder(3)
                       .OwnedBy(503)
                       .CreatedAt(HoursToSlices(20))
                       .AssignBefore(HoursToSlices(21))
                       .StartWindow(HoursToSlices(22), HoursToSlices(26))
                       .AddSlices(8, 1.5, 2.5)  // EV: 2 h, up to 20 kWh
                       .UnitPrice(0.04)
                       .Build());

  // --- 2. One engine runs intake, aggregation, scheduling, disaggregation --
  // Overnight wind surplus (negative imbalance) around 01:00-05:00 that the
  // flexible load should absorb; the engine schedules against it.
  edms::EdmsEngine::Config config;
  config.actor = 100;
  config.negotiate = true;
  config.aggregation.params = aggregation::AggregationParams::P3();
  config.horizon = HoursToSlices(12);
  config.scheduler_budget_s = 0.2;
  config.penalty_eur_per_kwh = 0.30;
  config.buy_price_eur = 0.15;
  config.sell_price_eur = 0.04;
  config.max_buy_kwh = 2.0;
  config.max_sell_kwh = 2.0;
  {
    // Covers the whole scheduling horizon: the gate at 20:00 schedules
    // (20:00, 08:15], one slice past 20 + 12 hours.
    std::vector<double> imbalance(
        static_cast<size_t>(HoursToSlices(20 + 13)), 0.5);
    for (int hour = 25; hour <= 28; ++hour) {  // 01:00-05:00 wind surplus
      for (int s = HoursToSlices(hour); s < HoursToSlices(hour + 1); ++s) {
        imbalance[static_cast<size_t>(s)] = -3.0;
      }
    }
    config.baseline =
        std::make_shared<edms::VectorBaselineProvider>(std::move(imbalance));
  }
  edms::ShardedEdmsRuntime::Config runtime_config;
  runtime_config.num_shards = num_shards;
  runtime_config.engine = config;
  edms::ShardedEdmsRuntime engine(runtime_config);
  std::printf("runtime: %zu engine shard(s)\n", engine.num_shards());

  // --- 3. Batch intake + one gate closure -----------------------------------
  auto submitted = engine.SubmitOffers(offers, HoursToSlices(20));
  if (!submitted.ok()) {
    std::cerr << "submit failed: " << submitted.status() << "\n";
    return 1;
  }
  Status advanced = engine.Advance(HoursToSlices(20));
  if (!advanced.ok()) {
    std::cerr << "advance failed: " << advanced << "\n";
    return 1;
  }

  // --- 4. The life cycle, read off the event stream -------------------------
  int assigned = 0;
  for (const edms::Event& event : engine.PollEvents()) {
    if (const auto* e = std::get_if<edms::OfferAccepted>(&event)) {
      std::printf("accepted offer %llu at %.3f EUR flexibility price\n",
                  static_cast<unsigned long long>(e->offer),
                  e->agreed_price_eur);
    } else if (const auto* e = std::get_if<edms::MacroPublished>(&event)) {
      std::printf("macro offer %llu aggregates %zu member offer(s)\n",
                  static_cast<unsigned long long>(e->macro.id),
                  e->member_count);
    } else if (const auto* e = std::get_if<edms::ScheduleAssigned>(&event)) {
      const auto& s = e->schedule;
      std::printf("  offer %llu starts at %s, %.2f kWh total\n",
                  static_cast<unsigned long long>(s.offer_id),
                  FormatTimeSlice(s.start).c_str(), s.TotalEnergy());
      ++assigned;
    }
  }

  const edms::EngineStats stats = engine.stats();
  // The imbalance *reduction* is comparable across shard counts (each
  // shard's scheduling problem accounts the shared baseline once).
  std::printf("%lld offers accepted -> %lld macro(s) scheduled, cost %.2f "
              "EUR, imbalance reduced %.1f kWh\n",
              static_cast<long long>(stats.offers_accepted),
              static_cast<long long>(stats.macros_scheduled),
              stats.schedule_cost_eur,
              stats.imbalance_before_kwh - stats.imbalance_after_kwh);
  if (assigned != 3) {
    std::cerr << "expected 3 assigned schedules, got " << assigned << "\n";
    return 1;
  }
  std::puts("quickstart OK");
  return 0;
}

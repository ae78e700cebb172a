// Seeded outcomes of two small end-to-end workloads, pinned to the last bit.
//
// Each workload runs deterministically (iteration-capped greedy gates, no
// wall-clock budget) and prints its counts, schedule cost and imbalance
// before and after scheduling with %.17g. The printed line must equal the
// constant in this file. A change that moves a seeded outcome on purpose
// updates the constant in the same diff and says why; any other move is a
// regression, however small.
//
//  1. An EdmsEngine round trip: batch intake with negotiation, P2
//     aggregation, greedy gate scheduling and disaggregation, with every
//     ScheduleAssigned metered at its schedule's end, so that every admitted
//     offer reaches a terminal event.
//  2. A small 3-level EdmsSimulation: prosumers, two BRPs forwarding macro
//     offers, and a TSO that schedules them, over the acked message bus.
//  3. The same hierarchy with one slice of bus latency under the
//     `kitchen_sink` chaos plan (loss, a drop window, a BRP blackout, a
//     latency spike and a BRP stall): the run that reaches the transport's
//     retry, dedupe and dead-letter paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "datagen/energy_series_generator.h"
#include "datagen/flex_offer_generator.h"
#include "edms/edms_engine.h"
#include "node/fault_plan.h"
#include "node/simulation.h"
#include "scheduling/scheduler.h"

namespace mirabel {
namespace {

using flexoffer::FlexOffer;
using flexoffer::kSlicesPerDay;
using flexoffer::TimeSlice;

std::string Format(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

// ---------------------------------------------------------------------------
// Workload 1: one EdmsEngine, closed loop over two simulated days.
// ---------------------------------------------------------------------------

constexpr int kEngineDays = 2;
constexpr int kGatePeriod = 16;
constexpr int kHorizon = 2 * kSlicesPerDay;
/// The iteration cap of every gate's greedy run. Deep enough that greedy's
/// own stop rule, not the cap, ends most runs.
constexpr int kEngineGreedyIterations = 2048;

/// Demand minus wind over the run and its horizon tail: the curve the
/// engine balances.
std::vector<double> EngineBaseline() {
  const int days = kEngineDays + 3;
  datagen::DemandSeriesConfig demand;
  demand.periods_per_day = kSlicesPerDay;
  demand.days = days;
  demand.base_load_mw = 150.0;
  demand.daily_amplitude = 120.0;
  demand.weekly_amplitude = 30.0;
  demand.annual_amplitude = 0.0;
  demand.noise_stddev = 6.0;
  demand.seed = 3;
  datagen::WindSeriesConfig wind;
  wind.periods_per_day = kSlicesPerDay;
  wind.days = days;
  wind.capacity_mw = 300.0;
  wind.seed = 4;
  std::vector<double> curve = datagen::GenerateDemandSeries(demand);
  const std::vector<double> supply = datagen::GenerateWindSeries(wind);
  for (size_t i = 0; i < curve.size(); ++i) curve[i] -= supply[i];
  return curve;
}

std::string RunEngineRoundTrip() {
  datagen::FlexOfferWorkloadConfig workload;
  workload.count = 1500 * kEngineDays;
  workload.seed = 21;
  workload.horizon_days = kEngineDays;
  workload.num_owners = 400;
  std::vector<FlexOffer> offers = datagen::GenerateFlexOffers(workload);
  std::stable_sort(offers.begin(), offers.end(),
                   [](const FlexOffer& a, const FlexOffer& b) {
                     return a.creation_time < b.creation_time;
                   });

  edms::EdmsEngine::Config config;
  config.actor = 100;
  config.negotiate = true;
  config.aggregation.params = aggregation::AggregationParams::P2();
  config.gate_period = kGatePeriod;
  config.horizon = kHorizon;
  config.scheduler_factory = [] {
    return std::make_unique<scheduling::GreedyScheduler>();
  };
  config.scheduler_budget_s = 0.0;
  config.scheduler_max_iterations = kEngineGreedyIterations;
  config.seed = 1;
  config.baseline =
      std::make_shared<edms::VectorBaselineProvider>(EngineBaseline());
  // Market limits high enough that most trades are below them: a traded
  // volume is then a fractional kWh amount, so a price reaches the cost's
  // last bit. (At 150 kWh the market saturates; 150 kWh times two prices
  // one ULP apart rounds alike, and a one-ULP price change went unseen.)
  config.max_buy_kwh = 400.0;
  config.max_sell_kwh = 400.0;
  edms::EdmsEngine engine(config);

  // One quiet day after the last offer lets every schedule end and be
  // metered inside the loop.
  const TimeSlice end_slice = (kEngineDays + 1) * kSlicesPerDay;
  struct Meter {
    flexoffer::FlexOfferId id;
    flexoffer::ActorId owner;
    double energy_kwh;
  };
  std::vector<std::vector<Meter>> meter_at(
      static_cast<size_t>(end_slice + kHorizon + kSlicesPerDay));
  int64_t unmeterable = 0;
  auto drain = [&](TimeSlice now) {
    for (const edms::Event& event : engine.PollEvents()) {
      const auto* s = std::get_if<edms::ScheduleAssigned>(&event);
      if (s == nullptr) continue;
      const TimeSlice end =
          s->schedule.start +
          static_cast<TimeSlice>(s->schedule.energies_kwh.size());
      const size_t at = static_cast<size_t>(std::max(end, now + 1));
      if (at >= meter_at.size()) {
        ++unmeterable;
        continue;
      }
      meter_at[at].push_back(
          {s->schedule.offer_id, s->owner, s->schedule.TotalEnergy()});
    }
  };

  size_t next = 0;
  for (TimeSlice now = 0; now < end_slice; ++now) {
    size_t end = next;
    while (end < offers.size() && offers[end].creation_time <= now) ++end;
    if (end > next) {
      auto submitted = engine.SubmitOffers(
          std::span<const FlexOffer>(offers.data() + next, end - next), now);
      EXPECT_TRUE(submitted.ok()) << submitted.status();
      next = end;
    }
    drain(now);
    if (now % kGatePeriod == 0) {
      Status st = engine.Advance(now);
      EXPECT_TRUE(st.ok()) << st;
      drain(now);
    }
    std::vector<Meter>& due = meter_at[static_cast<size_t>(now)];
    for (const Meter& m : due) {
      engine.RecordMeasurement(m.owner, now, m.energy_kwh);
      Status st = engine.RecordExecution(m.id, now, m.energy_kwh);
      EXPECT_TRUE(st.ok()) << st;
    }
    due.clear();
    drain(now);
  }
  engine.ExpireDeadlines(end_slice);
  drain(end_slice);
  EXPECT_EQ(next, offers.size());
  EXPECT_EQ(unmeterable, 0);

  const edms::EngineStats s = engine.stats();
  // Every schedule was metered, and every admitted offer is terminal.
  EXPECT_EQ(s.executions_timed_out, 0);
  EXPECT_EQ(s.invariant_violations, 0);
  EXPECT_EQ(s.offers_accepted,
            s.offers_executed + s.offers_expired_in_pipeline);
  return Format(
      "received=%lld accepted=%lld rejected=%lld runs=%lld macros=%lld "
      "micro=%lld expired=%lld executed=%lld timed_out=%lld "
      "cost=%.17g before=%.17g after=%.17g",
      static_cast<long long>(s.offers_received),
      static_cast<long long>(s.offers_accepted),
      static_cast<long long>(s.offers_rejected),
      static_cast<long long>(s.scheduling_runs),
      static_cast<long long>(s.macros_scheduled),
      static_cast<long long>(s.micro_schedules_sent),
      static_cast<long long>(s.offers_expired_in_pipeline),
      static_cast<long long>(s.offers_executed),
      static_cast<long long>(s.executions_timed_out), s.schedule_cost_eur,
      s.imbalance_before_kwh, s.imbalance_after_kwh);
}

// ---------------------------------------------------------------------------
// Workloads 2 and 3: a TSO, two BRPs and their prosumers over two simulated
// days, on a clean bus and under faults.
// ---------------------------------------------------------------------------

node::SimulationConfig ThreeLevelConfig() {
  node::SimulationConfig config;
  config.num_brps = 2;
  config.prosumers_per_brp = 12;
  config.days = 2;
  config.use_tso = true;
  config.offers_per_day = 4.0;
  config.seed = 11;
  config.scheduler_factory = [] {
    return std::make_unique<scheduling::GreedyScheduler>();
  };
  config.scheduler_budget_s = 0.0;
  config.scheduler_max_iterations = 1024;
  return config;
}

/// The counts every 3-level outcome prints, without cost and imbalance.
std::string ThreeLevelCounts(const node::SimulationReport& r) {
  return Format(
      "created=%lld accepted=%lld rejected=%lld scheduled=%lld "
      "executed=%lld runs=%lld macros=%lld sent=%lld delivered=%lld "
      "macros_expired=%lld timed_out=%lld",
      static_cast<long long>(r.offers_created),
      static_cast<long long>(r.offers_accepted),
      static_cast<long long>(r.offers_rejected),
      static_cast<long long>(r.schedules_received),
      static_cast<long long>(r.offers_executed),
      static_cast<long long>(r.scheduling_runs),
      static_cast<long long>(r.macros_scheduled),
      static_cast<long long>(r.messages_sent),
      static_cast<long long>(r.messages_delivered),
      static_cast<long long>(r.macros_expired_unscheduled),
      static_cast<long long>(r.executions_timed_out));
}

std::string CostAndImbalance(const node::SimulationReport& r) {
  return Format("cost=%.17g before=%.17g after=%.17g", r.schedule_cost_eur,
                r.imbalance_before_kwh, r.imbalance_after_kwh);
}

std::string RunThreeLevelSimulation() {
  node::EdmsSimulation simulation(ThreeLevelConfig());
  const node::SimulationReport r = simulation.Run();
  return ThreeLevelCounts(r) + " " + CostAndImbalance(r);
}

std::string RunFaultedThreeLevelSimulation() {
  node::SimulationConfig config = ThreeLevelConfig();
  config.bus.latency_slices = 1;
  for (const node::NamedFaultPlan& named :
       node::ChaosScenarios(2 * kSlicesPerDay)) {
    if (named.name == "kitchen_sink") config.bus.faults = named.plan;
  }
  EXPECT_FALSE(config.bus.faults.empty());
  node::EdmsSimulation simulation(config);
  const node::SimulationReport r = simulation.Run();
  return ThreeLevelCounts(r) +
         Format(" dropped=%lld retries=%lld dead=%lld dupes=%lld "
                "late_refused=%lld ",
                static_cast<long long>(r.messages_dropped),
                static_cast<long long>(r.transport_retries),
                static_cast<long long>(r.transport_dead_letters),
                static_cast<long long>(r.transport_duplicates_dropped),
                static_cast<long long>(r.late_offers_refused)) +
         CostAndImbalance(r);
}

TEST(SeededOutputsTest, EngineRoundTrip) {
  EXPECT_EQ(RunEngineRoundTrip(),
            "received=3000 accepted=3000 rejected=0 runs=13 macros=306 "
            "micro=2034 expired=966 executed=2034 timed_out=0 "
            "cost=29862.354386657622 before=305225.09071938816 "
            "after=295961.86520659423");
}

TEST(SeededOutputsTest, ThreeLevelSimulation) {
  EXPECT_EQ(RunThreeLevelSimulation(),
            "created=415 accepted=199 rejected=216 scheduled=176 "
            "executed=176 runs=12 macros=236 sent=2888 delivered=2888 "
            "macros_expired=0 timed_out=131 "
            "cost=2588.0103708016482 before=32049.344874395218 "
            "after=31466.907760176633");
}

TEST(SeededOutputsTest, FaultedThreeLevelSimulation) {
  EXPECT_EQ(RunFaultedThreeLevelSimulation(),
            "created=415 accepted=158 rejected=217 scheduled=27 "
            "executed=27 runs=7 macros=57 sent=2629 delivered=2176 "
            "macros_expired=59 timed_out=43 dropped=453 retries=487 dead=19 "
            "dupes=135 late_refused=221 "
            "cost=1492.6411016281795 before=18734.120133011755 "
            "after=18557.235780747171");
}

}  // namespace
}  // namespace mirabel

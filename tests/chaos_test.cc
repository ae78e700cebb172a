// Seeded chaos harness: every named fault scenario must leave the hierarchy
// conserved — each offer submitted before the wind-down reaches a terminal
// lifecycle state, stats match the stored facts, and the whole run is
// bit-reproducible per seed.
#include <gtest/gtest.h>

#include <string>

#include "node/fault_plan.h"
#include "node/simulation.h"

namespace mirabel::node {
namespace {

using flexoffer::TimeSlice;

SimulationConfig ChaosConfig() {
  SimulationConfig cfg;
  cfg.num_brps = 2;
  cfg.prosumers_per_brp = 6;
  cfg.days = 1;
  cfg.offers_per_day = 8.0;
  cfg.seed = 21;
  // Bit-determinism: iteration-capped scheduler, no wall-clock budget.
  cfg.scheduler_budget_s = 0.0;
  cfg.scheduler_max_iterations = 200;
  return cfg;
}

/// Every offer created before the wind-down must be terminal: executed,
/// rejected, or expired (fallback). Pending states may only hold offers
/// created during the drain itself (their deadlines outlive the run).
void CheckConservation(const EdmsSimulation& sim, const SimulationReport& r,
                       TimeSlice run_end, const std::string& scenario) {
  int64_t executed = 0;
  int64_t rejected = 0;
  int64_t expired = 0;
  for (const auto& prosumer : sim.prosumers()) {
    for (storage::FlexOfferState state :
         {storage::FlexOfferState::kOffered, storage::FlexOfferState::kAccepted,
          storage::FlexOfferState::kAggregated,
          storage::FlexOfferState::kScheduled}) {
      for (const auto& fact : prosumer->store().FlexOffersInState(state)) {
        EXPECT_GE(fact.offer.creation_time, run_end)
            << scenario << ": offer " << fact.id
            << " stranded non-terminal (state " << static_cast<int>(state)
            << ")";
      }
    }
    executed += static_cast<int64_t>(
        prosumer->store()
            .FlexOffersInState(storage::FlexOfferState::kExecuted)
            .size());
    rejected += static_cast<int64_t>(
        prosumer->store()
            .FlexOffersInState(storage::FlexOfferState::kRejected)
            .size());
    expired += static_cast<int64_t>(
        prosumer->store()
            .FlexOffersInState(storage::FlexOfferState::kExpired)
            .size());
  }
  // Stats are derived from the same transitions that move the facts; any
  // divergence means an offer was double-counted or silently skipped.
  EXPECT_EQ(executed, r.offers_executed) << scenario;
  EXPECT_EQ(rejected, r.offers_rejected) << scenario;
  EXPECT_EQ(expired, r.fallbacks) << scenario;

  // Engine-side conservation: after the drain, no BRP shard tracks a live
  // (non-terminal) offer anymore.
  auto check_engine = [&scenario](const AggregatingNode& node) {
    for (size_t s = 0; s < node.runtime().num_shards(); ++s) {
      const edms::OfferLifecycle& lc = node.runtime().shard(s).lifecycle();
      for (edms::OfferState state :
           {edms::OfferState::kOffered, edms::OfferState::kAccepted,
            edms::OfferState::kAggregated, edms::OfferState::kScheduled,
            edms::OfferState::kAssigned}) {
        EXPECT_EQ(lc.CountInState(state), 0u)
            << scenario << ": node " << node.id() << " shard " << s
            << " still tracks offers in state " << edms::ToString(state);
      }
    }
  };
  for (const auto& brp : sim.brps()) check_engine(*brp);
  if (sim.tso() != nullptr) check_engine(*sim.tso());

  // Message conservation at the bus.
  EXPECT_EQ(r.messages_sent,
            r.messages_delivered + r.messages_dropped +
                r.messages_undelivered_at_end)
      << scenario;
}

class ChaosScenarioTest : public ::testing::TestWithParam<NamedFaultPlan> {};

TEST_P(ChaosScenarioTest, ConservesOffersAndReproduces) {
  const NamedFaultPlan& scenario = GetParam();
  SimulationConfig cfg = ChaosConfig();
  cfg.bus.faults = scenario.plan;

  EdmsSimulation sim(cfg);
  SimulationReport report = sim.Run();
  const TimeSlice run_end =
      static_cast<TimeSlice>(cfg.days) * flexoffer::kSlicesPerDay;
  ASSERT_GT(report.offers_created, 0) << scenario.name;
  CheckConservation(sim, report, run_end, scenario.name);

  // Bit-reproducibility: the identical config replays the identical run,
  // faults, retries and all.
  EdmsSimulation replay(cfg);
  SimulationReport replayed = replay.Run();
  EXPECT_EQ(report.ToString(), replayed.ToString()) << scenario.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, ChaosScenarioTest,
    ::testing::ValuesIn(ChaosScenarios(flexoffer::kSlicesPerDay)),
    [](const ::testing::TestParamInfo<NamedFaultPlan>& info) {
      return info.param.name;
    });

TEST(ChaosTest, ThreeLevelBlackoutExpiresForwardedMacros) {
  // A TSO blackout while BRPs forward macros exercises the deadline layer:
  // schedules never come back, the BRPs expire the stranded macros, and the
  // members fall back — nothing is left non-terminal.
  SimulationConfig cfg = ChaosConfig();
  cfg.use_tso = true;
  cfg.bus.faults.blackouts.push_back(
      {1, flexoffer::kSlicesPerDay / 4, flexoffer::kSlicesPerDay});
  EdmsSimulation sim(cfg);
  SimulationReport report = sim.Run();
  CheckConservation(sim, report,
                    static_cast<TimeSlice>(cfg.days) * flexoffer::kSlicesPerDay,
                    "tso_blackout");
  // The blackout actually bit: forwarded macros expired unanswered.
  EXPECT_GT(report.macros_expired_unscheduled, 0);
}

TEST(ChaosTest, RetriesRecoverWhatFireAndForgetLoses) {
  // Degradation contrast under 20% random loss: acked retries must recover
  // strictly more accept/schedule round trips than the bare wire.
  SimulationConfig cfg = ChaosConfig();
  cfg.days = 2;
  cfg.bus.drop_probability = 0.20;
  EdmsSimulation with_retries(cfg);
  SimulationReport reliable = with_retries.Run();

  cfg.reliability.enabled = false;
  EdmsSimulation bare(cfg);
  SimulationReport lossy = bare.Run();

  EXPECT_GT(reliable.transport_retries, 0);
  EXPECT_EQ(lossy.transport_retries, 0);
  EXPECT_GT(reliable.schedules_received, lossy.schedules_received);
  EXPECT_LT(reliable.fallbacks, lossy.fallbacks);
  CheckConservation(with_retries, reliable,
                    static_cast<TimeSlice>(cfg.days) * flexoffer::kSlicesPerDay,
                    "retries_on");
  CheckConservation(bare, lossy,
                    static_cast<TimeSlice>(cfg.days) * flexoffer::kSlicesPerDay,
                    "retries_off");
}

TEST(ChaosTest, BoundedStreamingIntakeStaysConserved) {
  // Pooled (streaming) intake with a tiny bound: whether or not the timing
  // provokes sheds, every NACK a prosumer received was sent by a BRP, and
  // the run stays conserved.
  SimulationConfig cfg = ChaosConfig();
  cfg.shards_per_node = 2;
  cfg.max_pending_batches_per_shard = 1;
  EdmsSimulation sim(cfg);
  SimulationReport report = sim.Run();
  CheckConservation(sim, report,
                    static_cast<TimeSlice>(cfg.days) * flexoffer::kSlicesPerDay,
                    "bounded_streaming");
  int64_t nacks_sent = 0;
  for (const auto& brp : sim.brps()) nacks_sent += brp->nacks_sent();
  EXPECT_LE(report.nacks_received, nacks_sent);
}

}  // namespace
}  // namespace mirabel::node

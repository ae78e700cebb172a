// End-to-end tests of the EdmsEngine facade: the full submit -> aggregate ->
// schedule -> disaggregate -> execute round trip, observed through the typed
// event stream, plus the forwarding (hierarchical) mode and the error paths.
#include "edms/edms_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "test_util.h"

namespace mirabel::edms {
namespace {

using flexoffer::FlexOffer;
using flexoffer::ScheduledFlexOffer;

EdmsEngine::Config DeterministicConfig() {
  EdmsEngine::Config cfg;
  cfg.actor = 100;
  cfg.negotiate = true;
  cfg.aggregation.params = aggregation::AggregationParams::P3();
  cfg.gate_period = 8;
  cfg.horizon = 96;
  // Iteration-bounded scheduling: bit-identical runs for a fixed seed.
  cfg.scheduler_budget_s = 0.0;
  cfg.scheduler_max_iterations = 40;
  cfg.seed = 77;
  cfg.baseline = std::make_shared<VectorBaselineProvider>(
      std::vector<double>(960, 5.0));
  return cfg;
}

std::vector<FlexOffer> ThreeOffers() {
  return {
      testutil::OwnedOffer(1, 501, /*assign_before=*/24, /*earliest=*/30,
                           /*latest=*/50, /*dur=*/4),
      testutil::OwnedOffer(2, 502, /*assign_before=*/24, /*earliest=*/30,
                           /*latest=*/50, /*dur=*/4),
      testutil::OwnedOffer(3, 503, /*assign_before=*/24, /*earliest=*/32,
                           /*latest=*/48, /*dur=*/4),
  };
}

/// State of `id` in the engine's lifecycle, looked up by slot as the engine
/// does; nullopt when the engine never admitted it.
std::optional<OfferState> LifecycleState(const EdmsEngine& engine,
                                         flexoffer::FlexOfferId id) {
  std::optional<OfferSlot> slot = engine.lifecycle().SlotOf(id);
  if (!slot.has_value()) return std::nullopt;
  return engine.lifecycle().StateAt(*slot);
}

/// Flattens an event into a comparable line (kind + ids + payload digest).
std::string Digest(const Event& event) {
  std::ostringstream os;
  os << EventName(event) << ":";
  if (const auto* e = std::get_if<OfferAccepted>(&event)) {
    os << e->offer << "@" << e->at << " price=" << e->agreed_price_eur;
  } else if (const auto* e = std::get_if<OfferRejected>(&event)) {
    os << e->offer << "@" << e->at;
  } else if (const auto* e = std::get_if<MacroPublished>(&event)) {
    os << e->macro.id << "@" << e->at << " members=" << e->member_count
       << " fwd=" << e->forwarded;
  } else if (const auto* e = std::get_if<ScheduleAssigned>(&event)) {
    os << e->schedule.offer_id << "@" << e->at
       << " start=" << e->schedule.start
       << " kwh=" << e->schedule.TotalEnergy();
  } else if (const auto* e = std::get_if<OfferExecuted>(&event)) {
    os << e->offer << "@" << e->at;
  } else if (const auto* e = std::get_if<OfferExpired>(&event)) {
    os << e->offer << "@" << e->at;
  }
  return os.str();
}

std::vector<std::string> RunRoundTrip(const EdmsEngine::Config& cfg) {
  EdmsEngine engine(cfg);
  std::vector<FlexOffer> offers = ThreeOffers();
  auto submitted = engine.SubmitOffers(offers, 0);
  EXPECT_TRUE(submitted.ok()) << submitted.status();
  EXPECT_TRUE(engine.Advance(0).ok());
  std::vector<std::string> digests;
  for (const Event& e : engine.PollEvents()) digests.push_back(Digest(e));
  return digests;
}

TEST(EdmsEngineTest, RoundTripAssignsValidSchedules) {
  EdmsEngine engine(DeterministicConfig());
  std::vector<FlexOffer> offers = ThreeOffers();

  auto submitted = engine.SubmitOffers(offers, 0);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  EXPECT_EQ(*submitted, 3u);
  ASSERT_TRUE(engine.Advance(0).ok());

  int accepted = 0;
  int macros = 0;
  std::vector<ScheduledFlexOffer> schedules;
  for (const Event& event : engine.PollEvents()) {
    if (std::get_if<OfferAccepted>(&event) != nullptr) ++accepted;
    if (std::get_if<MacroPublished>(&event) != nullptr) ++macros;
    if (const auto* e = std::get_if<ScheduleAssigned>(&event)) {
      schedules.push_back(e->schedule);
    }
  }
  EXPECT_EQ(accepted, 3);
  EXPECT_GE(macros, 1);
  ASSERT_EQ(schedules.size(), 3u);
  for (const ScheduledFlexOffer& s : schedules) {
    const FlexOffer& fo = offers[static_cast<size_t>(s.offer_id - 1)];
    EXPECT_TRUE(s.ValidateAgainst(fo).ok());
    EXPECT_EQ(LifecycleState(engine, s.offer_id), OfferState::kAssigned);
  }
  EXPECT_EQ(engine.stats().offers_accepted, 3);
  EXPECT_EQ(engine.stats().micro_schedules_sent, 3);
  EXPECT_GT(engine.stats().scheduling_runs, 0);

  // Execution closes the lifecycle and emits OfferExecuted.
  ASSERT_TRUE(engine.RecordExecution(1, 40, 6.0).ok());
  EXPECT_EQ(LifecycleState(engine, 1), OfferState::kExecuted);
  std::vector<Event> events = engine.PollEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(EventName(events[0]), "OfferExecuted");
  // A second execution report is an illegal lifecycle move.
  EXPECT_EQ(engine.RecordExecution(1, 41, 6.0).code(),
            StatusCode::kFailedPrecondition);
}

TEST(EdmsEngineTest, EventStreamIsDeterministicUnderFixedSeed) {
  std::vector<std::string> a = RunRoundTrip(DeterministicConfig());
  std::vector<std::string> b = RunRoundTrip(DeterministicConfig());
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(EdmsEngineTest, SeedChangesTheScheduleNotTheLifecycle) {
  EdmsEngine::Config cfg = DeterministicConfig();
  std::vector<std::string> a = RunRoundTrip(cfg);
  cfg.seed = 78;
  std::vector<std::string> b = RunRoundTrip(cfg);
  // Same number of events with the same kinds in the same order...
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].substr(0, a[i].find(':')), b[i].substr(0, b[i].find(':')));
  }
}

TEST(EdmsEngineTest, InvalidAndLowValueOffersAreRejected) {
  EdmsEngine::Config cfg = DeterministicConfig();
  cfg.negotiation.acceptance.min_value_eur = 1.0;
  EdmsEngine engine(cfg);

  // A rigid offer (no time or energy flexibility) fails negotiation.
  FlexOffer rigid = testutil::OwnedOffer(10, 501, 24, 30, 30, 4, 1.0, 1.0);
  // An invalid offer (empty profile) fails validation before negotiation.
  FlexOffer invalid;
  invalid.id = 11;
  invalid.owner = 502;

  std::vector<FlexOffer> offers = {rigid, invalid};
  auto submitted =
      engine.SubmitOffers(std::span<const FlexOffer>(offers), 0);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  EXPECT_EQ(*submitted, 0u);
  EXPECT_EQ(engine.stats().offers_rejected, 2);
  EXPECT_EQ(LifecycleState(engine, 10), OfferState::kRejected);
  EXPECT_EQ(LifecycleState(engine, 11), OfferState::kRejected);
  std::vector<Event> events = engine.PollEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(EventName(events[0]), "OfferRejected");
  EXPECT_EQ(EventName(events[1]), "OfferRejected");
}

TEST(EdmsEngineTest, OfferWithIdZeroIsRejectedWithoutStrandingItsBatch) {
  // Id 0 is reserved by the aggregation layer. It must fail validation
  // like any other malformed offer, so its batch neighbours are admitted
  // and nothing is left behind in kOffered.
  EdmsEngine engine(DeterministicConfig());
  std::vector<FlexOffer> offers = {testutil::OwnedOffer(5, 501, 24, 30, 50),
                                   testutil::OwnedOffer(0, 502, 24, 30, 50),
                                   testutil::OwnedOffer(6, 503, 24, 30, 50)};
  auto submitted = engine.SubmitOffers(std::span<const FlexOffer>(offers), 0);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  EXPECT_EQ(*submitted, 2u);
  EXPECT_EQ(LifecycleState(engine, 0), OfferState::kRejected);
  // One decision per offer: the rejection is emitted at validation, the
  // acceptances after the batch's pipeline pass.
  std::vector<Event> events = engine.PollEvents();
  ASSERT_EQ(events.size(), 3u);
  ASSERT_EQ(EventName(events[0]), "OfferRejected");
  EXPECT_EQ(std::get<OfferRejected>(events[0]).offer, 0u);
  EXPECT_EQ(EventName(events[1]), "OfferAccepted");
  EXPECT_EQ(EventName(events[2]), "OfferAccepted");

  // The gate schedules both neighbours and trips no invariant.
  ASSERT_TRUE(engine.Advance(0).ok());
  EXPECT_EQ(LifecycleState(engine, 5), OfferState::kAssigned);
  EXPECT_EQ(LifecycleState(engine, 6), OfferState::kAssigned);
  EXPECT_EQ(engine.lifecycle().CountInState(OfferState::kOffered), 0u);
  EXPECT_EQ(engine.stats().invariant_violations, 0);
}

TEST(EdmsEngineTest, DuplicateSubmissionIsAlreadyExists) {
  EdmsEngine engine(DeterministicConfig());
  FlexOffer fo = testutil::OwnedOffer(1, 501, 24, 30, 50);
  ASSERT_TRUE(engine.SubmitOffer(fo, 0).ok());
  EXPECT_EQ(engine.SubmitOffer(fo, 0).code(), StatusCode::kAlreadyExists);
}

TEST(EdmsEngineTest, StaleOffersExpireAtTheGate) {
  EdmsEngine engine(DeterministicConfig());
  // Deadline at slice 4, first gate fires at 12: too late.
  FlexOffer fo = testutil::OwnedOffer(5, 501, /*assign_before=*/4,
                                      /*earliest=*/6, /*latest=*/10);
  ASSERT_TRUE(engine.SubmitOffer(fo, 0).ok());
  (void)engine.PollEvents();
  ASSERT_TRUE(engine.Advance(12).ok());
  std::vector<Event> events = engine.PollEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(EventName(events[0]), "OfferExpired");
  EXPECT_EQ(LifecycleState(engine, 5), OfferState::kExpired);
  EXPECT_EQ(engine.stats().offers_expired_in_pipeline, 1);
  EXPECT_EQ(engine.stats().macros_scheduled, 0);
}

TEST(EdmsEngineTest, UnboundedSchedulerBudgetFailsTheGateAndExpiresOffers) {
  // Neither a time budget nor an iteration cap: the default greedy scheduler
  // refuses the run instead of looping forever, and every offer the gate
  // claimed is closed exactly once through the scheduling-failure path.
  EdmsEngine::Config cfg = DeterministicConfig();
  cfg.scheduler_budget_s = 0.0;
  cfg.scheduler_max_iterations = 0;
  EdmsEngine engine(cfg);
  std::vector<FlexOffer> offers = ThreeOffers();
  ASSERT_TRUE(engine.SubmitOffers(offers, 0).ok());
  (void)engine.PollEvents();

  EXPECT_EQ(engine.Advance(0).code(), StatusCode::kInvalidArgument);

  std::map<flexoffer::FlexOfferId, int> expired;
  for (const Event& event : engine.PollEvents()) {
    const auto* e = std::get_if<OfferExpired>(&event);
    ASSERT_NE(e, nullptr) << EventName(event);
    ++expired[e->offer];
  }
  ASSERT_EQ(expired.size(), offers.size());
  for (const FlexOffer& fo : offers) {
    EXPECT_EQ(expired[fo.id], 1) << "offer " << fo.id;
    EXPECT_EQ(LifecycleState(engine, fo.id), OfferState::kExpired);
  }
  EXPECT_EQ(engine.stats().scheduling_runs, 0);
  EXPECT_EQ(engine.stats().offers_expired_in_pipeline, 3);
}

TEST(EdmsEngineTest, NonFiniteBaselineFailsTheGateAndExpiresOffers) {
  // One NaN forecast slice inside the gate's horizon: the problem fails
  // validation instead of pricing that slice at zero and turning the
  // imbalance stats into NaN, and every offer the gate claimed is closed
  // exactly once through the scheduling-failure path.
  EdmsEngine::Config cfg = DeterministicConfig();
  std::vector<double> baseline(960, 5.0);
  baseline[40] = std::numeric_limits<double>::quiet_NaN();
  cfg.baseline = std::make_shared<VectorBaselineProvider>(std::move(baseline));
  EdmsEngine engine(cfg);
  std::vector<FlexOffer> offers = ThreeOffers();
  ASSERT_TRUE(engine.SubmitOffers(offers, 0).ok());
  (void)engine.PollEvents();

  EXPECT_EQ(engine.Advance(0).code(), StatusCode::kInvalidArgument);

  std::map<flexoffer::FlexOfferId, int> expired;
  for (const Event& event : engine.PollEvents()) {
    const auto* e = std::get_if<OfferExpired>(&event);
    ASSERT_NE(e, nullptr) << EventName(event);
    ++expired[e->offer];
  }
  ASSERT_EQ(expired.size(), offers.size());
  for (const FlexOffer& fo : offers) {
    EXPECT_EQ(expired[fo.id], 1) << "offer " << fo.id;
    EXPECT_EQ(LifecycleState(engine, fo.id), OfferState::kExpired);
  }
  EXPECT_EQ(engine.stats().scheduling_runs, 0);
  EXPECT_EQ(engine.stats().offers_expired_in_pipeline, 3);
  EXPECT_EQ(engine.stats().imbalance_before_kwh, 0.0);
  EXPECT_EQ(engine.stats().imbalance_after_kwh, 0.0);
}

TEST(EdmsEngineTest, ForwardingModePublishesAndCompletesMacros) {
  EdmsEngine::Config cfg = DeterministicConfig();
  cfg.schedule_locally = false;
  EdmsEngine engine(cfg);
  std::vector<FlexOffer> offers = ThreeOffers();
  ASSERT_TRUE(engine.SubmitOffers(offers, 0).ok());
  ASSERT_TRUE(engine.Advance(0).ok());

  std::vector<FlexOffer> published;
  for (const Event& event : engine.PollEvents()) {
    if (const auto* e = std::get_if<MacroPublished>(&event)) {
      EXPECT_TRUE(e->forwarded);
      EXPECT_EQ(e->macro.owner, cfg.actor);
      published.push_back(e->macro);
    }
  }
  ASSERT_FALSE(published.empty());
  EXPECT_EQ(engine.stats().scheduling_runs, 0);

  // A schedule for an unknown macro is NotFound.
  ScheduledFlexOffer bogus;
  bogus.offer_id = 424242;
  EXPECT_EQ(engine.CompleteMacroSchedule(bogus, 1).code(),
            StatusCode::kNotFound);

  // Returning valid macro schedules disaggregates to all members.
  int assigned = 0;
  for (const FlexOffer& macro : published) {
    ScheduledFlexOffer s;
    s.offer_id = macro.id;
    s.start = macro.earliest_start;
    for (const auto& band : macro.profile) {
      s.energies_kwh.push_back(band.max_kwh);
    }
    ASSERT_TRUE(engine.CompleteMacroSchedule(s, 1).ok());
    for (const Event& event : engine.PollEvents()) {
      if (const auto* e = std::get_if<ScheduleAssigned>(&event)) {
        EXPECT_EQ(LifecycleState(engine, e->schedule.offer_id),
                  OfferState::kAssigned);
        ++assigned;
      }
    }
  }
  EXPECT_EQ(assigned, 3);
}

TEST(EdmsEngineTest, UnmeteredSchedulesTimeOutOnceInSubmissionOrder) {
  // Forwarding mode: two macros complete in reverse id order, so member
  // schedules attach out of submission order, and no owner ever meters.
  EdmsEngine::Config cfg = DeterministicConfig();
  cfg.schedule_locally = false;
  cfg.execution_timeout_slices = 32;
  EdmsEngine engine(cfg);
  // Time flexibility 20 vs 4 slices puts offers 1/3 and 2/4 in different
  // P3 groups; interleaving them makes either completion order attach out
  // of submission order. Their schedules end at 40 and 34, so the one gate
  // that finds them all overdue sees them in neither attach nor end order.
  std::vector<FlexOffer> offers = {
      testutil::OwnedOffer(1, 501, /*assign_before=*/24, /*earliest=*/30,
                           /*latest=*/50, /*dur=*/10),
      testutil::OwnedOffer(2, 502, 24, 30, 34, 4),
      testutil::OwnedOffer(3, 503, 24, 30, 50, 10),
      testutil::OwnedOffer(4, 504, 24, 30, 34, 4),
  };
  ASSERT_TRUE(engine.SubmitOffers(offers, 0).ok());
  ASSERT_TRUE(engine.Advance(0).ok());
  std::vector<FlexOffer> macros;
  for (const Event& event : engine.PollEvents()) {
    if (const auto* e = std::get_if<MacroPublished>(&event)) {
      macros.push_back(e->macro);
    }
  }
  ASSERT_EQ(macros.size(), 2u);
  std::sort(macros.begin(), macros.end(),
            [](const FlexOffer& a, const FlexOffer& b) { return a.id > b.id; });
  std::vector<flexoffer::FlexOfferId> attached;
  for (const FlexOffer& macro : macros) {
    ScheduledFlexOffer s;
    s.offer_id = macro.id;
    s.start = macro.earliest_start;
    for (const auto& band : macro.profile) {
      s.energies_kwh.push_back(band.max_kwh);
    }
    ASSERT_TRUE(engine.CompleteMacroSchedule(s, 1).ok());
    for (const Event& event : engine.PollEvents()) {
      if (const auto* e = std::get_if<ScheduleAssigned>(&event)) {
        EXPECT_EQ(e->schedule.start, 30);
        attached.push_back(e->schedule.offer_id);
      }
    }
  }
  ASSERT_EQ(attached.size(), offers.size());
  ASSERT_NE(attached, (std::vector<flexoffer::FlexOfferId>{1, 2, 3, 4}));

  // Overdue from 34 + 32 = 66 and 40 + 32 = 72: the gates up to 64 find
  // nothing.
  for (flexoffer::TimeSlice now = 8; now <= 64; now += 8) {
    ASSERT_TRUE(engine.Advance(now).ok());
    EXPECT_TRUE(engine.PollEvents().empty()) << "gate " << now;
  }
  ASSERT_TRUE(engine.Advance(72).ok());
  std::vector<flexoffer::FlexOfferId> expired;
  for (const Event& event : engine.PollEvents()) {
    const auto* e = std::get_if<OfferExpired>(&event);
    ASSERT_NE(e, nullptr) << EventName(event);
    EXPECT_EQ(e->at, 72);
    expired.push_back(e->offer);
  }
  EXPECT_EQ(expired, (std::vector<flexoffer::FlexOfferId>{1, 2, 3, 4}));
  EXPECT_EQ(engine.stats().executions_timed_out,
            static_cast<int64_t>(expired.size()));
  for (const FlexOffer& fo : offers) {
    EXPECT_EQ(LifecycleState(engine, fo.id), OfferState::kExpired);
  }

  for (flexoffer::TimeSlice now = 80; now <= 96; now += 8) {
    ASSERT_TRUE(engine.Advance(now).ok());
    EXPECT_TRUE(engine.PollEvents().empty()) << "gate " << now;
  }
  EXPECT_EQ(engine.stats().executions_timed_out, 4);
  // A metering that arrives after the timeout is refused.
  EXPECT_EQ(engine.RecordExecution(1, 100, 8.0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(engine.PollEvents().empty());
}

TEST(EdmsEngineTest, GateHonoursThePeriod) {
  EdmsEngine engine(DeterministicConfig());  // gate_period = 8
  std::vector<FlexOffer> offers = ThreeOffers();
  ASSERT_TRUE(engine.SubmitOffers(offers, 0).ok());
  (void)engine.PollEvents();
  ASSERT_TRUE(engine.Advance(0).ok());
  int64_t runs_after_first = engine.stats().scheduling_runs;
  // Within the same period nothing fires; at +8 it may again.
  ASSERT_TRUE(engine.Advance(4).ok());
  EXPECT_EQ(engine.stats().scheduling_runs, runs_after_first);
}

}  // namespace
}  // namespace mirabel::edms

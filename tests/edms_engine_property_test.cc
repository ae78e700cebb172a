// Seeded property test of the engine's per-offer bookkeeping. Random
// interleavings of intake (fresh, repeated, batch-repeated and invalid
// offers, the reserved id 0 among them), gate ticks, returning macro
// schedules (forwarding mode), executions (late and duplicate ones included)
// and deadline passes run against a small reference model that learns each offer's fate from the
// calls' results and the event stream. After every step the engine's
// lifecycle counts, its store's per-state fact counts and its stats must
// equal the model's tallies; at the end every admitted offer has exactly one
// terminal event.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "edms/edms_engine.h"

namespace mirabel::edms {
namespace {

using flexoffer::FlexOffer;
using flexoffer::FlexOfferId;
using flexoffer::ScheduledFlexOffer;
using flexoffer::TimeSlice;
using storage::FlexOfferState;

/// The model's view of one offer the engine admitted.
enum class Fate { kPending, kAssigned, kExecuted, kExpired, kRejected };

/// How often each interesting branch ran, summed over all seeds, so that the
/// test proves it exercised them.
struct Coverage {
  int64_t repeated_batches = 0;
  int64_t invalid_offers = 0;
  int64_t zero_ids = 0;
  int64_t rejected_deliveries = 0;
  int64_t executions = 0;
  int64_t refused_executions = 0;
  int64_t pipeline_expiries = 0;
  int64_t macro_expiries = 0;
  int64_t execution_timeouts = 0;
};

class EngineModel {
 public:
  EngineModel(uint64_t seed, bool forwarding, Coverage* coverage)
      : rng_(seed),
        forwarding_(forwarding),
        coverage_(coverage),
        engine_(MakeConfig(seed, forwarding)) {}

  void Run(int steps) {
    for (int step = 0; step < steps; ++step) {
      const int64_t op = rng_.UniformInt(0, 99);
      if (op < 30) {
        Submit();
      } else if (op < 50) {
        now_ += rng_.UniformInt(0, 6);
        EXPECT_TRUE(engine_.Advance(now_).ok()) << "gate at " << now_;
      } else if (op < 65) {
        if (forwarding_) Deliver();
      } else if (op < 85) {
        Execute();
      } else if (op < 92) {
        now_ += rng_.UniformInt(0, 4);
        engine_.ExpireDeadlines(now_);
      } else {
        ++now_;
      }
      Drain();
      CheckTallies();
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Wind down: every deadline and execution timeout passes.
    now_ += 1000;
    engine_.ExpireDeadlines(now_);
    Drain();
    CheckTallies();
    for (const auto& [id, fate] : fate_) {
      EXPECT_EQ(terminal_events_[id], 1) << "offer " << id;
    }
    for (OfferState state : {OfferState::kAccepted, OfferState::kAggregated,
                             OfferState::kAssigned}) {
      EXPECT_EQ(engine_.lifecycle().CountInState(state), 0u)
          << ToString(state);
    }
  }

 private:
  static EdmsEngine::Config MakeConfig(uint64_t seed, bool forwarding) {
    EdmsEngine::Config cfg;
    cfg.actor = 9;
    cfg.aggregation.params = aggregation::AggregationParams::P3();
    cfg.gate_period = 4;
    cfg.horizon = 48;
    cfg.scheduler_budget_s = 0.0;
    cfg.scheduler_max_iterations = 20;
    cfg.seed = seed;
    cfg.schedule_locally = !forwarding;
    cfg.execution_timeout_slices = 8;
    return cfg;
  }

  FlexOffer RandomOffer(FlexOfferId id) {
    FlexOffer fo;
    fo.id = id;
    fo.owner = 1000 + id % 37;
    fo.creation_time = now_;
    fo.assignment_before = now_ + rng_.UniformInt(1, 24);
    fo.earliest_start = fo.assignment_before + rng_.UniformInt(0, 6);
    fo.latest_start = fo.earliest_start + rng_.UniformInt(0, 10);
    const int64_t slices = rng_.UniformInt(1, 4);
    for (int64_t s = 0; s < slices; ++s) {
      const double min_kwh = rng_.Uniform(0.2, 1.0);
      fo.profile.push_back({min_kwh, min_kwh + rng_.Uniform(0.0, 2.0)});
    }
    fo.unit_price_eur = rng_.Uniform(0.0, 0.05);
    return fo;
  }

  void Submit() {
    std::vector<FlexOffer> batch;
    const int64_t n = rng_.UniformInt(1, 12);
    for (int64_t i = 0; i < n; ++i) batch.push_back(RandomOffer(next_id_++));
    std::set<FlexOfferId> invalid;
    for (FlexOffer& fo : batch) {
      if (!rng_.Bernoulli(0.1)) continue;
      if (rng_.Bernoulli(0.5)) {
        fo.latest_start = fo.earliest_start - 1;  // empty start window
      } else {
        fo.profile[0].max_kwh = fo.profile[0].min_kwh - 1.0;  // inverted band
      }
      invalid.insert(fo.id);
    }
    // A batch repeating a known id, or an id of its own, changes nothing.
    bool repeated = false;
    if (!fate_.empty() && rng_.Bernoulli(0.05)) {
      batch.back().id = std::next(fate_.begin(), static_cast<std::ptrdiff_t>(
                                                     rng_.Index(fate_.size())))
                            ->first;
      repeated = true;
    } else if (batch.size() > 1 && rng_.Bernoulli(0.05)) {
      batch.back().id = batch.front().id;
      repeated = true;
    }
    // The reserved id 0 is one more invalid input, once per engine (a second
    // one would be a repeated id).
    if (!repeated && !zero_submitted_ && rng_.Bernoulli(0.1)) {
      FlexOffer& fo = batch[rng_.Index(batch.size())];
      if (invalid.count(fo.id) == 0) {
        fo.id = 0;
        invalid.insert(0);
        zero_submitted_ = true;
        ++coverage_->zero_ids;
      }
    }
    const EngineStats before = engine_.stats();
    Result<size_t> accepted = engine_.SubmitOffers(batch, now_);
    if (repeated) {
      ++coverage_->repeated_batches;
      EXPECT_EQ(accepted.status().code(), StatusCode::kAlreadyExists);
      EXPECT_EQ(engine_.stats().offers_received, before.offers_received);
      EXPECT_TRUE(engine_.PollEvents().empty());
      return;
    }
    ASSERT_TRUE(accepted.ok()) << accepted.status();
    received_ += static_cast<int64_t>(batch.size());
    coverage_->invalid_offers += static_cast<int64_t>(invalid.size());
    // Exactly one decision per offer of the batch; invalid ones are rejected
    // and not stored.
    size_t accepted_events = 0;
    std::set<FlexOfferId> decided;
    for (const Event& event : engine_.PollEvents()) {
      if (const auto* e = std::get_if<OfferAccepted>(&event)) {
        EXPECT_EQ(invalid.count(e->offer), 0u) << e->offer;
        EXPECT_TRUE(decided.insert(e->offer).second) << e->offer;
        fate_[e->offer] = Fate::kPending;
        ++accepted_;
        ++accepted_events;
      } else if (const auto* e = std::get_if<OfferRejected>(&event)) {
        EXPECT_TRUE(decided.insert(e->offer).second) << e->offer;
        fate_[e->offer] = Fate::kRejected;
        ++terminal_events_[e->offer];
        ++rejected_;
      } else {
        ADD_FAILURE() << "unexpected intake event " << EventName(event);
      }
    }
    EXPECT_EQ(decided.size(), batch.size());
    EXPECT_EQ(*accepted, accepted_events);
    for (FlexOfferId id : invalid) {
      EXPECT_EQ(fate_[id], Fate::kRejected) << id;
      EXPECT_FALSE(engine_.store().FindFlexOffer(id).ok()) << id;
    }
  }

  void Deliver() {
    if (macros_.empty() || rng_.Bernoulli(0.1)) {
      // Unknown (or already settled) macro ids are NotFound.
      ScheduledFlexOffer stray{9 * 1000000ULL + 999999, now_, {1.0}};
      EXPECT_EQ(engine_.CompleteMacroSchedule(stray, now_).code(),
                StatusCode::kNotFound);
      return;
    }
    auto it = std::next(macros_.begin(), static_cast<std::ptrdiff_t>(
                                             rng_.Index(macros_.size())));
    const FlexOffer& macro = it->second.macro;
    ScheduledFlexOffer schedule = flexoffer::FallbackSchedule(macro);
    schedule.start = rng_.UniformInt(macro.earliest_start, macro.latest_start);
    if (rng_.Bernoulli(0.2)) {
      // A schedule outside the macro's window fails; the macro stays pending.
      schedule.start = macro.latest_start + 1;
      EXPECT_FALSE(engine_.CompleteMacroSchedule(schedule, now_).ok());
      EXPECT_TRUE(engine_.HasPendingMacro(macro.id));
      ++coverage_->rejected_deliveries;
      return;
    }
    ASSERT_TRUE(engine_.CompleteMacroSchedule(schedule, now_).ok());
    EXPECT_FALSE(engine_.HasPendingMacro(macro.id));
    const size_t members = it->second.members;
    macros_.erase(it);
    size_t assigned = 0;
    for (const Event& event : engine_.PollEvents()) {
      ASSERT_TRUE(std::holds_alternative<ScheduleAssigned>(event))
          << EventName(event);
      Observe(event);
      ++assigned;
    }
    EXPECT_EQ(assigned, members);
  }

  void Execute() {
    // Mostly assigned offers (executed and expired ones again included, for
    // duplicate and late meterings), sometimes any known or unknown id.
    FlexOfferId id = 0;
    if (!schedules_.empty() && rng_.Bernoulli(0.8)) {
      id = schedules_[rng_.Index(schedules_.size())].offer_id;
    } else if (!fate_.empty() && rng_.Bernoulli(0.7)) {
      id = std::next(fate_.begin(),
                     static_cast<std::ptrdiff_t>(rng_.Index(fate_.size())))
               ->first;
    } else {
      id = next_id_ + 1000000;  // never submitted
    }
    auto fate = fate_.find(id);
    StatusCode expected = StatusCode::kNotFound;
    if (fate != fate_.end() && fate->second != Fate::kRejected) {
      expected = fate->second == Fate::kAssigned
                     ? StatusCode::kOk
                     : StatusCode::kFailedPrecondition;
    }
    EXPECT_EQ(engine_.RecordExecution(id, now_, 1.0).code(), expected)
        << "offer " << id;
    if (expected == StatusCode::kOk) {
      ++coverage_->executions;
    } else {
      ++coverage_->refused_executions;
    }
  }

  /// Applies one event to the model, checking that its edge is legal there.
  void Observe(const Event& event) {
    if (const auto* e = std::get_if<MacroPublished>(&event)) {
      EXPECT_EQ(e->forwarded, forwarding_);
      if (e->forwarded) macros_[e->macro.id] = {e->macro, e->member_count};
    } else if (const auto* e = std::get_if<MacroExpired>(&event)) {
      ASSERT_EQ(macros_.count(e->macro), 1u) << e->macro;
      EXPECT_EQ(macros_[e->macro].members, e->member_count);
      macros_.erase(e->macro);
      ++macros_expired_;
      ++coverage_->macro_expiries;
    } else if (const auto* e = std::get_if<ScheduleAssigned>(&event)) {
      const FlexOfferId id = e->schedule.offer_id;
      ASSERT_EQ(fate_.count(id), 1u) << id;
      EXPECT_EQ(fate_[id], Fate::kPending) << id;
      fate_[id] = Fate::kAssigned;
      schedules_.push_back(e->schedule);
      ++assigned_;
    } else if (const auto* e = std::get_if<OfferExecuted>(&event)) {
      ASSERT_EQ(fate_.count(e->offer), 1u) << e->offer;
      EXPECT_EQ(fate_[e->offer], Fate::kAssigned) << e->offer;
      fate_[e->offer] = Fate::kExecuted;
      ++terminal_events_[e->offer];
      ++executed_;
    } else if (const auto* e = std::get_if<OfferExpired>(&event)) {
      ASSERT_EQ(fate_.count(e->offer), 1u) << e->offer;
      const Fate from = fate_[e->offer];
      EXPECT_TRUE(from == Fate::kPending || from == Fate::kAssigned)
          << e->offer;
      ++(from == Fate::kAssigned ? coverage_->execution_timeouts
                                 : coverage_->pipeline_expiries);
      fate_[e->offer] = Fate::kExpired;
      ++terminal_events_[e->offer];
      ++expired_;
    } else {
      ADD_FAILURE() << "unexpected event " << EventName(event);
    }
  }

  void Drain() {
    for (const Event& event : engine_.PollEvents()) {
      Observe(event);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  size_t CountFate(Fate fate) const {
    size_t n = 0;
    for (const auto& [id, f] : fate_) n += f == fate ? 1 : 0;
    return n;
  }

  void CheckTallies() {
    const OfferLifecycle& lc = engine_.lifecycle();
    const storage::DataStore& store = engine_.store();
    auto in_lc = [&](OfferState s) { return lc.CountInState(s); };
    auto in_store = [&](FlexOfferState s) {
      return store.FlexOffersInState(s).size();
    };
    // Lifecycle counts equal the event tallies.
    EXPECT_EQ(lc.size(), fate_.size());
    EXPECT_EQ(in_lc(OfferState::kOffered), 0u);
    EXPECT_EQ(in_lc(OfferState::kScheduled), 0u);
    EXPECT_EQ(in_lc(OfferState::kRejected), CountFate(Fate::kRejected));
    EXPECT_EQ(in_lc(OfferState::kAccepted) + in_lc(OfferState::kAggregated),
              CountFate(Fate::kPending));
    EXPECT_EQ(in_lc(OfferState::kAssigned), CountFate(Fate::kAssigned));
    EXPECT_EQ(in_lc(OfferState::kExecuted), CountFate(Fate::kExecuted));
    EXPECT_EQ(in_lc(OfferState::kExpired), CountFate(Fate::kExpired));
    size_t awaiting = 0;  // members of forwarded macros without a schedule
    for (const auto& [id, m] : macros_) awaiting += m.members;
    EXPECT_EQ(in_lc(OfferState::kAggregated), awaiting);

    // The store holds the admitted offers only, state for state.
    EXPECT_EQ(store.num_flex_offers(), static_cast<size_t>(accepted_));
    EXPECT_EQ(in_store(FlexOfferState::kOffered), 0u);
    EXPECT_EQ(in_store(FlexOfferState::kRejected), 0u);
    EXPECT_EQ(in_store(FlexOfferState::kAccepted),
              in_lc(OfferState::kAccepted));
    EXPECT_EQ(in_store(FlexOfferState::kAggregated),
              in_lc(OfferState::kAggregated));
    EXPECT_EQ(in_store(FlexOfferState::kScheduled),
              in_lc(OfferState::kAssigned));
    EXPECT_EQ(in_store(FlexOfferState::kExecuted),
              in_lc(OfferState::kExecuted));
    EXPECT_EQ(in_store(FlexOfferState::kExpired), in_lc(OfferState::kExpired));

    // Stats equal the facts.
    const EngineStats& stats = engine_.stats();
    EXPECT_EQ(stats.offers_received, received_);
    EXPECT_EQ(stats.offers_accepted, accepted_);
    EXPECT_EQ(stats.offers_rejected, rejected_);
    EXPECT_EQ(stats.micro_schedules_sent, assigned_);
    EXPECT_EQ(stats.offers_executed, executed_);
    EXPECT_EQ(stats.offers_expired_in_pipeline + stats.executions_timed_out,
              expired_);
    EXPECT_EQ(stats.macros_expired_unscheduled, macros_expired_);
    EXPECT_EQ(stats.invariant_violations, 0);

    for (const auto& [id, n] : terminal_events_) {
      ASSERT_LE(n, 1) << "offer " << id << " closed twice";
    }
  }

  struct PendingMacro {
    FlexOffer macro;
    size_t members = 0;
  };

  Rng rng_;
  const bool forwarding_;
  Coverage* coverage_;
  EdmsEngine engine_;
  TimeSlice now_ = 0;
  FlexOfferId next_id_ = 1;
  bool zero_submitted_ = false;
  std::map<FlexOfferId, Fate> fate_;
  std::map<FlexOfferId, int> terminal_events_;
  std::map<FlexOfferId, PendingMacro> macros_;
  std::vector<ScheduledFlexOffer> schedules_;
  int64_t received_ = 0;
  int64_t accepted_ = 0;
  int64_t rejected_ = 0;
  int64_t assigned_ = 0;
  int64_t executed_ = 0;
  int64_t expired_ = 0;
  int64_t macros_expired_ = 0;
};

void RunSeeds(bool forwarding) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EngineModel model(seed, forwarding, &coverage);
    model.Run(/*steps=*/300);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(coverage.repeated_batches, 0);
  EXPECT_GT(coverage.invalid_offers, 0);
  EXPECT_GT(coverage.zero_ids, 0);
  EXPECT_GT(coverage.executions, 0);
  EXPECT_GT(coverage.refused_executions, 0);
  EXPECT_GT(coverage.pipeline_expiries, 0);
  EXPECT_GT(coverage.execution_timeouts, 0);
  if (forwarding) {
    EXPECT_GT(coverage.rejected_deliveries, 0);
    EXPECT_GT(coverage.macro_expiries, 0);
  }
}

TEST(EdmsEnginePropertyTest, LocalSchedulingKeepsBookkeepingConsistent) {
  RunSeeds(/*forwarding=*/false);
}

TEST(EdmsEnginePropertyTest, ForwardingKeepsBookkeepingConsistent) {
  RunSeeds(/*forwarding=*/true);
}

}  // namespace
}  // namespace mirabel::edms

#ifndef MIRABEL_EDMS_EDMS_ENGINE_H_
#define MIRABEL_EDMS_EDMS_ENGINE_H_

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "aggregation/pipeline.h"
#include "edms/baseline_provider.h"
#include "edms/event_queue.h"
#include "edms/events.h"
#include "edms/offer_lifecycle.h"
#include "edms/scheduler_registry.h"
#include "negotiation/negotiator.h"
#include "storage/data_store.h"

namespace mirabel::edms {

/// Counters of one engine's trading activity (the former AggregatingStats).
/// Every field is additive, so shard stats merge by summation — see Merge().
struct EngineStats {
  int64_t offers_received = 0;
  /// Non-empty SubmitOffers() batches processed (mean batch size =
  /// offers_received / submit_batches).
  int64_t submit_batches = 0;
  int64_t offers_accepted = 0;
  int64_t offers_rejected = 0;
  int64_t scheduling_runs = 0;
  int64_t macros_scheduled = 0;
  int64_t micro_schedules_sent = 0;
  int64_t offers_expired_in_pipeline = 0;
  int64_t offers_executed = 0;
  /// Flexibility payments promised to offer owners (EUR).
  double payments_eur = 0.0;
  /// Absolute imbalance over the accounted horizon slices, without / with
  /// flex-offer scheduling (kWh). The "after" number is what the paper's
  /// Fig. 1 illustrates: shifted flexible demand absorbs RES production.
  /// Accounted per scheduling problem: when engines sharing one baseline
  /// are merged (ShardedEdmsRuntime), each shard counts that baseline once,
  /// so compare the before-after *difference* across shard counts, not the
  /// raw totals.
  double imbalance_before_kwh = 0.0;
  double imbalance_after_kwh = 0.0;
  /// Total scheduling cost of the accepted schedules (EUR).
  double schedule_cost_eur = 0.0;
  /// Wall-clock budget returned by per-problem-size budget scaling: the sum
  /// over scheduling runs of (configured per-gate budget - scaled budget).
  /// See Config::scheduler_budget_s.
  double budget_saved_s = 0.0;
  /// Deferred intake errors (pooled ShardedEdmsRuntime drains): every
  /// non-duplicate failure is counted here even though the barriers
  /// (Advance()/ExpireDeadlines()/FlushIntake()) return only the first one.
  int64_t intake_errors = 0;
  /// RecordMeterReadings() execution failures that were tolerated (e.g.
  /// re-metered offers on duplicate-heavy bus traffic).
  int64_t metering_failures = 0;
  /// Offers shed by a bounded pooled intake (ShardedEdmsRuntime::Config::
  /// max_pending_batches_per_shard); they never reached an engine (so they
  /// are NOT in offers_received / offers_rejected) and surface as
  /// OfferRejected{kOverloaded} events.
  int64_t offers_shed = 0;
  /// Offers still sitting in shard intake queues when the runtime was
  /// destroyed (reported through Config::final_stats only).
  int64_t offers_dropped_at_shutdown = 0;
  /// Forwarded macro offers that missed their reply deadline — the parent
  /// never returned a schedule — and were expired with all their members
  /// (MacroExpired + per-member OfferExpired events).
  int64_t macros_expired_unscheduled = 0;
  /// Assigned offers whose execution confirmation never arrived within
  /// Config::execution_timeout_slices of their schedule's end; closed as
  /// expired so per-offer bookkeeping cannot leak under message loss.
  int64_t executions_timed_out = 0;
  /// Engine moves that failed although a correct engine cannot fail them
  /// (a store or pipeline move the lifecycle said was legal, an admitted
  /// offer missing from the lifecycle or the store). Stays 0 in a correct
  /// engine: debug builds assert on the first one, release builds count it
  /// and carry on.
  int64_t invariant_violations = 0;
  /// Portfolio-race wins per member family, counted over scheduling runs
  /// whose result carried per-member stats (i.e. the configured scheduler
  /// was a PortfolioScheduler). Members with other names count nowhere.
  int64_t portfolio_wins_greedy = 0;
  int64_t portfolio_wins_ea = 0;
  int64_t portfolio_wins_bnb = 0;
  /// Scheduling runs whose result was proved optimal over the start-slot
  /// search space (BranchAndBound directly, or a portfolio whose winner
  /// proved it; a completed Exhaustive sweep counts too).
  int64_t bnb_optimal_proven = 0;

  /// Adds `other` field by field. The implementation destructures the whole
  /// struct, so adding a field without extending Merge() fails to compile.
  EngineStats& Merge(const EngineStats& other);
};

EngineStats& operator+=(EngineStats& lhs, const EngineStats& rhs);
EngineStats operator+(EngineStats lhs, const EngineStats& rhs);

/// The wire ids of published (forwarded) macro offers: actor *
/// kMacroIdStride + aggregate id * lanes + lane, so every actor owns one
/// stride of the id space and each of its `lanes` engines one residue class
/// inside it.
inline constexpr uint64_t kMacroIdStride = 1000000;

/// The wire id of aggregate `aggregate_id` published by `actor` on `lane`
/// of `lanes`; nullopt when the intra-actor index would reach the stride
/// (it would alias the next actor's range at the parent level).
inline std::optional<flexoffer::FlexOfferId> MacroWireId(
    flexoffer::ActorId actor, uint64_t aggregate_id, uint64_t lane,
    uint64_t lanes) {
  const uint64_t intra_actor = aggregate_id * lanes + lane;
  if (intra_actor >= kMacroIdStride) return std::nullopt;
  return actor * kMacroIdStride + intra_actor;
}

/// The lane (of `lanes`) that published macro wire id `wire_id`.
inline uint64_t MacroLane(flexoffer::FlexOfferId wire_id, uint64_t lanes) {
  return wire_id % kMacroIdStride % lanes;
}

/// The EDMS Control component as a single facade (paper §3, §8): one engine
/// drives the full flex-offer life cycle — offered, accepted, aggregated,
/// scheduled, assigned, executed — that nodes, examples and benches used to
/// hand-wire out of negotiator, pipeline and scheduler.
///
/// Usage is batch-first and tick-driven:
///
///   EdmsEngine engine(config);
///   engine.SubmitOffers(offers, now);        // intake + negotiation
///   engine.Advance(now);                     // fires the gate when due
///   for (const Event& e : engine.PollEvents()) ...  // typed event stream
///
/// In local-scheduling mode a gate closure aggregates, schedules and
/// disaggregates; in forwarding mode (schedule_locally = false) it publishes
/// macro offers for a higher EDMS level whose schedules return through
/// CompleteMacroSchedule() ("the process is essentially repeated at a higher
/// level", paper §2). All lifecycle bookkeeping runs through an explicit
/// OfferLifecycle state machine; all side effects surface as events.
///
/// Thread safety: the engine is single-threaded by design — every mutating
/// call (SubmitOffers, Advance, CompleteMacroSchedule, RecordExecution,
/// RecordMeasurement) must come from one thread at a time, with exactly one
/// exception: PollEvents() may run concurrently from one other thread (the
/// engine is the producer of its SPSC EventQueue, the poller the consumer).
/// ShardedEdmsRuntime relies on precisely this split: it serializes each
/// shard engine's mutations on a WorkerPool::Strand and drains events from
/// the control thread. The const accessors (stats(), lifecycle(), store(),
/// pipeline()) are safe only while no mutating call is in flight.
class EdmsEngine {
 public:
  struct Config {
    /// Actor id of the engine's operator (BRP/TSO); stamped as the owner of
    /// published macro offers.
    flexoffer::ActorId actor = 0;
    /// Negotiate (and possibly reject) incoming offers. BRPs negotiate with
    /// prosumers; a TSO accepts the macro offers of its BRPs.
    bool negotiate = true;
    negotiation::Negotiator::Config negotiation;
    aggregation::PipelineConfig aggregation;

    /// Control-loop cadence (slices between gate closures).
    int gate_period = 16;
    /// Scheduling horizon per run (slices).
    int horizon = 96;
    /// Scheduler factory (see SchedulerRegistry); empty resolves to
    /// DefaultSchedulerFactory().
    SchedulerFactory scheduler_factory;
    /// Per-gate wall-clock cap, scaled with problem size (ScaledTimeBudget):
    /// a gate scheduling `n` macro offers over `horizon` slices gets
    /// scheduler_budget_s * min(1, n * horizon / (32 * 96)), floored at 2%
    /// of the cap, so tiny late gates stop burning the full budget. The
    /// saved time accrues in EngineStats::budget_saved_s.
    double scheduler_budget_s = 0.05;
    /// Iteration cap per scheduling run (<= 0: no cap). Set this and a
    /// non-positive time budget for bit-deterministic runs. At least one of
    /// the two limits must be set for the greedy and EA schedulers: with
    /// neither, every gate fails with InvalidArgument and expires the
    /// offers it claimed.
    int scheduler_max_iterations = 0;
    uint64_t seed = 5;

    /// Baseline imbalance source; null resolves to ZeroBaselineProvider.
    /// Plug in a ForecastBaselineProvider to drive scheduling straight from
    /// the forecasting component.
    std::shared_ptr<BaselineProvider> baseline;

    /// Market / penalty parameters of the engine's scheduling problems.
    double penalty_eur_per_kwh = 0.25;
    double buy_price_eur = 0.12;
    double sell_price_eur = 0.05;
    double max_buy_kwh = 50.0;
    double max_sell_kwh = 50.0;

    /// When false, gate closures publish macro offers (MacroPublished with
    /// forwarded = true) instead of scheduling; schedules return via
    /// CompleteMacroSchedule().
    bool schedule_locally = true;

    /// Deadline-degradation grace: an assigned offer whose execution
    /// confirmation has not arrived this many slices after its schedule
    /// ended is closed as expired (ExpireDeadlines()). Must exceed the bus
    /// round trip plus the owner's metering cadence; 0 disables the check.
    int execution_timeout_slices = 32;

    /// Identifier lane of published macro offers (see MacroWireId()). The
    /// sharded runtime gives every shard its own lane so macros published
    /// by different shards of one actor never collide; the defaults
    /// reproduce the single-engine id scheme.
    uint64_t macro_id_lane = 0;
    uint64_t macro_id_lanes = 1;
  };

  explicit EdmsEngine(const Config& config);

  /// Batch intake: validates and negotiates each offer, inserts the agreed
  /// ones into the aggregation pipeline, and emits one OfferAccepted or
  /// OfferRejected event per offer. Returns the number accepted. Duplicate
  /// ids (offers the engine has already seen, or repeats within the batch)
  /// reject the whole batch with AlreadyExists before any state changes.
  Result<size_t> SubmitOffers(std::span<const flexoffer::FlexOffer> offers,
                              flexoffer::TimeSlice now);

  /// Single-offer convenience over SubmitOffers().
  Status SubmitOffer(const flexoffer::FlexOffer& offer,
                     flexoffer::TimeSlice now);

  /// Advances the control loop to slice `now`; fires the gate when due. A
  /// gate closure expires stale offers, claims the aggregates that fit the
  /// upcoming horizon, and either schedules them locally or publishes them.
  Status Advance(flexoffer::TimeSlice now);

  /// Deadline degradation pass, also run at every gate closure: expires
  /// (a) pipeline offers whose assignment deadline or start window has
  /// passed, (b) forwarded macros whose schedule never returned from the
  /// parent level (MacroExpired + per-member OfferExpired), and (c)
  /// assigned offers whose execution confirmation is overdue. Wind-down
  /// phases call this directly so every admitted offer reaches a terminal
  /// lifecycle state without opening new gates.
  void ExpireDeadlines(flexoffer::TimeSlice now);

  /// Delivers the schedule of a previously published (forwarded) macro
  /// offer: disaggregates it and emits ScheduleAssigned per member.
  /// NotFound when no such macro is pending.
  Status CompleteMacroSchedule(const flexoffer::ScheduledFlexOffer& schedule,
                               flexoffer::TimeSlice now);

  /// Records that the owner executed its assigned schedule (closing the
  /// lifecycle) and meters the energy.
  Status RecordExecution(flexoffer::FlexOfferId id, flexoffer::TimeSlice now,
                         double energy_kwh);

  /// Appends a raw measurement to the store (not tied to an offer).
  void RecordMeasurement(flexoffer::ActorId actor, flexoffer::TimeSlice slice,
                         double energy_kwh);

  /// Drains the pending event stream, in emission order.
  ///
  /// Threading: the event channel is a single-producer/single-consumer
  /// queue. All mutating engine calls must stay on one thread (the
  /// producer), but PollEvents() may be issued from one other thread — this
  /// is how a ShardedEdmsRuntime shard streams events out of its worker.
  std::vector<Event> PollEvents();

  /// True when a published (forwarded) macro offer with this wire id is
  /// still awaiting its schedule.
  bool HasPendingMacro(flexoffer::FlexOfferId id) const {
    return pending_macros_.count(id) != 0;
  }

  const EngineStats& stats() const { return stats_; }
  const OfferLifecycle& lifecycle() const { return lifecycle_; }
  const storage::DataStore& store() const { return store_; }
  const aggregation::AggregationPipeline& pipeline() const {
    return pipeline_;
  }
  const Config& config() const { return config_; }

 private:
  Status RunGate(flexoffer::TimeSlice now);
  /// Schedules `macros` locally over (now, now + horizon] and emits the
  /// disaggregated member schedules. On failure the claimed members are
  /// expired (they are already out of the pipeline).
  Status ScheduleLocally(
      flexoffer::TimeSlice now,
      const std::vector<aggregation::AggregatedFlexOffer>& macros);
  /// The fallible part of ScheduleLocally: baseline, scheduler run, events.
  Status ScheduleClaimed(
      flexoffer::TimeSlice now,
      const std::vector<aggregation::AggregatedFlexOffer>& macros);
  /// Disaggregates `macro_schedule` against the snapshot `agg` and emits one
  /// ScheduleAssigned event per member.
  Status EmitMemberSchedules(
      flexoffer::TimeSlice now, const aggregation::AggregatedFlexOffer& agg,
      const flexoffer::ScheduledFlexOffer& macro_schedule);

  // Per-offer bookkeeping. Each entry point resolves an offer's lifecycle
  // slot once; the slot's record also holds the offer's store row, so the
  // lifecycle and the store are then addressed without further lookups.

  /// Returns true for an OK `st`. Otherwise the failed move is one a correct
  /// engine cannot produce: counts it in invariant_violations, logs it,
  /// asserts in debug builds and returns false.
  bool Invariant(const Status& st);
  /// The slot of an offer the engine admitted; a miss is an invariant
  /// violation. The slot's RowAt() addresses the store: a rejected offer's
  /// kNoRow is past the table, so the store's row calls refuse it.
  std::optional<OfferSlot> AdmittedSlot(flexoffer::FlexOfferId id);
  /// Closes an admitted offer that was never scheduled (pipeline deadline,
  /// stale macro, exhausted macro ids, failed gate): store and lifecycle
  /// move to expired, offers_expired_in_pipeline counts it and OfferExpired
  /// is emitted.
  void ExpireUnscheduled(flexoffer::FlexOfferId id, flexoffer::ActorId owner,
                         flexoffer::TimeSlice now);

  Config config_;
  storage::DataStore store_;
  negotiation::Negotiator negotiator_;
  aggregation::AggregationPipeline pipeline_;
  OfferLifecycle lifecycle_;
  EngineStats stats_;
  EventQueue events_;
  flexoffer::TimeSlice last_gate_ = -1;
  /// Snapshots of published macro offers keyed by the composite wire id,
  /// needed to disaggregate the schedules when they return.
  std::unordered_map<flexoffer::FlexOfferId, aggregation::AggregatedFlexOffer>
      pending_macros_;

  /// SubmitOffers() scratch, kept so that intake does not allocate per
  /// batch: the batch's ids (sorted to find repeats) and the agreed offers
  /// by index into the caller's span.
  struct Admitted {
    size_t index = 0;
    OfferSlot slot = 0;
    double price_eur = 0.0;
  };
  std::vector<flexoffer::FlexOfferId> batch_ids_;
  std::vector<Admitted> admitted_;
};

}  // namespace mirabel::edms

#endif  // MIRABEL_EDMS_EDMS_ENGINE_H_

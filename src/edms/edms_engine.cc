#include "edms/edms_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "scheduling/compiled_problem.h"
#include "scheduling/scheduling_problem.h"

namespace mirabel::edms {

using aggregation::AggregatedFlexOffer;
using flexoffer::FlexOffer;
using flexoffer::FlexOfferId;
using flexoffer::ScheduledFlexOffer;
using flexoffer::TimeSlice;

namespace {

/// Problem size (offers x horizon slices) that earns a gate the full
/// scheduler budget (see Config::scheduler_budget_s).
constexpr double kBudgetReferenceWork = 32.0 * 96.0;

}  // namespace

EngineStats& EngineStats::Merge(const EngineStats& other) {
  // Destructuring both sides pins the member count at compile time: adding a
  // field to EngineStats without extending these bindings fails to build.
  // The size guard additionally catches same-count layout changes.
  static_assert(sizeof(EngineStats) == 25 * sizeof(int64_t),
                "EngineStats layout changed: update Merge()");
  auto& [received, batches, accepted, rejected, runs, macros, micros, expired,
         executed, payments, imb_before, imb_after, cost, budget_saved,
         intake_errs, metering_fails, shed, dropped, macros_expired,
         exec_timeouts, violations, wins_greedy, wins_ea, wins_bnb, proven] =
      *this;
  const auto& [o_received, o_batches, o_accepted, o_rejected, o_runs, o_macros,
               o_micros, o_expired, o_executed, o_payments, o_imb_before,
               o_imb_after, o_cost, o_budget_saved, o_intake_errs,
               o_metering_fails, o_shed, o_dropped, o_macros_expired,
               o_exec_timeouts, o_violations, o_wins_greedy, o_wins_ea,
               o_wins_bnb, o_proven] = other;
  received += o_received;
  batches += o_batches;
  accepted += o_accepted;
  rejected += o_rejected;
  runs += o_runs;
  macros += o_macros;
  micros += o_micros;
  expired += o_expired;
  executed += o_executed;
  payments += o_payments;
  imb_before += o_imb_before;
  imb_after += o_imb_after;
  cost += o_cost;
  budget_saved += o_budget_saved;
  intake_errs += o_intake_errs;
  metering_fails += o_metering_fails;
  shed += o_shed;
  dropped += o_dropped;
  macros_expired += o_macros_expired;
  exec_timeouts += o_exec_timeouts;
  violations += o_violations;
  wins_greedy += o_wins_greedy;
  wins_ea += o_wins_ea;
  wins_bnb += o_wins_bnb;
  proven += o_proven;
  return *this;
}

EngineStats& operator+=(EngineStats& lhs, const EngineStats& rhs) {
  return lhs.Merge(rhs);
}

EngineStats operator+(EngineStats lhs, const EngineStats& rhs) {
  lhs.Merge(rhs);
  return lhs;
}

EdmsEngine::EdmsEngine(const Config& config)
    : config_(config),
      negotiator_(config.negotiation),
      pipeline_(config.aggregation) {
  if (!config_.scheduler_factory) {
    config_.scheduler_factory = DefaultSchedulerFactory();
  }
  if (config_.baseline == nullptr) {
    config_.baseline = std::make_shared<ZeroBaselineProvider>();
  }
}

Result<size_t> EdmsEngine::SubmitOffers(std::span<const FlexOffer> offers,
                                        TimeSlice now) {
  if (offers.empty()) return size_t{0};

  // Phase 0: reject duplicate ids up front, before any state mutates —
  // aborting mid-batch would strand the earlier offers in kOffered. A known
  // id is one index probe; repeats within the batch are neighbours once the
  // batch's ids are sorted.
  auto duplicate = [](FlexOfferId id) {
    return Status::AlreadyExists("offer " + std::to_string(id) +
                                 " was already submitted");
  };
  batch_ids_.clear();
  for (const FlexOffer& offer : offers) {
    if (lifecycle_.SlotOf(offer.id).has_value()) return duplicate(offer.id);
    batch_ids_.push_back(offer.id);
  }
  std::sort(batch_ids_.begin(), batch_ids_.end());
  auto repeat = std::adjacent_find(batch_ids_.begin(), batch_ids_.end());
  if (repeat != batch_ids_.end()) return duplicate(*repeat);
  ++stats_.submit_batches;

  // Phase 1: admit. Validation and negotiation decide per offer; the agreed
  // ones are kept by index for one pipeline pass.
  admitted_.clear();
  for (size_t i = 0; i < offers.size(); ++i) {
    const FlexOffer& offer = offers[i];
    ++stats_.offers_received;
    MIRABEL_ASSIGN_OR_RETURN(OfferSlot slot, lifecycle_.Begin(offer.id));
    double price = 0.0;
    bool agreed = offer.Validate().ok();
    if (agreed && config_.negotiate) {
      negotiation::NegotiationOutcome outcome =
          negotiator_.Negotiate(offer, /*reservation_price_eur=*/0.0);
      agreed = outcome.decision ==
               negotiation::NegotiationOutcome::Decision::kAgreed;
      price = outcome.agreed_price_eur;
    }
    if (!agreed) {
      ++stats_.offers_rejected;
      MIRABEL_RETURN_IF_ERROR(
          lifecycle_.TransitionAt(slot, OfferState::kRejected));
      events_.Push(OfferRejected{offer.id, offer.owner, now});
      continue;
    }
    admitted_.push_back({i, slot, price});
  }
  if (admitted_.empty()) return size_t{0};

  // Phase 2: pipeline insertion. Offers are pre-validated and id-unique
  // (the lifecycle admitted them), so failures here are engine bugs.
  for (const Admitted& a : admitted_) {
    MIRABEL_RETURN_IF_ERROR(pipeline_.Insert(offers[a.index]));
  }

  // Phase 3: bookkeeping + events for the accepted offers. The store row
  // goes into the offer's lifecycle record, so later events on the offer
  // reach the store without a lookup.
  for (const Admitted& a : admitted_) {
    const FlexOffer& offer = offers[a.index];
    ++stats_.offers_accepted;
    stats_.payments_eur += a.price_eur;
    Result<size_t> row = store_.PutFlexOffer(offer);
    if (Invariant(row.status())) {
      lifecycle_.BindRow(a.slot, *row);
      Invariant(store_.TransitionFlexOfferAt(
          *row, storage::FlexOfferState::kAccepted));
      Invariant(store_.SetAgreedPriceAt(*row, a.price_eur));
    }
    MIRABEL_RETURN_IF_ERROR(
        lifecycle_.TransitionAt(a.slot, OfferState::kAccepted));
    events_.Push(OfferAccepted{offer.id, offer.owner, now, a.price_eur});
  }
  return admitted_.size();
}

Status EdmsEngine::SubmitOffer(const FlexOffer& offer, TimeSlice now) {
  return SubmitOffers(std::span<const FlexOffer>(&offer, 1), now).status();
}

Status EdmsEngine::Advance(TimeSlice now) {
  if (last_gate_ >= 0 && now - last_gate_ < config_.gate_period) {
    return Status::OK();
  }
  last_gate_ = now;
  return RunGate(now);
}

void EdmsEngine::ExpireDeadlines(TimeSlice now) {
  (void)pipeline_.Flush();
  const TimeSlice horizon_start = now + 1;

  // (a) Pipeline offers whose window already closed: the macro deadline is
  // the earliest member deadline — past it, members have already fallen
  // back to their contracts.
  std::vector<std::pair<FlexOfferId, flexoffer::ActorId>> expired_members;
  for (const auto& [aid, agg] : pipeline_.aggregates()) {
    if (agg.macro.assignment_before <= now ||
        agg.macro.latest_start < horizon_start) {
      for (const auto& m : agg.members) {
        expired_members.emplace_back(m.offer.id, m.offer.owner);
      }
    }
  }
  for (const auto& [id, owner] : expired_members) {
    Invariant(pipeline_.Remove(id));
    ExpireUnscheduled(id, owner, now);
  }
  if (!expired_members.empty()) (void)pipeline_.Flush();

  // (b) Forwarded macros whose schedule never returned from the parent
  // level (lost reply, parent blackout): expire the members instead of
  // stranding them. Ids are sorted so the event order is canonical.
  std::vector<FlexOfferId> stale_macros;
  for (const auto& [id, agg] : pending_macros_) {
    if (agg.macro.assignment_before <= now) stale_macros.push_back(id);
  }
  std::sort(stale_macros.begin(), stale_macros.end());
  for (FlexOfferId macro_id : stale_macros) {
    auto it = pending_macros_.find(macro_id);
    for (const auto& m : it->second.members) {
      ExpireUnscheduled(m.offer.id, m.offer.owner, now);
    }
    ++stats_.macros_expired_unscheduled;
    events_.Push(MacroExpired{macro_id, now, it->second.members.size()});
    pending_macros_.erase(it);
  }

  // (c) Assigned offers whose execution confirmation is overdue: the
  // metering was lost (or the owner is gone) — close the lifecycle so
  // bookkeeping cannot leak. A late metering then fails its transition and
  // is tolerated as a metering_failure, so there is exactly one terminal
  // event per offer.
  if (config_.execution_timeout_slices > 0) {
    store_.VisitScheduledEndingBy(
        now - config_.execution_timeout_slices,
        [&](const storage::FlexOfferFact& fact) {
          std::optional<OfferSlot> slot = AdmittedSlot(fact.id);
          if (!slot.has_value() ||
              !lifecycle_.TransitionAt(*slot, OfferState::kExpired).ok()) {
            return;
          }
          Invariant(store_.TransitionFlexOfferAt(
              lifecycle_.RowAt(*slot), storage::FlexOfferState::kExpired));
          ++stats_.executions_timed_out;
          events_.Push(OfferExpired{fact.id, fact.offer.owner, now});
        });
  }
}

Status EdmsEngine::RunGate(TimeSlice now) {
  ExpireDeadlines(now);

  const TimeSlice horizon_start = now + 1;
  const TimeSlice horizon_end = horizon_start + config_.horizon;

  std::vector<AggregatedFlexOffer> ready;
  for (const auto& [aid, agg] : pipeline_.aggregates()) {
    if (agg.macro.earliest_start >= horizon_start &&
        agg.macro.LatestEnd() <= horizon_end) {
      ready.push_back(agg);
    }
    // Otherwise the aggregate waits for a later gate.
  }

  if (ready.empty()) {
    return Status::OK();
  }

  // Claim the scheduled-now offers: remove members from the pipeline and
  // keep the aggregate snapshots for disaggregation.
  for (const auto& agg : ready) {
    for (const auto& m : agg.members) {
      Invariant(pipeline_.Remove(m.offer.id));
      std::optional<OfferSlot> slot = AdmittedSlot(m.offer.id);
      if (!slot.has_value()) continue;
      Invariant(store_.TransitionFlexOfferAt(
          lifecycle_.RowAt(*slot), storage::FlexOfferState::kAggregated));
      MIRABEL_RETURN_IF_ERROR(
          lifecycle_.TransitionAt(*slot, OfferState::kAggregated));
    }
  }
  (void)pipeline_.Flush();

  if (!config_.schedule_locally) {
    // Publish macro offers for higher-level aggregation and scheduling.
    for (const auto& agg : ready) {
      FlexOffer macro = agg.macro;
      // Laned ids divide the per-actor headroom by the lane count: a shard
      // burning through kMacroIdStride / lanes aggregate ids is a
      // deployment that needs a wider id scheme, not silent mis-routing.
      std::optional<FlexOfferId> wire_id =
          MacroWireId(config_.actor, agg.macro.id, config_.macro_id_lane,
                      config_.macro_id_lanes);
      if (!wire_id.has_value()) {
        MIRABEL_LOG(kError) << "macro id space exhausted (aggregate "
                            << agg.macro.id << " x " << config_.macro_id_lanes
                            << " lanes); expiring its members";
        for (const auto& m : agg.members) {
          ExpireUnscheduled(m.offer.id, m.offer.owner, now);
        }
        continue;
      }
      macro.id = *wire_id;
      macro.owner = config_.actor;
      // The snapshot must carry the wire id so the returning schedule
      // validates against it at disaggregation time.
      AggregatedFlexOffer snapshot = agg;
      snapshot.macro.id = macro.id;
      snapshot.macro.owner = config_.actor;
      pending_macros_.emplace(macro.id, std::move(snapshot));
      events_.Push(
          MacroPublished{std::move(macro), now, agg.members.size(), true});
    }
    return Status::OK();
  }

  return ScheduleLocally(now, ready);
}

Status EdmsEngine::ScheduleLocally(
    TimeSlice now, const std::vector<AggregatedFlexOffer>& macros) {
  Status st = ScheduleClaimed(now, macros);
  if (!st.ok()) {
    // The members were already claimed out of the pipeline; close their
    // lifecycles so the owners fall back to their contracts instead of
    // waiting on a schedule that can no longer arrive.
    for (const auto& agg : macros) {
      for (const auto& m : agg.members) {
        ExpireUnscheduled(m.offer.id, m.offer.owner, now);
      }
    }
  }
  return st;
}

Status EdmsEngine::ScheduleClaimed(
    TimeSlice now, const std::vector<AggregatedFlexOffer>& macros) {
  const TimeSlice horizon_start = now + 1;
  scheduling::SchedulingProblem problem;
  problem.horizon_start = horizon_start;
  problem.horizon_length = config_.horizon;
  size_t h = static_cast<size_t>(config_.horizon);
  MIRABEL_ASSIGN_OR_RETURN(
      problem.baseline_imbalance_kwh,
      config_.baseline->Baseline(horizon_start, config_.horizon));
  problem.imbalance_penalty_eur.resize(h);
  problem.market.buy_price_eur.assign(h, config_.buy_price_eur);
  problem.market.sell_price_eur.assign(h, config_.sell_price_eur);
  problem.market.max_buy_kwh = config_.max_buy_kwh;
  problem.market.max_sell_kwh = config_.max_sell_kwh;
  for (size_t s = 0; s < h; ++s) {
    size_t t = static_cast<size_t>(horizon_start) + s;
    int slice_of_day = flexoffer::SliceOfDay(static_cast<TimeSlice>(t));
    bool evening_peak = slice_of_day >= 68 && slice_of_day <= 84;  // 17-21 h
    problem.imbalance_penalty_eur[s] =
        config_.penalty_eur_per_kwh * (evening_peak ? 3.0 : 1.0);
  }
  problem.offers.reserve(macros.size());
  for (const auto& agg : macros) problem.offers.push_back(agg.macro);

  std::unique_ptr<scheduling::Scheduler> scheduler =
      config_.scheduler_factory();
  if (scheduler == nullptr) {
    return Status::Internal("scheduler factory returned nullptr");
  }
  // One compile serves the whole gate: the scheduler run (all its restarts
  // and every portfolio member), the imbalance accounting and the
  // macro-schedule export below. Validate() here is the check
  // Scheduler::Run() would apply.
  MIRABEL_RETURN_IF_ERROR(problem.Validate());
  scheduling::CompiledProblem compiled(problem);
  scheduling::SchedulerOptions options;
  options.time_budget_s = ScaledTimeBudget(
      config_.scheduler_budget_s, problem.offers.size(), config_.horizon,
      kBudgetReferenceWork, /*min_fraction=*/0.02);
  stats_.budget_saved_s += config_.scheduler_budget_s - options.time_budget_s;
  options.max_iterations = config_.scheduler_max_iterations;
  options.seed = config_.seed + static_cast<uint64_t>(now);
  MIRABEL_ASSIGN_OR_RETURN(scheduling::SchedulingResult run,
                           scheduler->RunCompiled(compiled, options));
  ++stats_.scheduling_runs;
  stats_.schedule_cost_eur += run.cost.total();
  if (run.optimal_proven) ++stats_.bnb_optimal_proven;
  for (const scheduling::PortfolioMemberStats& member : run.portfolio) {
    if (!member.won) continue;
    if (member.name == "GreedySearch") ++stats_.portfolio_wins_greedy;
    if (member.name == "EvolutionaryAlgorithm") ++stats_.portfolio_wins_ea;
    if (member.name == "BranchAndBound") ++stats_.portfolio_wins_bnb;
  }
  for (const auto& agg : macros) {
    events_.Push(MacroPublished{agg.macro, now, agg.members.size(),
                                     /*forwarded=*/false});
  }

  // Imbalance accounting: "before" is the unmanaged placement — every offer
  // at its fallback position (earliest start, full energy), which is exactly
  // the scheduling kernel's default schedule — versus the optimised
  // schedule. The gate's shared compiled problem and one workspace serve
  // both sweeps and the macro-schedule export.
  scheduling::ScheduleWorkspace workspace(compiled);
  for (size_t s = 0; s < h; ++s) {
    stats_.imbalance_before_kwh += std::fabs(workspace.net_kwh()[s]);
  }
  Invariant(workspace.SetSchedule(compiled, run.schedule));
  for (size_t s = 0; s < h; ++s) {
    stats_.imbalance_after_kwh += std::fabs(workspace.net_kwh()[s]);
  }

  std::vector<ScheduledFlexOffer> macro_schedules =
      workspace.ExportScheduledOffers(compiled);
  for (size_t i = 0; i < macros.size(); ++i) {
    ++stats_.macros_scheduled;
    Status st = EmitMemberSchedules(now, macros[i], macro_schedules[i]);
    if (!st.ok()) {
      MIRABEL_LOG(kError) << "disaggregation failed: " << st;
    }
  }
  return Status::OK();
}

Status EdmsEngine::CompleteMacroSchedule(const ScheduledFlexOffer& schedule,
                                         TimeSlice now) {
  auto it = pending_macros_.find(schedule.offer_id);
  if (it == pending_macros_.end()) {
    return Status::NotFound("no pending macro offer " +
                            std::to_string(schedule.offer_id));
  }
  // On failure (e.g. a schedule violating the macro's constraints) the
  // snapshot stays pending so a corrected schedule can still land.
  MIRABEL_RETURN_IF_ERROR(EmitMemberSchedules(now, it->second, schedule));
  ++stats_.macros_scheduled;
  pending_macros_.erase(it);
  return Status::OK();
}

Status EdmsEngine::EmitMemberSchedules(
    TimeSlice now, const AggregatedFlexOffer& agg,
    const ScheduledFlexOffer& macro_schedule) {
  MIRABEL_ASSIGN_OR_RETURN(std::vector<ScheduledFlexOffer> members,
                           aggregation::Disaggregate(agg, macro_schedule));
  for (size_t i = 0; i < members.size(); ++i) {
    const ScheduledFlexOffer& schedule = members[i];
    if (std::optional<OfferSlot> slot = AdmittedSlot(schedule.offer_id)) {
      Invariant(store_.AttachScheduleAt(lifecycle_.RowAt(*slot), schedule));
      Invariant(lifecycle_.TransitionAt(*slot, OfferState::kScheduled));
      Invariant(lifecycle_.TransitionAt(*slot, OfferState::kAssigned));
    }
    ++stats_.micro_schedules_sent;
    events_.Push(
        ScheduleAssigned{agg.members[i].offer.owner, now, schedule});
  }
  return Status::OK();
}

Status EdmsEngine::RecordExecution(FlexOfferId id, TimeSlice now,
                                   double energy_kwh) {
  std::optional<OfferSlot> slot = lifecycle_.SlotOf(id);
  const size_t row =
      slot.has_value() ? lifecycle_.RowAt(*slot) : OfferLifecycle::kNoRow;
  if (row == OfferLifecycle::kNoRow) {
    return Status::NotFound("offer " + std::to_string(id) +
                            " is not in the store");
  }
  MIRABEL_RETURN_IF_ERROR(
      lifecycle_.TransitionAt(*slot, OfferState::kExecuted));
  Invariant(
      store_.TransitionFlexOfferAt(row, storage::FlexOfferState::kExecuted));
  ++stats_.offers_executed;
  events_.Push(
      OfferExecuted{id, store_.FlexOfferAt(row).offer.owner, now, energy_kwh});
  return Status::OK();
}

void EdmsEngine::RecordMeasurement(flexoffer::ActorId actor, TimeSlice slice,
                                   double energy_kwh) {
  store_.AppendMeasurement(actor, slice, storage::EnergyType::kConsumption,
                           energy_kwh);
}

std::vector<Event> EdmsEngine::PollEvents() { return events_.DrainAll(); }

bool EdmsEngine::Invariant(const Status& st) {
  if (st.ok()) return true;
  ++stats_.invariant_violations;
  MIRABEL_LOG(kError) << "engine invariant violated: " << st;
  assert(false && "engine invariant violated");
  return false;
}

std::optional<OfferSlot> EdmsEngine::AdmittedSlot(FlexOfferId id) {
  std::optional<OfferSlot> slot = lifecycle_.SlotOf(id);
  if (!slot.has_value()) {
    Invariant(Status::NotFound("offer " + std::to_string(id) +
                               " has no lifecycle"));
  }
  return slot;
}

void EdmsEngine::ExpireUnscheduled(FlexOfferId id, flexoffer::ActorId owner,
                                   TimeSlice now) {
  if (std::optional<OfferSlot> slot = AdmittedSlot(id)) {
    Invariant(store_.TransitionFlexOfferAt(lifecycle_.RowAt(*slot),
                                           storage::FlexOfferState::kExpired));
    Invariant(lifecycle_.TransitionAt(*slot, OfferState::kExpired));
  }
  ++stats_.offers_expired_in_pipeline;
  events_.Push(OfferExpired{id, owner, now});
}

}  // namespace mirabel::edms

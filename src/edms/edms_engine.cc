#include "edms/edms_engine.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "scheduling/compiled_problem.h"
#include "scheduling/robust_scheduler.h"
#include "scheduling/scheduling_problem.h"
#include "scheduling/stochastic_evaluator.h"

namespace mirabel::edms {

using aggregation::AggregatedFlexOffer;
using flexoffer::FlexOffer;
using flexoffer::FlexOfferId;
using flexoffer::ScheduledFlexOffer;
using flexoffer::TimeSlice;

EngineStats& EngineStats::Merge(const EngineStats& other) {
  // Destructuring both sides pins the member count at compile time: adding a
  // field to EngineStats without extending these bindings fails to build.
  // The size guard additionally catches same-count layout changes.
  static_assert(sizeof(EngineStats) == 29 * sizeof(int64_t),
                "EngineStats layout changed: update Merge()");
  auto& [received, batches, accepted, rejected, runs, macros, micros, expired,
         executed, payments, imb_before, imb_after, cost, budget_saved,
         intake_errs, metering_fails, shed, dropped, macros_expired,
         exec_timeouts, wins_greedy, wins_ea, wins_hybrid, wins_bnb, proven,
         rob_runs, rob_evals, rob_expected, rob_cvar] = *this;
  const auto& [o_received, o_batches, o_accepted, o_rejected, o_runs, o_macros,
               o_micros, o_expired, o_executed, o_payments, o_imb_before,
               o_imb_after, o_cost, o_budget_saved, o_intake_errs,
               o_metering_fails, o_shed, o_dropped, o_macros_expired,
               o_exec_timeouts, o_wins_greedy, o_wins_ea, o_wins_hybrid,
               o_wins_bnb, o_proven, o_rob_runs, o_rob_evals, o_rob_expected,
               o_rob_cvar] = other;
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
  wins_greedy += o_wins_greedy;
  wins_ea += o_wins_ea;
  wins_hybrid += o_wins_hybrid;
  wins_bnb += o_wins_bnb;
  proven += o_proven;
  rob_runs += o_rob_runs;
  rob_evals += o_rob_evals;
  rob_expected += o_rob_expected;
  rob_cvar += o_rob_cvar;
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
  // aborting mid-batch would strand the earlier offers in kOffered.
  std::unordered_set<FlexOfferId> batch_ids;
  batch_ids.reserve(offers.size());
  for (const FlexOffer& offer : offers) {
    if (lifecycle_.StateOf(offer.id).ok() ||
        !batch_ids.insert(offer.id).second) {
      return Status::AlreadyExists("offer " + std::to_string(offer.id) +
                                   " was already submitted");
    }
  }
  ++stats_.submit_batches;

  // Phase 1: admit. Validation and negotiation decide per offer; the agreed
  // ones are collected for one batch pipeline insertion.
  std::vector<FlexOffer> admitted;
  std::vector<double> prices;
  admitted.reserve(offers.size());
  prices.reserve(offers.size());
  for (const FlexOffer& offer : offers) {
    ++stats_.offers_received;
    MIRABEL_RETURN_IF_ERROR(lifecycle_.Begin(offer.id));
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
          lifecycle_.Transition(offer.id, OfferState::kRejected).status());
      events_.Push(OfferRejected{offer.id, offer.owner, now});
      continue;
    }
    admitted.push_back(offer);
    prices.push_back(price);
  }
  if (admitted.empty()) return size_t{0};

  // Phase 2: one batch insertion. Offers are pre-validated and id-unique
  // (the lifecycle admitted them), so failures here are engine bugs.
  MIRABEL_RETURN_IF_ERROR(pipeline_.Insert(std::span<const FlexOffer>(admitted)));

  // Phase 3: bookkeeping + events for the accepted offers.
  for (size_t i = 0; i < admitted.size(); ++i) {
    const FlexOffer& offer = admitted[i];
    ++stats_.offers_accepted;
    stats_.payments_eur += prices[i];
    (void)store_.PutFlexOffer(offer);
    (void)store_.TransitionFlexOffer(offer.id,
                                     storage::FlexOfferState::kAccepted);
    (void)store_.SetAgreedPrice(offer.id, prices[i]);
    MIRABEL_RETURN_IF_ERROR(
        lifecycle_.Transition(offer.id, OfferState::kAccepted).status());
    events_.Push(OfferAccepted{offer.id, offer.owner, now, prices[i]});
  }
  return admitted.size();
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
    (void)pipeline_.Remove(id);
    (void)store_.TransitionFlexOffer(id, storage::FlexOfferState::kExpired);
    (void)lifecycle_.Transition(id, OfferState::kExpired);
    ++stats_.offers_expired_in_pipeline;
    events_.Push(OfferExpired{id, owner, now});
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
      (void)store_.TransitionFlexOffer(m.offer.id,
                                       storage::FlexOfferState::kExpired);
      (void)lifecycle_.Transition(m.offer.id, OfferState::kExpired);
      ++stats_.offers_expired_in_pipeline;
      events_.Push(OfferExpired{m.offer.id, m.offer.owner, now});
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
    for (const auto& fact :
         store_.FlexOffersInState(storage::FlexOfferState::kScheduled)) {
      TimeSlice end = fact.schedule.start +
                      static_cast<int64_t>(fact.schedule.energies_kwh.size());
      if (end + config_.execution_timeout_slices > now) continue;
      if (!lifecycle_.Transition(fact.id, OfferState::kExpired).ok()) continue;
      (void)store_.TransitionFlexOffer(fact.id,
                                       storage::FlexOfferState::kExpired);
      ++stats_.executions_timed_out;
      events_.Push(OfferExpired{fact.id, fact.offer.owner, now});
    }
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
      (void)pipeline_.Remove(m.offer.id);
      (void)store_.TransitionFlexOffer(m.offer.id,
                                       storage::FlexOfferState::kAggregated);
      MIRABEL_RETURN_IF_ERROR(
          lifecycle_.Transition(m.offer.id, OfferState::kAggregated)
              .status());
    }
  }
  (void)pipeline_.Flush();

  if (!config_.schedule_locally) {
    // Publish macro offers for higher-level aggregation and scheduling.
    for (const auto& agg : ready) {
      FlexOffer macro = agg.macro;
      // The intra-actor index must stay below the per-actor stride, or the
      // wire id would alias the next actor's range at the parent level.
      // Laned ids divide the headroom by the lane count, so guard it: a
      // shard burning through 1e6 / lanes aggregate ids is a deployment
      // that needs a wider id scheme, not silent mis-routing.
      uint64_t intra_actor =
          agg.macro.id * config_.macro_id_lanes + config_.macro_id_lane;
      if (intra_actor >= 1000000ULL) {
        MIRABEL_LOG(kError) << "macro id space exhausted (aggregate "
                            << agg.macro.id << " x " << config_.macro_id_lanes
                            << " lanes); expiring its members";
        for (const auto& m : agg.members) {
          (void)store_.TransitionFlexOffer(m.offer.id,
                                           storage::FlexOfferState::kExpired);
          (void)lifecycle_.Transition(m.offer.id, OfferState::kExpired);
          ++stats_.offers_expired_in_pipeline;
          events_.Push(OfferExpired{m.offer.id, m.offer.owner, now});
        }
        continue;
      }
      macro.id = config_.actor * 1000000ULL + intra_actor;
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
        (void)store_.TransitionFlexOffer(m.offer.id,
                                         storage::FlexOfferState::kExpired);
        (void)lifecycle_.Transition(m.offer.id, OfferState::kExpired);
        ++stats_.offers_expired_in_pipeline;
        events_.Push(OfferExpired{m.offer.id, m.offer.owner, now});
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
  // Uncertainty-aware gate: bootstrap a forecast-error ensemble from the
  // fitted residual pool (seeded per gate, so reruns of the same engine
  // timeline reproduce bit-identically) and wrap the configured scheduler
  // in a robust re-ranking pass.
  if (config_.ensemble_scenarios > 0 && config_.forecast_residuals != nullptr &&
      !config_.forecast_residuals->empty()) {
    MIRABEL_ASSIGN_OR_RETURN(
        scheduling::ScenarioEnsemble ensemble,
        scheduling::ScenarioEnsemble::FromResidualPool(
            *config_.forecast_residuals, config_.horizon,
            config_.ensemble_scenarios,
            config_.seed + static_cast<uint64_t>(now)));
    scheduling::RobustScheduler::Config robust_config;
    robust_config.inner_factory = config_.scheduler_factory;
    robust_config.ensemble = std::move(ensemble);
    robust_config.cvar_alpha = config_.ensemble_cvar_alpha;
    robust_config.risk_weight = config_.ensemble_risk_weight;
    robust_config.executor = config_.ensemble_executor;
    scheduler = std::make_unique<scheduling::RobustScheduler>(
        std::move(robust_config));
  }
  // One compile serves the whole gate: the scheduler run (all its restarts
  // and, for Hybrid, both phases), the imbalance accounting and the
  // macro-schedule export below. Validate() here preserves the check the
  // schedulers' Run() entry points used to apply.
  MIRABEL_RETURN_IF_ERROR(problem.Validate());
  scheduling::CompiledProblem compiled(problem);
  scheduling::SchedulerOptions options;
  options.time_budget_s = config_.scheduler_budget_s;
  if (config_.scale_budget_with_problem_size) {
    options.time_budget_s = ScaledTimeBudget(
        config_.scheduler_budget_s, problem.offers.size(), config_.horizon,
        config_.budget_reference_work, /*min_fraction=*/0.02);
    stats_.budget_saved_s += config_.scheduler_budget_s - options.time_budget_s;
  }
  options.max_iterations = config_.scheduler_max_iterations;
  options.seed = config_.seed + static_cast<uint64_t>(now);
  MIRABEL_ASSIGN_OR_RETURN(scheduling::SchedulingResult run,
                           scheduler->RunCompiled(compiled, options));
  ++stats_.scheduling_runs;
  stats_.schedule_cost_eur += run.cost.total();
  if (run.optimal_proven) ++stats_.bnb_optimal_proven;
  if (run.robust.has_value()) {
    ++stats_.robust_runs;
    stats_.robust_scenario_evaluations +=
        static_cast<int64_t>(run.robust->candidates) * run.robust->scenarios;
    stats_.robust_expected_cost_eur += run.robust->expected_cost_eur;
    stats_.robust_cvar_eur += run.robust->cvar_eur;
  }
  for (const scheduling::PortfolioMemberStats& member : run.portfolio) {
    if (!member.won) continue;
    if (member.name == "GreedySearch") ++stats_.portfolio_wins_greedy;
    if (member.name == "EvolutionaryAlgorithm") ++stats_.portfolio_wins_ea;
    if (member.name == "Hybrid") ++stats_.portfolio_wins_hybrid;
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
  (void)workspace.SetSchedule(compiled, run.schedule);
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
    (void)store_.AttachSchedule(schedule);
    (void)lifecycle_.Transition(schedule.offer_id, OfferState::kScheduled);
    (void)lifecycle_.Transition(schedule.offer_id, OfferState::kAssigned);
    ++stats_.micro_schedules_sent;
    events_.Push(
        ScheduleAssigned{agg.members[i].offer.owner, now, schedule});
  }
  return Status::OK();
}

Status EdmsEngine::RecordExecution(FlexOfferId id, TimeSlice now,
                                   double energy_kwh) {
  MIRABEL_ASSIGN_OR_RETURN(const storage::FlexOfferFact* fact,
                           store_.FindFlexOffer(id));
  flexoffer::ActorId owner = fact->offer.owner;
  MIRABEL_RETURN_IF_ERROR(
      lifecycle_.Transition(id, OfferState::kExecuted).status());
  (void)store_.TransitionFlexOffer(id, storage::FlexOfferState::kExecuted);
  ++stats_.offers_executed;
  events_.Push(OfferExecuted{id, owner, now, energy_kwh});
  return Status::OK();
}

void EdmsEngine::RecordMeasurement(flexoffer::ActorId actor, TimeSlice slice,
                                   double energy_kwh) {
  store_.AppendMeasurement(actor, slice, storage::EnergyType::kConsumption,
                           energy_kwh);
}

std::vector<Event> EdmsEngine::PollEvents() { return events_.DrainAll(); }

}  // namespace mirabel::edms

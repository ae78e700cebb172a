#include "node/simulation.h"

#include <cstdio>

#include "datagen/energy_series_generator.h"
#include "flexoffer/time_slice.h"

namespace mirabel::node {

using flexoffer::kSlicesPerDay;
using flexoffer::TimeSlice;

std::string SimulationReport::ToString() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "SimulationReport{offers=%lld accepted=%lld rejected=%lld "
      "scheduled=%lld executed=%lld fallbacks=%lld earnings=%.2fEUR "
      "runs=%lld macros=%lld imbalance %.1f->%.1f kWh (-%.1f%%) "
      "msgs=%lld/%lld (dropped %lld, faulted %lld, backlog %lld) "
      "transport{retries=%lld dead=%lld dupes=%lld} "
      "degraded{nacks=%lld resubmits=%lld late_refused=%lld "
      "macros_expired=%lld exec_timeouts=%lld}}",
      static_cast<long long>(offers_created),
      static_cast<long long>(offers_accepted),
      static_cast<long long>(offers_rejected),
      static_cast<long long>(schedules_received),
      static_cast<long long>(offers_executed),
      static_cast<long long>(fallbacks), prosumer_earnings_eur,
      static_cast<long long>(scheduling_runs),
      static_cast<long long>(macros_scheduled), imbalance_before_kwh,
      imbalance_after_kwh, 100.0 * ImbalanceReduction(),
      static_cast<long long>(messages_delivered),
      static_cast<long long>(messages_sent),
      static_cast<long long>(messages_dropped),
      static_cast<long long>(messages_dropped_by_fault),
      static_cast<long long>(messages_undelivered_at_end),
      static_cast<long long>(transport_retries),
      static_cast<long long>(transport_dead_letters),
      static_cast<long long>(transport_duplicates_dropped),
      static_cast<long long>(nacks_received),
      static_cast<long long>(offers_resubmitted),
      static_cast<long long>(late_offers_refused),
      static_cast<long long>(macros_expired_unscheduled),
      static_cast<long long>(executions_timed_out));
  return buf;
}

EdmsSimulation::EdmsSimulation(const SimulationConfig& config)
    : config_(config), bus_(config.bus) {
  // Node id layout: TSO = 1, BRPs = 100 + b, prosumers = 1000 + i.
  const NodeId kTsoId = 1;

  // Per-BRP baseline imbalance curve: scaled demand minus scaled wind. The
  // amplitude is sized so the prosumers' flexible load can absorb a useful
  // share of it.
  const int sim_slices = (config.days + 2) * kSlicesPerDay;
  const int days_needed = config.days + 2;

  // Every aggregating node (all BRPs and the TSO) shares this one worker
  // pool: the hierarchy ticks its nodes from one control thread, so
  // shards_per_node workers serve the whole deployment — stealing floats
  // them to whichever node's shards are busy — instead of each node
  // spinning up its own thread-per-shard set.
  if (config.shards_per_node > 1) {
    edms::WorkerPool::Options pool_options;
    pool_options.num_threads = config.shards_per_node;
    pool_ = std::make_shared<edms::WorkerPool>(pool_options);
  }

  if (config_.use_tso) {
    AggregatingNode::Config tso_cfg;
    tso_cfg.id = kTsoId;
    tso_cfg.parent = 0;
    tso_cfg.num_shards = config.shards_per_node;
    tso_cfg.pool = pool_;
    tso_cfg.engine.negotiate = false;
    tso_cfg.engine.aggregation.params = aggregation::AggregationParams::P3();
    tso_cfg.engine.gate_period = config.gate_period;
    tso_cfg.engine.horizon = config.horizon;
    tso_cfg.engine.scheduler_factory = config.scheduler_factory;
    tso_cfg.engine.scheduler_budget_s = config.scheduler_budget_s;
    tso_cfg.engine.scheduler_max_iterations = config.scheduler_max_iterations;
    tso_cfg.engine.seed = config.seed * 7 + 1;
    tso_cfg.reliability = config.reliability;
    tso_cfg.max_pending_batches_per_shard =
        config.max_pending_batches_per_shard;
    // The TSO balances the residual of the whole area.
    datagen::DemandSeriesConfig demand_cfg;
    demand_cfg.periods_per_day = kSlicesPerDay;
    demand_cfg.days = days_needed;
    demand_cfg.base_load_mw = 0.0;
    demand_cfg.daily_amplitude =
        3.0 * static_cast<double>(config.num_brps * config.prosumers_per_brp);
    demand_cfg.weekly_amplitude = demand_cfg.daily_amplitude / 4;
    demand_cfg.annual_amplitude = 0.0;
    demand_cfg.noise_stddev = demand_cfg.daily_amplitude / 30;
    demand_cfg.seed = config.seed + 17;
    tso_cfg.engine.baseline = std::make_shared<edms::VectorBaselineProvider>(
        datagen::GenerateDemandSeries(demand_cfg));
    tso_cfg.engine.max_buy_kwh =
        5.0 * config.num_brps * config.prosumers_per_brp;
    tso_cfg.engine.max_sell_kwh = tso_cfg.engine.max_buy_kwh;
    tso_ = std::make_unique<AggregatingNode>(tso_cfg, &bus_);
  }

  for (int b = 0; b < config.num_brps; ++b) {
    AggregatingNode::Config brp_cfg;
    brp_cfg.id = 100 + static_cast<NodeId>(b);
    brp_cfg.parent = config_.use_tso ? kTsoId : 0;
    brp_cfg.num_shards = config.shards_per_node;
    brp_cfg.pool = pool_;
    brp_cfg.engine.negotiate = true;
    brp_cfg.engine.aggregation.params = aggregation::AggregationParams::P3();
    brp_cfg.engine.gate_period = config.gate_period;
    brp_cfg.engine.horizon = config.horizon;
    brp_cfg.engine.scheduler_factory = config.scheduler_factory;
    brp_cfg.engine.scheduler_budget_s = config.scheduler_budget_s;
    brp_cfg.engine.scheduler_max_iterations = config.scheduler_max_iterations;
    brp_cfg.engine.seed = config.seed * 13 + static_cast<uint64_t>(b);
    brp_cfg.reliability = config.reliability;
    brp_cfg.max_pending_batches_per_shard =
        config.max_pending_batches_per_shard;

    // Demand (positive) minus wind supply: the curve the BRP must balance.
    datagen::DemandSeriesConfig demand_cfg;
    demand_cfg.periods_per_day = kSlicesPerDay;
    demand_cfg.days = days_needed;
    demand_cfg.base_load_mw = 1.0 * config.prosumers_per_brp;
    demand_cfg.daily_amplitude = 1.5 * config.prosumers_per_brp;
    demand_cfg.weekly_amplitude = 0.4 * config.prosumers_per_brp;
    demand_cfg.annual_amplitude = 0.0;
    demand_cfg.noise_stddev = 0.08 * config.prosumers_per_brp;
    demand_cfg.seed = config.seed + static_cast<uint64_t>(100 + b);
    std::vector<double> demand = datagen::GenerateDemandSeries(demand_cfg);

    datagen::WindSeriesConfig wind_cfg;
    wind_cfg.periods_per_day = kSlicesPerDay;
    wind_cfg.days = days_needed;
    wind_cfg.capacity_mw = 2.0 * config.prosumers_per_brp;
    wind_cfg.seed = config.seed + static_cast<uint64_t>(200 + b);
    std::vector<double> wind = datagen::GenerateWindSeries(wind_cfg);

    std::vector<double> imbalance(static_cast<size_t>(sim_slices));
    for (int t = 0; t < sim_slices; ++t) {
      imbalance[static_cast<size_t>(t)] =
          demand[static_cast<size_t>(t)] - wind[static_cast<size_t>(t)];
    }
    brp_cfg.engine.baseline =
        std::make_shared<edms::VectorBaselineProvider>(std::move(imbalance));
    brp_cfg.engine.max_buy_kwh = 2.0 * config.prosumers_per_brp;
    brp_cfg.engine.max_sell_kwh = 2.0 * config.prosumers_per_brp;
    brps_.push_back(std::make_unique<AggregatingNode>(brp_cfg, &bus_));

    for (int p = 0; p < config.prosumers_per_brp; ++p) {
      ProsumerNode::Config pro_cfg;
      pro_cfg.id = 1000 + static_cast<NodeId>(b) * 1000 +
                   static_cast<NodeId>(p);
      pro_cfg.brp = brp_cfg.id;
      pro_cfg.offers_per_day = config.offers_per_day;
      pro_cfg.seed = config.seed * 31 + static_cast<uint64_t>(b) * 997 +
                     static_cast<uint64_t>(p);
      pro_cfg.reliability = config.reliability;
      prosumers_.push_back(std::make_unique<ProsumerNode>(pro_cfg, &bus_));
    }
  }
}

SimulationReport EdmsSimulation::Run() {
  const TimeSlice end = static_cast<TimeSlice>(config_.days) * kSlicesPerDay;
  const FaultPlan& faults = config_.bus.faults;
  for (TimeSlice now = 0; now < end; ++now) {
    // A stalled node skips its tick: no new offers, no retries, no gate —
    // but its mailbox still accepts deliveries (bus handlers are passive).
    for (auto& p : prosumers_) {
      if (!faults.StalledAt(p->id(), now)) p->OnTick(now);
    }
    bus_.AdvanceTo(now);
    for (auto& b : brps_) {
      if (!faults.StalledAt(b->id(), now)) b->OnTick(now);
    }
    bus_.AdvanceTo(now);
    if (tso_ != nullptr && !faults.StalledAt(tso_->id(), now)) {
      tso_->OnTick(now);
    }
    bus_.AdvanceTo(now);
  }
  // Drain in-flight messages and give prosumers a final execution pass.
  // Aggregating nodes only flush their buffers here (no new gates): the
  // batch-per-tick adapters must absorb the execution meterings arriving
  // during the drain, but a gate opened now would assign schedules nobody
  // is left to execute.
  bus_.AdvanceTo(end + config_.bus.latency_slices);
  for (TimeSlice now = end; now < end + 2 * kSlicesPerDay; ++now) {
    for (auto& p : prosumers_) p->OnTick(now);
    bus_.AdvanceTo(now);
    for (auto& b : brps_) b->FlushBuffers(now);
    if (tso_ != nullptr) tso_->FlushBuffers(now);
    bus_.AdvanceTo(now);
  }
  // Deliver anything sent during the final drain ticks, then flush once
  // more: with bus latency, the last meterings only arrive in this final
  // delivery pass and would otherwise sit in the adapters' buffers.
  const TimeSlice final_slice =
      end + 2 * kSlicesPerDay + config_.bus.latency_slices;
  bus_.AdvanceTo(final_slice);
  for (auto& b : brps_) b->FlushBuffers(final_slice);
  if (tso_ != nullptr) tso_->FlushBuffers(final_slice);
  // The flushes may answer late offers, and every delivery of an
  // ack-required message triggers an ack send in turn: keep advancing in
  // latency-sized steps until the queue drains (bounded — an ack chain is
  // at most reply -> ack, but retransmits can stack a few more rounds).
  TimeSlice settle = final_slice;
  for (int round = 0; round < 8; ++round) {
    settle += std::max<TimeSlice>(1, config_.bus.latency_slices);
    bus_.AdvanceTo(settle);
    if (bus_.pending() == 0) break;
  }

  SimulationReport report;
  for (const auto& p : prosumers_) {
    const ProsumerStats& s = p->stats();
    report.offers_created += s.offers_created;
    report.offers_accepted += s.offers_accepted;
    report.offers_rejected += s.offers_rejected;
    report.schedules_received += s.schedules_received;
    report.offers_executed += s.offers_executed;
    report.fallbacks += s.fallbacks;
    report.prosumer_earnings_eur += s.earnings_eur;
  }
  for (const auto& p : prosumers_) {
    report.nacks_received += p->stats().nacks_received;
    report.offers_resubmitted += p->stats().offers_resubmitted;
    report.transport_retries += p->channel().stats().retries;
    report.transport_dead_letters += p->channel().stats().dead_letters;
    report.transport_duplicates_dropped +=
        p->channel().stats().duplicates_dropped;
    report.transport_acks_sent += p->channel().stats().acks_sent;
  }
  auto add_agg = [&report](const AggregatingNode& n) {
    report.scheduling_runs += n.stats().scheduling_runs;
    report.macros_scheduled += n.stats().macros_scheduled;
    report.imbalance_before_kwh += n.stats().imbalance_before_kwh;
    report.imbalance_after_kwh += n.stats().imbalance_after_kwh;
    report.schedule_cost_eur += n.stats().schedule_cost_eur;
    report.late_offers_refused += n.late_offers_refused();
    report.macros_expired_unscheduled += n.stats().macros_expired_unscheduled;
    report.executions_timed_out += n.stats().executions_timed_out;
    report.transport_retries += n.channel().stats().retries;
    report.transport_dead_letters += n.channel().stats().dead_letters;
    report.transport_duplicates_dropped +=
        n.channel().stats().duplicates_dropped;
    report.transport_acks_sent += n.channel().stats().acks_sent;
  };
  for (const auto& b : brps_) add_agg(*b);
  if (tso_ != nullptr) add_agg(*tso_);
  report.messages_sent = bus_.sent();
  report.messages_delivered = bus_.delivered();
  report.messages_dropped = bus_.dropped();
  report.messages_dropped_by_fault = bus_.dropped_by_fault();
  // Satellite: surface any undelivered backlog (ReportBacklog also logs a
  // warning naming the first stuck message).
  report.messages_undelivered_at_end =
      static_cast<int64_t>(bus_.ReportBacklog());
  return report;
}

}  // namespace mirabel::node

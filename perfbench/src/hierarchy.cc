// hierarchy_3level: a TSO, 4 BRPs and 2000 prosumers over the MessageBus
// with 1-slice latency and ReliableChannel acks.
//
// The benchmark drives the tick loop the way EdmsSimulation::Run does, so
// every node call can be timed. BRPs run their engines in forwarding mode:
// they publish macro offers to the TSO, which schedules them and returns
// the schedules through CompleteMacroSchedule. This is the only workload in
// which the node layer does the work. Nodes run inline with iteration-capped
// schedulers, so the run is single-threaded and deterministic.
#include <algorithm>

#include "common.h"
#include "common/stopwatch.h"
#include "host_speed.h"
#include "node/aggregating_node.h"
#include "node/message_bus.h"
#include "node/prosumer_node.h"
#include "trace.h"

namespace perfbench {

namespace {

using mirabel::flexoffer::kSlicesPerDay;
using mirabel::flexoffer::TimeSlice;
namespace edms = mirabel::edms;
namespace node = mirabel::node;

constexpr int kGatePeriod = 16;
/// Slices one gate cycle spans. In the gate slice the BRPs forward their new
/// macros and the TSO schedules the macros forwarded one gate earlier (they
/// arrived one slice after that gate); in the next slice the schedules reach
/// the BRPs, which disaggregate them.
constexpr TimeSlice kGateCycle = 2;
constexpr int kHorizon = kSlicesPerDay;
constexpr int kBrps = 4;
/// Every prosumer tick scans its own store, so the offers held across all
/// prosumers set most of a round's time. 1.5 a day keeps a round near 3 s,
/// which gives each step about 15 replays in a 50 s run.
constexpr double kOffersPerProsumerDay = 1.5;
constexpr int kSchedulerIterations = 1024;
constexpr int kTrainEvals = 2000;
constexpr node::NodeId kTsoId = 1;

class Hierarchy : public Workload {
 public:
  explicit Hierarchy(const RunOptions& options)
      : seed_(options.seed),
        days_(options.short_mode ? 2 : 17),
        prosumers_per_brp_(options.short_mode ? 100 : 500) {
    history_ = MakeSiteHistory(0.25);
  }

  int Threads() const override { return 1; }

  RoundResult RunRound() override {
    RoundResult r;
    mirabel::Stopwatch setup;
    Forecasts forecasts = TrainForecasts(history_, kTrainEvals, seed_);
    node::MessageBus::Config bus_config;
    bus_config.latency_slices = 1;
    bus_config.seed = seed_;
    node::MessageBus bus(bus_config);

    auto engine_config = [&](uint64_t seed) {
      edms::EdmsEngine::Config c;
      c.aggregation.params = mirabel::aggregation::AggregationParams::P3();
      c.gate_period = kGatePeriod;
      c.horizon = kHorizon;
      c.scheduler_factory = GreedyFactory();
      c.scheduler_budget_s = 0.0;
      c.scheduler_max_iterations = kSchedulerIterations;
      c.seed = seed;
      RequireIterationCapped(c);
      return c;
    };
    node::AggregatingNode::Config tso_config;
    tso_config.id = kTsoId;
    tso_config.engine = engine_config(seed_ * 7 + 1);
    tso_config.engine.negotiate = false;
    tso_config.engine.baseline = EngineBaseline(forecasts);
    tso_config.engine.max_buy_kwh = 100.0;
    tso_config.engine.max_sell_kwh = 100.0;
    node::AggregatingNode tso(tso_config, &bus);

    std::vector<std::unique_ptr<node::AggregatingNode>> brps;
    std::vector<std::unique_ptr<node::ProsumerNode>> prosumers;
    for (int b = 0; b < kBrps; ++b) {
      node::AggregatingNode::Config brp_config;
      brp_config.id = 100 + static_cast<node::NodeId>(b);
      brp_config.parent = kTsoId;
      brp_config.engine = engine_config(seed_ * 13 + static_cast<uint64_t>(b));
      brp_config.engine.negotiate = true;
      brps.push_back(std::make_unique<node::AggregatingNode>(brp_config, &bus));
      for (int p = 0; p < prosumers_per_brp_; ++p) {
        node::ProsumerNode::Config pc;
        pc.id = 1000 + static_cast<node::NodeId>(b) * 1000 +
                static_cast<node::NodeId>(p);
        pc.brp = brp_config.id;
        pc.offers_per_day = kOffersPerProsumerDay;
        pc.seed = seed_ * 31 + static_cast<uint64_t>(b) * 997 +
                  static_cast<uint64_t>(p);
        prosumers.push_back(std::make_unique<node::ProsumerNode>(pc, &bus));
      }
    }
    r.setup_s = setup.ElapsedSeconds();

    auto bus_advance = [&bus](TimeSlice now) {
      trace::Scope span(trace::Kind::kBus, now);
      bus.AdvanceTo(now);
    };
    std::vector<int64_t> accepted_before(brps.size(), 0);
    // The previous slice's time from its start to its end (ns).
    int64_t previous_step_ns = 0;

    HostSpeed speed;
    mirabel::Stopwatch timed;
    const TimeSlice end = static_cast<TimeSlice>(days_) * kSlicesPerDay;
    // Time per slice of the bus, BRP and TSO phases: wall (ns) and scaled
    // (ms).
    std::vector<int64_t> control_ns(static_cast<size_t>(end), 0);
    std::vector<double> control_ms(static_cast<size_t>(end), 0.0);
    for (TimeSlice now = 0; now < end; ++now) {
      // The slices of a gate cycle take their scale from a probe right
      // before them.
      if (now % kGatePeriod < kGateCycle) {
        speed.Sample();
      } else {
        speed.MaybeSample();
      }
      const int64_t due_ns = trace::NowNs();
      {
        trace::Scope span(trace::Kind::kProsumerTick, now);
        for (auto& p : prosumers) p->OnTick(now);
      }
      const int64_t control_start = trace::NowNs();
      bus_advance(now);
      for (size_t b = 0; b < brps.size(); ++b) {
        {
          trace::Scope span(trace::Kind::kBrpTick, now);
          brps[b]->OnTick(now);
        }
        // Offers reach the BRP one slice after their prosumer sent them, and
        // the BRP admits a tick's offers in this call.
        const int64_t accepted = brps[b]->stats().offers_accepted;
        if (accepted > accepted_before[b]) {
          const double ms = speed.ScaledMs(previous_step_ns +
                                           trace::NowNs() - due_ns);
          r.accept_ms.insert(r.accept_ms.end(),
                             static_cast<size_t>(accepted - accepted_before[b]),
                             ms);
          accepted_before[b] = accepted;
        }
      }
      bus_advance(now);
      {
        trace::Scope span(trace::Kind::kTsoTick, now);
        tso.OnTick(now);
      }
      bus_advance(now);
      const int64_t step_end = trace::NowNs();
      control_ns[static_cast<size_t>(now)] = step_end - control_start;
      control_ms[static_cast<size_t>(now)] =
          speed.ScaledMs(step_end - control_start);
      previous_step_ns = step_end - due_ns;
      r.step_ms.push_back(speed.ScaledMs(previous_step_ns));
    }
    speed.MaybeSample();
    const int64_t wind_down_start = trace::NowNs();
    // Wind-down, as EdmsSimulation::Run: deliver in-flight messages, give
    // prosumers two days to execute, flush without opening new gates, then
    // settle the ack chains.
    bus_advance(end + bus_config.latency_slices);
    for (TimeSlice now = end; now < end + 2 * kSlicesPerDay; ++now) {
      {
        trace::Scope span(trace::Kind::kProsumerTick, now);
        for (auto& p : prosumers) p->OnTick(now);
      }
      bus_advance(now);
      for (auto& b : brps) b->FlushBuffers(now);
      tso.FlushBuffers(now);
      bus_advance(now);
    }
    const TimeSlice final_slice =
        end + 2 * kSlicesPerDay + bus_config.latency_slices;
    bus_advance(final_slice);
    for (auto& b : brps) b->FlushBuffers(final_slice);
    tso.FlushBuffers(final_slice);
    TimeSlice settle = final_slice;
    for (int round = 0; round < 8 && bus.pending() > 0; ++round) {
      settle += std::max<TimeSlice>(1, bus_config.latency_slices);
      bus_advance(settle);
    }
    r.step_ms.push_back(speed.ScaledMs(trace::NowNs() - wind_down_start));
    r.timed_s = timed.ElapsedSeconds();
    r.probe_ms = speed.MedianProbeMs();
    // A gate's time: everything but the prosumers over its gate cycle.
    for (TimeSlice g = 0; g + kGateCycle <= end; g += kGatePeriod) {
      double ms = 0.0;
      for (TimeSlice s = g; s < g + kGateCycle; ++s) {
        ms += control_ms[static_cast<size_t>(s)];
        r.gate_busy_s +=
            static_cast<double>(control_ns[static_cast<size_t>(s)]) * 1e-9;
      }
      r.gate_ms.push_back(ms);
    }

    Check(prosumers, brps, tso, bus, &r);
    r.layer["forecasting.rebuilds"] =
        static_cast<double>(forecasts.provider->rebuilds());
    return r;
  }

 private:
  /// Checks conservation on both sides of the wire and fills the
  /// fingerprint, the failure share and the per-layer counters.
  void Check(const std::vector<std::unique_ptr<node::ProsumerNode>>& prosumers,
             const std::vector<std::unique_ptr<node::AggregatingNode>>& brps,
             const node::AggregatingNode& tso, const node::MessageBus& bus,
             RoundResult* r) const {
    namespace storage = mirabel::storage;
    node::ProsumerStats p{};
    int64_t retries = 0;
    int64_t acks = 0;
    int64_t duplicates = 0;
    for (const auto& prosumer : prosumers) {
      const node::ProsumerStats& s = prosumer->stats();
      p.offers_created += s.offers_created;
      p.offers_accepted += s.offers_accepted;
      p.offers_rejected += s.offers_rejected;
      p.schedules_received += s.schedules_received;
      p.offers_executed += s.offers_executed;
      p.fallbacks += s.fallbacks;
      for (storage::FlexOfferState state :
           {storage::FlexOfferState::kOffered, storage::FlexOfferState::kAccepted,
            storage::FlexOfferState::kAggregated,
            storage::FlexOfferState::kScheduled}) {
        if (!prosumer->store().FlexOffersInState(state).empty()) {
          r->violations.push_back("a prosumer offer never reached a terminal "
                                  "state");
          break;
        }
      }
      retries += prosumer->channel().stats().retries;
      acks += prosumer->channel().stats().acks_sent;
      duplicates += prosumer->channel().stats().duplicates_dropped;
    }
    edms::EngineStats brp_stats;
    int64_t late_refused = 0;
    int64_t flex_rows = 0;
    int64_t measurement_rows = 0;
    std::vector<const node::AggregatingNode*> aggregators;
    for (const auto& b : brps) aggregators.push_back(b.get());
    aggregators.push_back(&tso);
    for (const node::AggregatingNode* n : aggregators) {
      if (n != &tso) brp_stats.Merge(n->stats());
      if (n != &tso) late_refused += n->late_offers_refused();
      retries += n->channel().stats().retries;
      acks += n->channel().stats().acks_sent;
      duplicates += n->channel().stats().duplicates_dropped;
      const edms::EdmsEngine& engine = n->runtime().shard(0);
      CheckAllTerminal(engine, &r->violations);
      flex_rows += static_cast<int64_t>(engine.store().num_flex_offers());
      measurement_rows += static_cast<int64_t>(engine.store().num_measurements());
    }
    const edms::EngineStats tso_stats = tso.stats();

    auto expect = [r](const char* what, int64_t a, int64_t b) {
      if (a != b) {
        r->violations.push_back(std::string(what) + ": " + std::to_string(a) +
                                " != " + std::to_string(b));
      }
    };
    // Every offer a prosumer created ends in exactly one terminal state.
    expect("prosumer offers created vs terminal", p.offers_created,
           p.offers_rejected + p.offers_executed + p.fallbacks);
    // Stats on the BRP side equal the facts on the prosumer side.
    expect("accepted: BRP stats vs prosumer facts", brp_stats.offers_accepted,
           p.offers_accepted);
    expect("rejected: BRP stats vs prosumer facts",
           brp_stats.offers_rejected + late_refused, p.offers_rejected);
    expect("executed: BRP stats vs prosumer facts", brp_stats.offers_executed,
           p.offers_executed);
    // The bus ledger balances with no backlog.
    expect("bus ledger", bus.sent(),
           bus.delivered() + bus.dropped() + static_cast<int64_t>(bus.pending()));
    expect("bus backlog", static_cast<int64_t>(bus.pending()), 0);

    Fingerprint& fp = r->fingerprint;
    fp.counts = {p.offers_created,       p.offers_accepted,
                 p.offers_rejected,      p.schedules_received,
                 p.offers_executed,      p.fallbacks,
                 brp_stats.offers_received, brp_stats.offers_expired_in_pipeline,
                 brp_stats.macros_scheduled, tso_stats.scheduling_runs,
                 tso_stats.macros_scheduled, bus.sent(),
                 bus.delivered()};
    fp.imbalance_reduction_pct =
        tso_stats.imbalance_before_kwh > 0.0
            ? 100.0 *
                  (tso_stats.imbalance_before_kwh -
                   tso_stats.imbalance_after_kwh) /
                  tso_stats.imbalance_before_kwh
            : 0.0;
    fp.schedule_cost_eur = tso_stats.schedule_cost_eur;
    r->offers = p.offers_created;
    r->failed_pct = 100.0 *
                    static_cast<double>(brp_stats.offers_expired_in_pipeline +
                                        brp_stats.offers_shed) /
                    static_cast<double>(brp_stats.offers_received +
                                        brp_stats.offers_shed);

    AddEngineLayer(brp_stats, &r->layer);
    r->layer["edms.scheduling_runs"] = static_cast<double>(tso_stats.scheduling_runs);
    r->layer["storage.flex_offer_rows_end"] = static_cast<double>(flex_rows);
    r->layer["storage.measurement_rows_end"] = static_cast<double>(measurement_rows);
    r->layer["node.messages_sent"] = static_cast<double>(bus.sent());
    r->layer["node.messages_delivered"] = static_cast<double>(bus.delivered());
    r->layer["node.transport_retries"] = static_cast<double>(retries);
    r->layer["node.transport_acks"] = static_cast<double>(acks);
    r->layer["node.duplicates_dropped"] = static_cast<double>(duplicates);
  }

  uint64_t seed_;
  int days_;
  int prosumers_per_brp_;
  SiteHistory history_;
};

}  // namespace

std::unique_ptr<Workload> MakeHierarchy(const RunOptions& options) {
  return std::make_unique<Hierarchy>(options);
}

}  // namespace perfbench

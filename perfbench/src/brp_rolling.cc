// brp_rolling: one BRP engine, inline, closed loop on the simulated clock.
//
// Every slice submits the offers created in it, fires the gate when one is
// due and meters the executions whose schedule ends in that slice, so every
// offer reaches a terminal state. Aggregation is P2 and the gate scheduler
// is an iteration-capped GreedySearch, so the scheduling layer does most of
// the work. The run spans 17 simulated days (102 gates) so that the
// engine's state accumulates the way a live deployment's does.
#include <algorithm>
#include <cmath>
#include <span>

#include "common.h"
#include "common/stopwatch.h"
#include "edms/edms_engine.h"
#include "host_speed.h"
#include "trace.h"

namespace perfbench {

namespace {

using mirabel::flexoffer::FlexOffer;
using mirabel::flexoffer::FlexOfferId;
using mirabel::flexoffer::kSlicesPerDay;
using mirabel::flexoffer::TimeSlice;
namespace edms = mirabel::edms;

constexpr int kGatePeriod = 16;
constexpr int kHorizon = 2 * kSlicesPerDay;
constexpr int kSchedulerIterations = 2048;
constexpr int kTrainEvals = 2000;

class BrpRolling : public Workload {
 public:
  explicit BrpRolling(const RunOptions& options) : seed_(options.seed) {
    const int days = options.short_mode ? 2 : 16;
    const int64_t per_day = options.short_mode ? 5000 : 10000;
    offers_ = SortedOffers(options.seed, days, per_day);
    // One quiet day after the last offer lets every schedule end and be
    // metered inside the loop.
    end_slice_ = static_cast<TimeSlice>(days + 1) * kSlicesPerDay;
    slice_begin_.assign(static_cast<size_t>(end_slice_) + 1, offers_.size());
    for (size_t i = offers_.size(); i-- > 0;) {
      slice_begin_[static_cast<size_t>(offers_[i].creation_time)] = i;
    }
    for (size_t s = slice_begin_.size() - 1; s-- > 0;) {
      slice_begin_[s] = std::min(slice_begin_[s], slice_begin_[s + 1]);
    }
    history_ = MakeSiteHistory(2.0);
  }

  int Threads() const override { return 1; }

  RoundResult RunRound() override {
    RoundResult r;
    mirabel::Stopwatch setup;
    Forecasts forecasts = TrainForecasts(history_, kTrainEvals, seed_);
    edms::EdmsEngine::Config config;
    config.actor = 100;
    config.negotiate = true;
    config.aggregation.params = mirabel::aggregation::AggregationParams::P2();
    config.gate_period = kGatePeriod;
    config.horizon = kHorizon;
    config.scheduler_factory = GreedyFactory();
    config.scheduler_budget_s = 0.0;
    config.scheduler_max_iterations = kSchedulerIterations;
    config.seed = seed_;
    config.baseline = EngineBaseline(forecasts);
    config.max_buy_kwh = 400.0;
    config.max_sell_kwh = 400.0;
    RequireIterationCapped(config);
    edms::EdmsEngine engine(config);
    r.setup_s = setup.ElapsedSeconds();

    OfferLedger ledger(offers_.size());
    r.accept_ms.assign(offers_.size(), std::nan(""));
    r.step_ms.reserve(static_cast<size_t>(end_slice_) + 1);
    // Executions to meter per slice: (offer, owner, energy).
    struct Meter {
      FlexOfferId id;
      mirabel::flexoffer::ActorId owner;
      double energy_kwh;
    };
    std::vector<std::vector<Meter>> meter_at(static_cast<size_t>(end_slice_) +
                                             kHorizon + 64);
    AggregationTally aggregation;

    HostSpeed speed;
    int64_t due_ns = 0;
    auto drain = [&](TimeSlice now) {
      std::vector<edms::Event> events;
      {
        trace::Scope span(trace::Kind::kPoll, now);
        events = engine.PollEvents();
      }
      const int64_t seen_ns = trace::NowNs();
      for (const edms::Event& event : events) {
        ledger.Observe(event);
        aggregation.Observe(event);
        if (const auto* a = std::get_if<edms::OfferAccepted>(&event)) {
          r.accept_ms[a->offer - 1] = speed.ScaledMs(seen_ns - due_ns);
        } else if (const auto* s = std::get_if<edms::ScheduleAssigned>(&event)) {
          const TimeSlice end =
              s->schedule.start +
              static_cast<TimeSlice>(s->schedule.energies_kwh.size());
          const size_t at = static_cast<size_t>(std::max(end, now + 1));
          if (at >= meter_at.size()) {
            r.violations.push_back("schedule ends past the metering window");
            continue;
          }
          meter_at[at].push_back(
              {s->schedule.offer_id, s->owner, s->schedule.TotalEnergy()});
        }
      }
    };

    mirabel::Stopwatch timed;
    for (TimeSlice now = 0; now < end_slice_ && r.violations.empty(); ++now) {
      // A gate's scale comes from a probe right before it.
      if (now % kGatePeriod == 0) {
        speed.Sample();
      } else {
        speed.MaybeSample();
      }
      // Closed loop: the slice's offers are due when the previous slice
      // finished (the host-speed sample aside).
      const int64_t slice_start = trace::NowNs();
      due_ns = slice_start;
      const size_t begin = slice_begin_[static_cast<size_t>(now)];
      const size_t end = slice_begin_[static_cast<size_t>(now) + 1];
      if (end > begin) {
        trace::Scope span(trace::Kind::kSubmit, now);
        auto submitted = engine.SubmitOffers(
            std::span<const FlexOffer>(offers_.data() + begin, end - begin),
            now);
        if (!submitted.ok()) {
          r.violations.push_back("SubmitOffers: " +
                                 submitted.status().ToString());
        }
      }
      drain(now);
      if (now % kGatePeriod == 0) {
        const int64_t gate_start = trace::NowNs();
        mirabel::Status st;
        {
          trace::Scope span(trace::Kind::kGate, now);
          st = engine.Advance(now);
        }
        const int64_t gate_ns = trace::NowNs() - gate_start;
        r.gate_ms.push_back(speed.ScaledMs(gate_ns));
        r.gate_busy_s += static_cast<double>(gate_ns) * 1e-9;
        if (!st.ok()) r.violations.push_back("Advance: " + st.ToString());
        drain(now);
        aggregation.EndGate();
      }
      std::vector<Meter>& due = meter_at[static_cast<size_t>(now)];
      if (!due.empty()) {
        trace::Scope span(trace::Kind::kMeter, now);
        for (const Meter& m : due) {
          engine.RecordMeasurement(m.owner, now, m.energy_kwh);
          mirabel::Status st = engine.RecordExecution(m.id, now, m.energy_kwh);
          if (!st.ok()) r.violations.push_back("RecordExecution: " + st.ToString());
        }
        due.clear();
        drain(now);
      }
      r.step_ms.push_back(speed.ScaledMs(trace::NowNs() - slice_start));
    }
    // Every offer's deadline is past by now: close what the gates left.
    speed.MaybeSample();
    due_ns = trace::NowNs();
    engine.ExpireDeadlines(end_slice_);
    drain(end_slice_);
    r.step_ms.push_back(speed.ScaledMs(trace::NowNs() - due_ns));
    r.timed_s = timed.ElapsedSeconds();
    r.probe_ms = speed.MedianProbeMs();

    const int64_t submitted = static_cast<int64_t>(offers_.size());
    const edms::EngineStats stats = engine.stats();
    r.offers = submitted;
    ledger.Check(stats, submitted, &r.violations);
    CheckAllTerminal(engine, &r.violations);
    r.fingerprint = EngineFingerprint(stats, submitted);
    r.failed_pct = 100.0 *
                   static_cast<double>(stats.offers_expired_in_pipeline +
                                       stats.offers_shed) /
                   static_cast<double>(submitted);

    AddEngineLayer(stats, &r.layer);
    r.layer["forecasting.rebuilds"] =
        static_cast<double>(forecasts.provider->rebuilds());
    r.layer["storage.flex_offer_rows_end"] =
        static_cast<double>(engine.store().num_flex_offers());
    r.layer["storage.measurement_rows_end"] =
        static_cast<double>(engine.store().num_measurements());
    aggregation.AddLayer(&r.layer);
    return r;
  }

 private:
  uint64_t seed_;
  std::vector<FlexOffer> offers_;
  /// offers_[slice_begin_[s] .. slice_begin_[s + 1]) were created in slice s.
  std::vector<size_t> slice_begin_;
  TimeSlice end_slice_ = 0;
  SiteHistory history_;
};

}  // namespace

std::unique_ptr<Workload> MakeBrpRolling(const RunOptions& options) {
  return std::make_unique<BrpRolling>(options);
}

}  // namespace perfbench

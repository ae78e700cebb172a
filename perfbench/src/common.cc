#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "datagen/energy_series_generator.h"
#include "datagen/flex_offer_generator.h"
#include "flexoffer/time_slice.h"
#include "scheduling/scheduler.h"
#include "trace.h"

namespace perfbench {

using mirabel::Result;
using mirabel::edms::EngineStats;
using mirabel::flexoffer::kSlicesPerDay;

namespace {

/// History length the forecasters train on (four weeks covers two weekly
/// cycles, the HWT model's minimum).
constexpr int kHistoryDays = 28;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

/// Forwards to a forecast provider, recording one span per call.
class TracedBaseline : public mirabel::edms::BaselineProvider {
 public:
  explicit TracedBaseline(std::shared_ptr<mirabel::edms::BaselineProvider> inner)
      : inner_(std::move(inner)) {}

  Result<std::vector<double>> Baseline(mirabel::flexoffer::TimeSlice start,
                                       int length) override {
    trace::Scope span(trace::Kind::kBaseline, start - 1);
    return inner_->Baseline(start, length);
  }

 private:
  std::shared_ptr<mirabel::edms::BaselineProvider> inner_;
};

/// Forwards to a scheduler, recording one span per RunCompiled call with the
/// problem size and the iterations the run used.
class TracedScheduler : public mirabel::scheduling::Scheduler {
 public:
  explicit TracedScheduler(std::unique_ptr<mirabel::scheduling::Scheduler> inner)
      : inner_(std::move(inner)) {}

  std::string Name() const override { return inner_->Name(); }

  Result<mirabel::scheduling::SchedulingResult> Run(
      const mirabel::scheduling::SchedulingProblem& problem,
      const mirabel::scheduling::SchedulerOptions& options) override {
    return inner_->Run(problem, options);
  }

  Result<mirabel::scheduling::SchedulingResult> RunCompiled(
      const mirabel::scheduling::CompiledProblem& compiled,
      const mirabel::scheduling::SchedulerOptions& options) override {
    trace::Scope span(trace::Kind::kSchedule,
                      compiled.source->horizon_start - 1);
    Result<mirabel::scheduling::SchedulingResult> result =
        inner_->RunCompiled(compiled, options);
    if (result.ok()) {
      span.SetCounts(static_cast<int64_t>(compiled.num_offers),
                     result->iterations);
    }
    return result;
  }

 private:
  std::unique_ptr<mirabel::scheduling::Scheduler> inner_;
};

}  // namespace

std::string Fingerprint::ToString() const {
  std::string out = "counts=[";
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(counts[i]);
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "] imbalance_reduction_pct=%.17g cost=%.17g",
                imbalance_reduction_pct, schedule_cost_eur);
  return out + buf;
}

std::vector<mirabel::flexoffer::FlexOffer> SortedOffers(uint64_t seed,
                                                        int days,
                                                        int64_t per_day) {
  mirabel::datagen::FlexOfferWorkloadConfig config;
  config.count = days * per_day;
  config.seed = seed;
  config.horizon_days = days;
  config.num_owners = 5000;
  std::vector<mirabel::flexoffer::FlexOffer> offers =
      mirabel::datagen::GenerateFlexOffers(config);
  std::stable_sort(offers.begin(), offers.end(),
                   [](const auto& a, const auto& b) {
                     return a.creation_time < b.creation_time;
                   });
  return offers;
}

SiteHistory MakeSiteHistory(double scale) {
  mirabel::datagen::DemandSeriesConfig demand;
  demand.periods_per_day = kSlicesPerDay;
  demand.days = kHistoryDays;
  demand.base_load_mw = 1000.0 * scale;
  demand.daily_amplitude = 600.0 * scale;
  demand.weekly_amplitude = 150.0 * scale;
  demand.annual_amplitude = 0.0;
  demand.noise_stddev = 30.0 * scale;
  demand.seed = 7;

  mirabel::datagen::WindSeriesConfig wind;
  wind.periods_per_day = kSlicesPerDay;
  wind.days = kHistoryDays;
  wind.capacity_mw = 1500.0 * scale;
  wind.seed = 11;

  return {mirabel::datagen::GenerateDemandSeries(demand),
          mirabel::datagen::GenerateWindSeries(wind)};
}

Forecasts TrainForecasts(const SiteHistory& history, int max_evals,
                         uint64_t seed) {
  mirabel::forecasting::ForecasterConfig config;
  config.seasonal_periods = {kSlicesPerDay, 7 * kSlicesPerDay};
  // Evaluation caps only: a wall-clock estimator budget would make the
  // trained parameters, and with them every schedule, depend on speed.
  config.initial_estimation = {0.0, max_evals, seed};
  config.adaptation_estimation = {0.0, max_evals / 4, seed + 1};
  if (config.initial_estimation.time_budget_s > 0.0 ||
      config.adaptation_estimation.time_budget_s > 0.0 ||
      config.initial_estimation.max_evals <= 0 ||
      config.adaptation_estimation.max_evals <= 0) {
    Die("forecaster estimation must be evaluation-capped");
  }

  Forecasts out;
  out.demand = std::make_unique<mirabel::forecasting::Forecaster>(config);
  out.wind = std::make_unique<mirabel::forecasting::Forecaster>(config);
  for (auto [forecaster, series] :
       {std::pair{out.demand.get(), &history.demand},
        std::pair{out.wind.get(), &history.wind}}) {
    trace::Scope span(trace::Kind::kTrain);
    mirabel::Status st = forecaster->Train(
        mirabel::forecasting::TimeSeries(*series, kSlicesPerDay));
    if (!st.ok()) Die("forecaster training failed: " + st.ToString());
  }
  out.provider = std::make_shared<mirabel::edms::ForecastBaselineProvider>(
      out.demand.get(), out.wind.get(), /*origin=*/0);
  return out;
}

std::shared_ptr<mirabel::edms::BaselineProvider> EngineBaseline(
    const Forecasts& forecasts) {
  if (!trace::Enabled()) return forecasts.provider;
  return std::make_shared<TracedBaseline>(forecasts.provider);
}

mirabel::edms::SchedulerFactory GreedyFactory() {
  if (!trace::Enabled()) {
    return [] { return std::make_unique<mirabel::scheduling::GreedyScheduler>(); };
  }
  return [] {
    return std::make_unique<TracedScheduler>(
        std::make_unique<mirabel::scheduling::GreedyScheduler>());
  };
}

void RequireIterationCapped(const mirabel::edms::EdmsEngine::Config& config) {
  if (config.scheduler_budget_s > 0.0 || config.scheduler_max_iterations <= 0) {
    Die("every gate must use an iteration-capped scheduler "
        "(scheduler_budget_s <= 0, scheduler_max_iterations > 0)");
  }
}

OfferLedger::OfferLedger(size_t max_id) : terminal_(max_id + 1, 0) {}

void OfferLedger::Observe(const mirabel::edms::Event& event) {
  namespace edms = mirabel::edms;
  auto terminal = [this](mirabel::flexoffer::FlexOfferId id) {
    if (id < terminal_.size() && terminal_[id] < 255) ++terminal_[id];
  };
  if (const auto* e = std::get_if<edms::OfferAccepted>(&event)) {
    (void)e;
    ++accepted_;
  } else if (const auto* e = std::get_if<edms::OfferRejected>(&event)) {
    if (e->reason == edms::RejectReason::kOverloaded) {
      ++shed_;
    } else {
      ++rejected_;
    }
    terminal(e->offer);
  } else if (const auto* e = std::get_if<edms::OfferExpired>(&event)) {
    ++expired_;
    terminal(e->offer);
  } else if (const auto* e = std::get_if<edms::OfferExecuted>(&event)) {
    ++executed_;
    terminal(e->offer);
  } else if (std::get_if<edms::ScheduleAssigned>(&event) != nullptr) {
    ++assigned_;
  } else if (std::get_if<edms::MacroPublished>(&event) != nullptr) {
    ++macros_;
  }
}

void OfferLedger::Check(const EngineStats& stats, int64_t submitted,
                        std::vector<std::string>* violations) const {
  int64_t not_once = 0;
  for (size_t id = 1; id <= static_cast<size_t>(submitted) && id < terminal_.size();
       ++id) {
    if (terminal_[id] != 1) ++not_once;
  }
  if (not_once > 0) {
    violations->push_back(std::to_string(not_once) +
                          " offers did not end in exactly one terminal event");
  }
  auto expect = [violations](const char* what, int64_t stat, int64_t tally) {
    if (stat != tally) {
      violations->push_back(std::string(what) + ": stats " +
                            std::to_string(stat) + " != events " +
                            std::to_string(tally));
    }
  };
  expect("offers_received", stats.offers_received + stats.offers_shed,
         submitted);
  expect("offers_accepted", stats.offers_accepted, accepted_);
  expect("offers_rejected", stats.offers_rejected, rejected_);
  expect("offers_shed", stats.offers_shed, shed_);
  expect("offers_expired",
         stats.offers_expired_in_pipeline + stats.executions_timed_out,
         expired_);
  expect("offers_executed", stats.offers_executed, executed_);
  expect("micro_schedules_sent", stats.micro_schedules_sent, assigned_);
  expect("macros_scheduled", stats.macros_scheduled, macros_);
  expect("intake_errors", stats.intake_errors, 0);
  expect("metering_failures", stats.metering_failures, 0);
}

void AggregationTally::Observe(const mirabel::edms::Event& event) {
  namespace edms = mirabel::edms;
  if (const auto* m = std::get_if<edms::MacroPublished>(&event)) {
    ++macros_;
    ++gate_macros_;
    members_ += static_cast<int64_t>(m->member_count);
  }
}

void AggregationTally::EndGate() {
  peak_macros_ = std::max(peak_macros_, gate_macros_);
  gate_macros_ = 0;
}

void AggregationTally::AddLayer(std::map<std::string, double>* layer) const {
  if (members_ == 0) return;
  auto& l = *layer;
  l["aggregation.compression_ratio"] =
      static_cast<double>(members_) / static_cast<double>(macros_);
  l["aggregation.live_aggregates_peak"] = static_cast<double>(peak_macros_);
}

void CheckAllTerminal(const mirabel::edms::EdmsEngine& engine,
                      std::vector<std::string>* violations) {
  namespace edms = mirabel::edms;
  for (edms::OfferState state :
       {edms::OfferState::kOffered, edms::OfferState::kAccepted,
        edms::OfferState::kAggregated, edms::OfferState::kScheduled,
        edms::OfferState::kAssigned}) {
    if (engine.lifecycle().CountInState(state) != 0) {
      violations->push_back("offers left in state " +
                            std::string(edms::ToString(state)));
    }
  }
}

Fingerprint EngineFingerprint(const EngineStats& stats, int64_t submitted) {
  Fingerprint fp;
  fp.counts = {submitted,
               stats.offers_received,
               stats.offers_accepted,
               stats.offers_rejected,
               stats.offers_shed,
               stats.offers_expired_in_pipeline,
               stats.executions_timed_out,
               stats.offers_executed,
               stats.micro_schedules_sent,
               stats.macros_scheduled,
               stats.scheduling_runs};
  fp.imbalance_reduction_pct =
      stats.imbalance_before_kwh > 0.0
          ? 100.0 * (stats.imbalance_before_kwh - stats.imbalance_after_kwh) /
                stats.imbalance_before_kwh
          : 0.0;
  fp.schedule_cost_eur = stats.schedule_cost_eur;
  return fp;
}

void AddEngineLayer(const EngineStats& stats,
                    std::map<std::string, double>* layer) {
  auto& l = *layer;
  l["edms.offers_received"] += static_cast<double>(stats.offers_received);
  l["edms.accepted"] += static_cast<double>(stats.offers_accepted);
  l["edms.rejected"] += static_cast<double>(stats.offers_rejected);
  l["edms.expired_in_pipeline"] +=
      static_cast<double>(stats.offers_expired_in_pipeline);
  l["edms.executions_timed_out"] +=
      static_cast<double>(stats.executions_timed_out);
  l["edms.executed"] += static_cast<double>(stats.offers_executed);
  l["edms.macros_scheduled"] += static_cast<double>(stats.macros_scheduled);
  l["edms.scheduling_runs"] += static_cast<double>(stats.scheduling_runs);
  const double received = l["edms.offers_received"];
  l["negotiation.accept_pct"] =
      received > 0.0 ? 100.0 * l["edms.accepted"] / received : 0.0;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perfbench

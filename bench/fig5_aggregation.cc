// Regenerates the paper's Figure 5 (a)-(d): the aggregation experiment.
//
// Workload: artificially generated flex-offers (inserts only, bin-packer
// disabled), swept over the flex-offer count, under the four aggregation
// parameter combinations:
//   P0  Start-After-Time and Time-Flexibility equal,
//   P1  small Time-Flexibility variation allowed,
//   P2  small Start-After-Time variation allowed,
//   P3  small variation of both.
//
// Reported per (combination, count):
//   (a) aggregated flex-offer count        -> compression performance
//   (b) aggregation time, seconds
//   (c) loss of time flexibility per offer, slices
//   (d) disaggregation time vs aggregation time (+ least-squares line fit)
//
// Default sweep reaches the paper's ~800k offers; set MIRABEL_BENCH_SMALL=1
// to cap at 200k for quick runs.
#include <cstdlib>
#include <iostream>
#include <span>

#include "aggregation/pipeline.h"
#include "bench_main.h"
#include "common/csv.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "datagen/flex_offer_generator.h"

using namespace mirabel;  // NOLINT: bench brevity

namespace {

struct ComboResult {
  std::string combo;
  int64_t offers = 0;
  size_t aggregates = 0;
  double aggregation_s = 0.0;
  double tf_loss_per_offer = 0.0;
  double disaggregation_s = 0.0;
};

ComboResult RunCombo(const std::string& name,
                     const aggregation::AggregationParams& params,
                     const std::vector<flexoffer::FlexOffer>& offers) {
  aggregation::PipelineConfig config;
  config.params = params;
  config.bin_packer = std::nullopt;  // disabled, as in the paper
  aggregation::AggregationPipeline pipeline(config);

  Stopwatch agg_watch;
  Status st = pipeline.Insert(std::span<const flexoffer::FlexOffer>(offers));
  if (!st.ok()) {
    std::cerr << "insert failed: " << st << "\n";
    std::exit(1);
  }
  pipeline.Flush();
  double agg_time = agg_watch.ElapsedSeconds();

  aggregation::AggregationStats stats = pipeline.Stats();

  // Disaggregation: schedule every aggregate somewhere inside its window at
  // a mid-band energy, then disaggregate all of them.
  Rng rng(1234);
  std::vector<flexoffer::ScheduledFlexOffer> macro_schedules;
  macro_schedules.reserve(pipeline.aggregates().size());
  for (const auto& [id, agg] : pipeline.aggregates()) {
    flexoffer::ScheduledFlexOffer s;
    s.offer_id = id;
    s.start = agg.macro.earliest_start +
              rng.UniformInt(0, agg.macro.TimeFlexibility());
    s.energies_kwh.reserve(agg.macro.profile.size());
    for (const auto& band : agg.macro.profile) {
      s.energies_kwh.push_back(band.min_kwh +
                               0.5 * (band.max_kwh - band.min_kwh));
    }
    macro_schedules.push_back(std::move(s));
  }
  Stopwatch disagg_watch;
  size_t micro = 0;
  for (const auto& s : macro_schedules) {
    auto r = pipeline.DisaggregateSchedule(s);
    if (!r.ok()) {
      std::cerr << "disaggregation failed: " << r.status() << "\n";
      std::exit(1);
    }
    micro += r->size();
  }
  double disagg_time = disagg_watch.ElapsedSeconds();
  if (micro != static_cast<size_t>(offers.size())) {
    std::cerr << "disaggregation lost offers: " << micro << " vs "
              << offers.size() << "\n";
    std::exit(1);
  }

  ComboResult r;
  r.combo = name;
  r.offers = static_cast<int64_t>(offers.size());
  r.aggregates = stats.aggregate_count;
  r.aggregation_s = agg_time;
  r.tf_loss_per_offer = stats.avg_time_flexibility_loss;
  r.disaggregation_s = disagg_time;
  return r;
}

}  // namespace

int main() {
  bool small = std::getenv("MIRABEL_BENCH_SMALL") != nullptr;
  std::vector<int64_t> counts =
      small ? std::vector<int64_t>{50000, 100000, 200000}
            : std::vector<int64_t>{100000, 200000, 400000, 800000};

  // Attribute diversity tuned so that P0 (exact matching) compresses only
  // modestly (the paper's Fig. 5(a) has P0 just above ratio 4 at 800k
  // offers) while the tolerant combinations compress much further: offers
  // spread over a month, slice-granular start-after times, 0-16 h time
  // flexibility at slice granularity.
  datagen::FlexOfferWorkloadConfig workload;
  workload.count = counts.back();
  workload.seed = 42;
  workload.horizon_days = 30;
  workload.time_flexibility_step = 1;
  workload.max_time_flexibility = 64;
  std::vector<flexoffer::FlexOffer> all =
      datagen::GenerateFlexOffers(workload);

  struct Combo {
    std::string name;
    aggregation::AggregationParams params;
  };
  std::vector<Combo> combos = {
      {"P0", aggregation::AggregationParams::P0()},
      {"P1", aggregation::AggregationParams::P1()},
      {"P2", aggregation::AggregationParams::P2()},
      {"P3", aggregation::AggregationParams::P3()},
  };

  CsvTable table({"combo", "flexoffer_count", "aggregate_count",
                  "compression_ratio", "aggregation_time_s",
                  "tf_loss_per_offer_slices", "disaggregation_time_s",
                  "disagg_over_agg"});
  std::vector<double> agg_times;
  std::vector<double> disagg_times;

  bench::BenchReport report("fig5_aggregation");
  report.AddConfig("max_offers", counts.back());
  report.AddConfig("horizon_days", static_cast<int64_t>(workload.horizon_days));

  for (const Combo& combo : combos) {
    for (int64_t count : counts) {
      std::vector<flexoffer::FlexOffer> offers(
          all.begin(), all.begin() + static_cast<ptrdiff_t>(count));
      ComboResult r = RunCombo(combo.name, combo.params, offers);
      report.AddResult(combo.name + "/" + std::to_string(count))
          .Wall(r.aggregation_s)
          .Items(static_cast<double>(r.offers))
          .Metric("aggregate_count", static_cast<double>(r.aggregates))
          .Metric("compression_ratio", static_cast<double>(r.offers) /
                                           static_cast<double>(r.aggregates))
          .Metric("tf_loss_per_offer_slices", r.tf_loss_per_offer)
          .Metric("disaggregation_s", r.disaggregation_s);
      table.BeginRow();
      table.AddCell(r.combo);
      table.AddInt(r.offers);
      table.AddInt(static_cast<int64_t>(r.aggregates));
      table.AddNumber(static_cast<double>(r.offers) /
                          static_cast<double>(r.aggregates),
                      2);
      table.AddNumber(r.aggregation_s, 3);
      table.AddNumber(r.tf_loss_per_offer, 3);
      table.AddNumber(r.disaggregation_s, 3);
      table.AddNumber(r.disaggregation_s / std::max(1e-9, r.aggregation_s), 3);
      agg_times.push_back(r.aggregation_s);
      disagg_times.push_back(r.disaggregation_s);
    }
  }

  std::cout << "=== Figure 5(a-c): compression, aggregation time, "
               "time-flexibility loss ===\n";
  table.WritePretty(std::cout);

  std::cout << "\n=== Figure 5(d): disaggregation vs aggregation time ===\n";
  Result<LinearFit> fit = FitLine(agg_times, disagg_times);
  if (fit.ok()) {
    std::printf("line fit: disagg = %.2f * agg + %.2f  (R^2 = %.3f)\n",
                fit->slope, fit->intercept, fit->r_squared);
    std::printf("paper reports y = 0.36*x - 0.68 (disaggregation ~3x faster "
                "than aggregation)\n");
    report.AddResult("disagg_vs_agg_fit")
        .Metric("slope", fit->slope)
        .Metric("intercept", fit->intercept)
        .Metric("r_squared", fit->r_squared);
  } else {
    std::cout << "line fit unavailable: " << fit.status() << "\n";
  }
  report.WriteFile();
  return 0;
}

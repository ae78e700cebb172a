// Ablation of the aggregation <-> scheduling interplay (paper §8): "how do
// we choose the best aggregation result size ... to preserve as much as
// possible of the flexibility, while still keeping the overall run time
// within the limits?"
//
// A fixed workload of flex-offers is pushed through each aggregation setting
// (no aggregation at all, P0..P3, P3 + bin-packer), then the resulting macro
// offers are scheduled under a fixed greedy budget. Reported per setting:
// aggregate count, aggregation time, flexibility loss, scheduling time to
// convergence, and final schedule cost — the two-dimensional trade-off the
// paper describes.
#include <cstdlib>
#include <iostream>
#include <optional>

#include "aggregation/pipeline.h"
#include "bench_main.h"
#include "common/csv.h"
#include "common/stopwatch.h"
#include "datagen/flex_offer_generator.h"
#include "scheduling/scheduler.h"

using namespace mirabel;  // NOLINT: bench brevity

namespace {

struct Setting {
  std::string name;
  bool aggregate = true;
  aggregation::PipelineConfig config;
};

}  // namespace

int main() {
  bool small = std::getenv("MIRABEL_BENCH_SMALL") != nullptr;
  const int64_t offer_count = small ? 3000 : 20000;
  const double schedule_budget_s = small ? 0.5 : 2.0;

  datagen::FlexOfferWorkloadConfig workload;
  workload.count = offer_count;
  workload.seed = 77;
  workload.horizon_days = 1;
  std::vector<flexoffer::FlexOffer> offers =
      datagen::GenerateFlexOffers(workload);

  std::vector<Setting> settings;
  settings.push_back({"none (micro offers)", false, {}});
  settings.push_back(
      {"P0", true, {aggregation::AggregationParams::P0(), std::nullopt}});
  settings.push_back(
      {"P1", true, {aggregation::AggregationParams::P1(), std::nullopt}});
  settings.push_back(
      {"P2", true, {aggregation::AggregationParams::P2(), std::nullopt}});
  settings.push_back(
      {"P3", true, {aggregation::AggregationParams::P3(), std::nullopt}});
  {
    aggregation::PipelineConfig with_packer;
    with_packer.params = aggregation::AggregationParams::P3();
    aggregation::BinPackerBounds bounds;
    bounds.max_offers = 64;
    with_packer.bin_packer = bounds;
    settings.push_back({"P3+binpack(64)", true, with_packer});
  }

  bench::BenchReport report("ablation_tradeoff");
  report.AddConfig("offer_count", offer_count);
  report.AddConfig("schedule_budget_s", schedule_budget_s);

  CsvTable table({"setting", "macro_count", "agg_time_s", "tf_loss_per_offer",
                  "schedule_cost_eur", "sched_time_to_best_s"});

  for (Setting& setting : settings) {
    Stopwatch agg_watch;
    std::vector<flexoffer::FlexOffer> macros;
    double tf_loss = 0.0;
    std::optional<aggregation::AggregationPipeline> pipeline;
    if (setting.aggregate) {
      pipeline.emplace(setting.config);
      for (const auto& fo : offers) {
        if (!pipeline->Insert(fo).ok()) return 1;
      }
      pipeline->Flush();
      for (const auto& [id, agg] : pipeline->aggregates()) {
        macros.push_back(agg.macro);
      }
      tf_loss = pipeline->Stats().avg_time_flexibility_loss;
    } else {
      macros = offers;
    }
    double agg_time = setting.aggregate ? agg_watch.ElapsedSeconds() : 0.0;

    // One shared scheduling scenario sized to the workload.
    scheduling::SchedulingProblem problem;
    problem.horizon_start = 0;
    problem.horizon_length = 96 * 5 / 2;
    size_t h = static_cast<size_t>(problem.horizon_length);
    problem.baseline_imbalance_kwh.assign(h, 0.0);
    for (size_t s = 0; s < h; ++s) {
      double frac = static_cast<double>(s % 96) / 96.0;
      problem.baseline_imbalance_kwh[s] =
          offer_count * 0.02 *
          (frac > 0.7 && frac < 0.9
               ? 1.5
               : (frac > 0.4 && frac < 0.6 ? -1.2 : 0.3));
    }
    problem.imbalance_penalty_eur.assign(h, 0.3);
    problem.market.buy_price_eur.assign(h, 0.15);
    problem.market.sell_price_eur.assign(h, 0.05);
    problem.market.max_buy_kwh = offer_count * 0.005;
    problem.market.max_sell_kwh = offer_count * 0.005;
    problem.offers = macros;

    scheduling::GreedyScheduler scheduler;
    scheduling::SchedulerOptions options;
    options.time_budget_s = schedule_budget_s;
    options.seed = 3;
    // Greedy stops once its restarts stop paying, often well inside the
    // budget, so the report's wall time is measured, not the budget.
    Stopwatch schedule_watch;
    auto run = scheduler.Run(problem, options);
    const double schedule_s = schedule_watch.ElapsedSeconds();
    if (!run.ok()) {
      std::cerr << "scheduling failed: " << run.status() << "\n";
      return 1;
    }

    table.BeginRow();
    table.AddCell(setting.name);
    table.AddInt(static_cast<int64_t>(macros.size()));
    table.AddNumber(agg_time, 3);
    table.AddNumber(tf_loss, 3);
    table.AddNumber(run->cost.total(), 1);
    table.AddNumber(run->trace.back().time_s, 3);

    report.AddResult(setting.name)
        .Wall(agg_time + schedule_s)
        .Items(static_cast<double>(offer_count))
        .Metric("macro_count", static_cast<double>(macros.size()))
        .Metric("aggregation_s", agg_time)
        .Metric("tf_loss_per_offer", tf_loss)
        .Metric("schedule_cost_eur", run->cost.total())
        .Metric("sched_time_to_best_s", run->trace.back().time_s);
  }

  std::cout << "=== Ablation: aggregation aggressiveness vs scheduling "
               "(paper Sec. 8 trade-off) ===\n";
  table.WritePretty(std::cout);
  std::printf(
      "\nreading: stronger aggregation -> fewer macros and faster scheduling "
      "convergence, bought with time-flexibility loss; no aggregation leaves "
      "the scheduler too many objects for the budget.\n");
  report.WriteFile();
  return 0;
}

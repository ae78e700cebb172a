// Regenerates the paper's Figure 6 (a)-(d): cost-over-time convergence of the
// evolutionary algorithm (EA) and randomized greedy search (GS) on intra-day
// scheduling scenarios with 10, 100, 1000 and 10000 aggregated flex-offers.
// The paper runs each algorithm five times and averages; we default to three
// runs (MIRABEL_BENCH_SMALL=1 -> one run, smaller budgets).
//
// Paper shape to check: both algorithms drive cost down over time; larger
// instances converge much more slowly; 1000 offers is still efficiently
// solvable, 10000 calls for stronger aggregation upstream. Greedy stops once
// its restarts stop paying, so its curve ends at convergence, possibly well
// before the budget; each report row's wall time is the measured time of
// its runs.
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "bench_main.h"
#include "common/csv.h"
#include "common/stopwatch.h"
#include "edms/scheduler_registry.h"
#include "scheduling/scenario.h"
#include "scheduling/scheduler.h"

using namespace mirabel;              // NOLINT: bench brevity
using namespace mirabel::scheduling;  // NOLINT

namespace {

/// Best cost at time `t` from a best-so-far trace (step function).
double CostAt(const std::vector<CostTracePoint>& trace, double t) {
  double cost = trace.front().best_cost_eur;
  for (const auto& p : trace) {
    if (p.time_s <= t) cost = p.best_cost_eur;
  }
  return cost;
}

}  // namespace

int main() {
  bool small = std::getenv("MIRABEL_BENCH_SMALL") != nullptr;
  const int runs = small ? 1 : 3;

  struct Scale {
    int offers;
    double budget_s;
  };
  std::vector<Scale> scales = small
      ? std::vector<Scale>{{10, 0.3}, {100, 0.6}, {1000, 2.0}, {10000, 6.0}}
      : std::vector<Scale>{{10, 0.5}, {100, 1.5}, {1000, 6.0}, {10000, 20.0}};

  bench::BenchReport report("fig6_scheduling");
  report.AddConfig("runs", static_cast<int64_t>(runs));

  CsvTable table({"offers", "algorithm", "time_s", "avg_cost_eur"});
  for (const Scale& scale : scales) {
    ScenarioConfig scenario_cfg;
    scenario_cfg.num_offers = scale.offers;
    scenario_cfg.seed = 17 + static_cast<uint64_t>(scale.offers);
    // Size the imbalance to the flexible volume so the problem stays
    // meaningful across scales.
    scenario_cfg.imbalance_amplitude_kwh = 4.0 * scale.offers;
    scenario_cfg.max_buy_kwh = 0.8 * scale.offers;
    scenario_cfg.max_sell_kwh = 0.8 * scale.offers;
    SchedulingProblem problem = MakeScenario(scenario_cfg);

    // Checkpoints along the budget (paper plots full curves).
    std::vector<double> checkpoints;
    for (double f : {0.05, 0.1, 0.2, 0.4, 0.7, 1.0}) {
      checkpoints.push_back(f * scale.budget_s);
    }

    for (const std::string algo :
         {"GreedySearch", "EvolutionaryAlgorithm"}) {
      std::vector<double> sums(checkpoints.size(), 0.0);
      double final_sum = 0.0;
      Stopwatch watch;
      for (int r = 0; r < runs; ++r) {
        auto scheduler =
            std::move(edms::SchedulerRegistry::Default().Create(algo))
                .value();
        SchedulerOptions options;
        options.time_budget_s = scale.budget_s;
        options.seed = 1000 + static_cast<uint64_t>(r);
        auto result = scheduler->Run(problem, options);
        if (!result.ok()) {
          std::cerr << algo << " failed: " << result.status() << "\n";
          return 1;
        }
        for (size_t c = 0; c < checkpoints.size(); ++c) {
          sums[c] += CostAt(result->trace, checkpoints[c]);
        }
        final_sum += result->cost.total();
      }
      const double elapsed_s = watch.ElapsedSeconds();
      for (size_t c = 0; c < checkpoints.size(); ++c) {
        table.BeginRow();
        table.AddInt(scale.offers);
        table.AddCell(algo == "GreedySearch" ? "GS" : "EA");
        table.AddNumber(checkpoints[c], 2);
        table.AddNumber(sums[c] / runs, 1);
      }
      std::printf("%5d offers  %-22s final avg cost %10.1f EUR (%.2fs)\n",
                  scale.offers, algo.c_str(), final_sum / runs, elapsed_s);
      report
          .AddResult(std::string(algo == "GreedySearch" ? "GS" : "EA") + "/" +
                     std::to_string(scale.offers))
          .Wall(elapsed_s)
          .Items(static_cast<double>(scale.offers) * runs)
          .Metric("final_avg_cost_eur", final_sum / runs)
          .Metric("budget_s", scale.budget_s);
    }
  }

  std::cout << "\n=== Figure 6: schedule cost vs time, EA vs GS ===\n";
  table.WritePretty(std::cout);
  std::printf("\npaper shape: cost decreases over time; convergence slows "
              "sharply with the flex-offer count.\n");
  report.WriteFile();
  return 0;
}

// Reproduces the paper's §6 optimality study in miniature: "in a preliminary
// experiment with 10 flex-offers without energy constraints it took almost
// three hours to explore all (almost 850 million) sensible solutions".
//
// We shrink the instance (time-flexibility windows) so the full enumeration
// (ExhaustiveScheduler, the oracle) finishes in seconds, find the true
// optimum, and report the optimality-gap trajectory of every scheduler
// family against it: the §6 metaheuristics (greedy, EA), the
// branch-and-bound search that proves the same optimum while visiting a
// fraction of the combinations, and the portfolio race that hedges across
// all three.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>

#include "bench_main.h"
#include "common/csv.h"
#include "common/stopwatch.h"
#include "edms/scheduler_registry.h"
#include "scheduling/scenario.h"
#include "scheduling/scheduler.h"

using namespace mirabel;              // NOLINT: bench brevity
using namespace mirabel::scheduling;  // NOLINT

namespace {

double GapPct(double cost, double opt_cost) {
  const double denom = std::max(std::fabs(opt_cost), 1e-9);
  return (cost - opt_cost) / denom * 100.0;
}

}  // namespace

int main() {
  // 10 offers, no energy flexibility (fixed profiles). The scenario
  // generator randomizes each offer's window up to the cap, so the actual
  // combination count is far below the worst case — small enough for the
  // exhaustive sweep to finish in seconds and anchor the gap at a proven
  // optimum. Small mode shrinks the windows further for smoke runs.
  bool small = bench::SmallMode();
  ScenarioConfig cfg;
  cfg.num_offers = 10;
  cfg.no_energy_flexibility = true;
  cfg.max_time_flexibility = small ? 2 : 8;
  cfg.seed = 4242;
  cfg.imbalance_amplitude_kwh = 40.0;
  SchedulingProblem problem = MakeScenario(cfg);

  uint64_t combos = ExhaustiveScheduler::CountCombinations(problem);
  std::printf("instance: %zu flex-offers, %llu start-time combinations\n",
              problem.offers.size(),
              static_cast<unsigned long long>(combos));

  bench::BenchReport report("optimality_study");
  report.AddConfig("num_offers", static_cast<int64_t>(cfg.num_offers));
  report.AddConfig("max_time_flexibility",
                   static_cast<int64_t>(cfg.max_time_flexibility));
  report.AddConfig("combinations", static_cast<int64_t>(combos));

  Stopwatch ex_watch;
  ExhaustiveScheduler exhaustive;
  SchedulerOptions ex_options;
  ex_options.time_budget_s = 600.0;
  auto optimal = exhaustive.Run(problem, ex_options);
  if (!optimal.ok()) {
    std::cerr << "exhaustive failed: " << optimal.status() << "\n";
    return 1;
  }
  if (!optimal->optimal_proven) {
    std::cerr << "exhaustive enumeration did not complete within its budget; "
                 "gaps below are vs best-known, not proven optimum\n";
  }
  const double opt_cost = optimal->cost.total();
  const double ex_wall = ex_watch.ElapsedSeconds();

  CsvTable table({"algorithm", "time_s", "cost_eur", "gap_vs_optimal_eur",
                  "gap_vs_optimal_pct"});
  table.BeginRow();
  table.AddCell("Exhaustive(optimal)");
  table.AddNumber(ex_wall, 2);
  table.AddNumber(opt_cost, 2);
  table.AddNumber(0.0, 2);
  table.AddNumber(0.0, 3);
  report.AddResult("Exhaustive(optimal)")
      .Wall(ex_wall)
      .Items(static_cast<double>(combos))
      .Metric("cost_eur", opt_cost)
      .Metric("gap_vs_optimal_eur", 0.0)
      .Metric("gap_vs_optimal_pct", 0.0)
      .Metric("optimal_proven", optimal->optimal_proven ? 1.0 : 0.0);

  // Gap trajectory: every scheduler's cost-over-time trace, re-based as a
  // percent gap against the proven optimum (the §6 convergence picture with
  // an exact zero line).
  CsvTable trajectory({"algorithm", "time_s", "gap_vs_optimal_pct"});

  for (const std::string algo : {"GreedySearch", "EvolutionaryAlgorithm",
                                 "BranchAndBound", "Portfolio"}) {
    Stopwatch watch;
    auto scheduler =
        std::move(edms::SchedulerRegistry::Default().Create(algo)).value();
    SchedulerOptions options;
    options.time_budget_s = small ? 0.3 : 1.0;
    options.seed = 5;
    auto result = scheduler->Run(problem, options);
    if (!result.ok()) {
      std::cerr << algo << " failed: " << result.status() << "\n";
      return 1;
    }
    const double wall = watch.ElapsedSeconds();
    const double cost = result->cost.total();
    table.BeginRow();
    table.AddCell(algo);
    table.AddNumber(wall, 2);
    table.AddNumber(cost, 2);
    table.AddNumber(cost - opt_cost, 2);
    table.AddNumber(GapPct(cost, opt_cost), 3);
    auto& leg = report.AddResult(algo)
                    .Wall(wall)
                    .Metric("cost_eur", cost)
                    .Metric("gap_vs_optimal_eur", cost - opt_cost)
                    .Metric("gap_vs_optimal_pct", GapPct(cost, opt_cost));
    if (algo == "BranchAndBound") {
      // The tentpole numbers: proof with a fraction of the enumeration.
      leg.Metric("nodes_visited", static_cast<double>(result->nodes_visited))
          .Metric("optimal_proven", result->optimal_proven ? 1.0 : 0.0)
          .Metric("nodes_vs_combinations_pct",
                  combos > 0 ? 100.0 * static_cast<double>(
                                           result->nodes_visited) /
                                   static_cast<double>(combos)
                             : 0.0);
    }
    if (algo == "Portfolio") {
      // Regret vs its own best member must be zero by construction; anything
      // else means the race dropped a better schedule on the floor.
      double best_member = std::numeric_limits<double>::infinity();
      for (const PortfolioMemberStats& member : result->portfolio) {
        if (member.ok) best_member = std::min(best_member, member.cost_eur);
        std::printf("portfolio member %-22s cost %.2f EUR %s%s\n",
                    member.name.c_str(), member.cost_eur,
                    member.won ? "[winner]" : "",
                    member.optimal_proven ? " [proven optimal]" : "");
      }
      leg.Metric("portfolio_regret_eur", cost - best_member)
          .Metric("optimal_proven", result->optimal_proven ? 1.0 : 0.0);
    }
    for (const CostTracePoint& point : result->trace) {
      trajectory.BeginRow();
      trajectory.AddCell(algo);
      trajectory.AddNumber(point.time_s, 4);
      trajectory.AddNumber(GapPct(point.best_cost_eur, opt_cost), 3);
    }
  }

  std::cout << "\n=== Optimality study (shrunk instance of paper Sec. 6) "
               "===\n";
  table.WritePretty(std::cout);
  std::cout << "\n=== Gap trajectory (best-so-far vs proven optimum) ===\n";
  trajectory.WritePretty(std::cout);
  std::printf("\npaper point: exhaustive enumeration explodes (850M combos "
              "~ 3h for 10 offers); branch-and-bound proves the same "
              "optimum in a fraction of the nodes, and the metaheuristics "
              "approach it in seconds.\n");
  report.WriteFile();
  return 0;
}

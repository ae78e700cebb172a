#include "scheduling/scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "edms/scheduler_registry.h"
#include "scheduling/compiled_problem.h"
#include "scheduling/scenario.h"

namespace mirabel::scheduling {
namespace {

SchedulerOptions IterBudget(int iters) {
  SchedulerOptions opt;
  opt.time_budget_s = 0.0;
  opt.max_iterations = iters;
  opt.seed = 11;
  return opt;
}

/// Registry-backed factory; nullptr for unknown names.
std::unique_ptr<Scheduler> MakeScheduler(const std::string& name) {
  auto created = edms::SchedulerRegistry::Default().Create(name);
  return created.ok() ? std::move(created).value() : nullptr;
}

class SchedulerSuite : public ::testing::TestWithParam<const char*> {};

TEST_P(SchedulerSuite, ImprovesOverFallbackBaseline) {
  ScenarioConfig cfg;
  cfg.num_offers = 50;
  cfg.seed = 5;
  SchedulingProblem problem = MakeScenario(cfg);
  CompiledProblem cp(problem);
  double baseline = ScheduleWorkspace(cp).Cost(cp).total();

  auto scheduler = MakeScheduler(GetParam());
  ASSERT_NE(scheduler, nullptr);
  auto result = scheduler->Run(problem, IterBudget(200));
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->cost.total(), baseline);
}

TEST_P(SchedulerSuite, ScheduleRespectsAllConstraints) {
  ScenarioConfig cfg;
  cfg.num_offers = 40;
  cfg.seed = 6;
  cfg.production_fraction = 0.4;
  SchedulingProblem problem = MakeScenario(cfg);
  auto scheduler = MakeScheduler(GetParam());
  auto result = scheduler->Run(problem, IterBudget(100));
  ASSERT_TRUE(result.ok());
  CompiledProblem cp(problem);
  ScheduleWorkspace ws(cp);
  ASSERT_TRUE(ws.SetSchedule(cp, result->schedule).ok());
  auto scheduled = ws.ExportScheduledOffers(cp);
  for (size_t i = 0; i < scheduled.size(); ++i) {
    EXPECT_TRUE(scheduled[i].ValidateAgainst(problem.offers[i]).ok());
  }
}

TEST_P(SchedulerSuite, TraceIsMonotoneNonIncreasing) {
  ScenarioConfig cfg;
  cfg.num_offers = 30;
  cfg.seed = 7;
  SchedulingProblem problem = MakeScenario(cfg);
  auto scheduler = MakeScheduler(GetParam());
  auto result = scheduler->Run(problem, IterBudget(150));
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->trace.empty());
  for (size_t i = 1; i < result->trace.size(); ++i) {
    EXPECT_LE(result->trace[i].best_cost_eur,
              result->trace[i - 1].best_cost_eur);
    EXPECT_GE(result->trace[i].time_s, result->trace[i - 1].time_s);
  }
  EXPECT_NEAR(result->trace.back().best_cost_eur, result->cost.total(), 1e-6);
}

TEST_P(SchedulerSuite, DeterministicForFixedSeed) {
  ScenarioConfig cfg;
  cfg.num_offers = 20;
  cfg.seed = 8;
  SchedulingProblem problem = MakeScenario(cfg);
  auto a = MakeScheduler(GetParam())->Run(problem, IterBudget(60));
  auto b = MakeScheduler(GetParam())->Run(problem, IterBudget(60));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->cost.total(), b->cost.total());
}

TEST_P(SchedulerSuite, RejectsInvalidProblem) {
  SchedulingProblem bad;
  bad.horizon_length = -1;
  auto scheduler = MakeScheduler(GetParam());
  EXPECT_FALSE(scheduler->Run(bad, IterBudget(10)).ok());
}

TEST_P(SchedulerSuite, HandlesEmptyOfferSet) {
  ScenarioConfig cfg;
  cfg.num_offers = 0;
  SchedulingProblem problem = MakeScenario(cfg);
  auto scheduler = MakeScheduler(GetParam());
  auto result = scheduler->Run(problem, IterBudget(5));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->schedule.assignments.empty());
}

// Every registered name: the suite drives each one through the shared
// Scheduler::Run() entry point.
INSTANTIATE_TEST_SUITE_P(Algorithms, SchedulerSuite,
                         ::testing::Values("GreedySearch",
                                           "EvolutionaryAlgorithm",
                                           "BranchAndBound", "Portfolio",
                                           "Robust"),
                         [](const auto& info) { return info.param; });

TEST(SchedulerBudgetTest, AnytimeSchedulersRejectUnboundedOptions) {
  // With neither a time budget nor an iteration cap an anytime run would
  // never stop, so it must be refused up front.
  ScenarioConfig cfg;
  cfg.num_offers = 10;
  SchedulingProblem problem = MakeScenario(cfg);
  for (const char* name : {"GreedySearch", "EvolutionaryAlgorithm"}) {
    auto run = MakeScheduler(name)->Run(problem, IterBudget(0));
    ASSERT_FALSE(run.ok()) << name;
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(SchedulerFactoryTest, UnknownNameIsNotFound) {
  auto created = edms::SchedulerRegistry::Default().Create("TabuSearch");
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kNotFound);
}

TEST(SchedulerFactoryTest, DefaultRegistryListsThePaperAlgorithms) {
  auto names = edms::SchedulerRegistry::Default().Names();
  EXPECT_EQ(names, (std::vector<std::string>{
                       "BranchAndBound", "EvolutionaryAlgorithm",
                       "GreedySearch", "Portfolio", "Robust"}));
  for (const std::string& name : names) {
    auto created = edms::SchedulerRegistry::Default().Create(name);
    ASSERT_TRUE(created.ok()) << name;
    EXPECT_EQ((*created)->Name(), name);
  }
}

TEST(EvolutionarySchedulerTest, DegenerateConfigRejected) {
  EvolutionaryScheduler::Config cfg;
  cfg.population_size = 1;
  EvolutionaryScheduler scheduler(cfg);
  ScenarioConfig scfg;
  scfg.num_offers = 5;
  EXPECT_FALSE(scheduler.Run(MakeScenario(scfg), IterBudget(5)).ok());
}

TEST(EvolutionarySchedulerTest, NegativeElitesRejected) {
  // A negative elite count would hand std::partial_sort begin() - 1.
  EvolutionaryScheduler::Config cfg;
  cfg.elites = -1;
  EvolutionaryScheduler scheduler(cfg);
  ScenarioConfig scfg;
  scfg.num_offers = 5;
  auto run = scheduler.Run(MakeScenario(scfg), IterBudget(5));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExhaustiveSchedulerTest, CountCombinations) {
  ScenarioConfig cfg;
  cfg.num_offers = 3;
  cfg.max_time_flexibility = 2;
  cfg.seed = 77;
  SchedulingProblem problem = MakeScenario(cfg);
  uint64_t combos = ExhaustiveScheduler::CountCombinations(problem);
  uint64_t expected = 1;
  for (const auto& fo : problem.offers) {
    expected *= static_cast<uint64_t>(fo.TimeFlexibility()) + 1;
  }
  EXPECT_EQ(combos, expected);
}

TEST(ExhaustiveSchedulerTest, RefusesHugeInstances) {
  ScenarioConfig cfg;
  cfg.num_offers = 40;
  cfg.max_time_flexibility = 24;
  SchedulingProblem problem = MakeScenario(cfg);
  ExhaustiveScheduler scheduler(/*max_combinations=*/1000);
  EXPECT_EQ(scheduler.Run(problem, IterBudget(0)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ExhaustiveSchedulerTest, FindsOptimumOfSmallInstance) {
  ScenarioConfig cfg;
  cfg.num_offers = 5;
  cfg.max_time_flexibility = 4;
  cfg.no_energy_flexibility = true;
  cfg.seed = 13;
  SchedulingProblem problem = MakeScenario(cfg);
  ExhaustiveScheduler exhaustive;
  SchedulerOptions opt;
  opt.time_budget_s = 60.0;
  auto optimal = exhaustive.Run(problem, opt);
  ASSERT_TRUE(optimal.ok());

  // No feasible schedule may beat the exhaustive optimum.
  for (const char* algo : {"GreedySearch", "EvolutionaryAlgorithm"}) {
    auto heuristic = MakeScheduler(algo)->Run(problem, IterBudget(300));
    ASSERT_TRUE(heuristic.ok());
    EXPECT_GE(heuristic->cost.total(), optimal->cost.total() - 1e-6) << algo;
  }
}

TEST(ScenarioTest, ProducesValidProblems) {
  for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    for (int n : {0, 1, 10, 200}) {
      ScenarioConfig cfg;
      cfg.num_offers = n;
      cfg.seed = seed;
      SchedulingProblem p = MakeScenario(cfg);
      EXPECT_TRUE(p.Validate().ok()) << "n=" << n << " seed=" << seed;
      EXPECT_EQ(p.offers.size(), static_cast<size_t>(n));
    }
  }
}

TEST(ScenarioTest, NoEnergyFlexibilityMeansFixedProfiles) {
  ScenarioConfig cfg;
  cfg.num_offers = 50;
  cfg.no_energy_flexibility = true;
  SchedulingProblem p = MakeScenario(cfg);
  for (const auto& fo : p.offers) {
    EXPECT_DOUBLE_EQ(fo.TotalEnergyFlexibility(), 0.0);
  }
}

TEST(ScenarioTest, ProductionFractionRoughlyRespected) {
  ScenarioConfig cfg;
  cfg.num_offers = 600;
  cfg.production_fraction = 0.5;
  SchedulingProblem p = MakeScenario(cfg);
  int production = 0;
  for (const auto& fo : p.offers) {
    if (fo.TotalMaxEnergy() < 0) ++production;
  }
  EXPECT_GT(production, 240);
  EXPECT_LT(production, 360);
}

}  // namespace
}  // namespace mirabel::scheduling

// The portfolio race's contract: the winner is deterministic (strictly
// lowest cost, ties to the lowest rank), the result is never worse than the
// best member's, and the race runs correctly — and TSan-clean — on a shared
// two-worker WorkerPool through the edms::WorkerPoolExecutor seam.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "edms/pool_executor.h"
#include "edms/worker_pool.h"
#include "scheduling/compiled_problem.h"
#include "scheduling/portfolio_scheduler.h"
#include "scheduling/scenario.h"
#include "scheduling/scheduler.h"

namespace mirabel::scheduling {
namespace {

SchedulerOptions IterBudget(int iters) {
  SchedulerOptions opt;
  opt.time_budget_s = 0.0;
  opt.max_iterations = iters;
  opt.seed = 11;
  return opt;
}

/// Member stand-in with a known, fixed schedule, so winner selection can be
/// scripted.
class FixedScheduler : public Scheduler {
 public:
  explicit FixedScheduler(Schedule schedule) : schedule_(std::move(schedule)) {}
  std::string Name() const override { return "Fixed"; }
  Result<SchedulingResult> RunCompiled(const CompiledProblem& cp,
                                       const SchedulerOptions&) override {
    ScheduleWorkspace ws(cp);
    MIRABEL_RETURN_IF_ERROR(ws.SetSchedule(cp, schedule_));
    SchedulingResult result;
    result.schedule = schedule_;
    result.cost = ws.Cost(cp);
    result.iterations = 1;
    result.trace.push_back({0.0, result.cost.total()});
    return result;
  }

 private:
  Schedule schedule_;
};

PortfolioScheduler::Member FixedMember(const std::string& name,
                                       const Schedule& schedule) {
  return {name,
          [schedule] { return std::make_unique<FixedScheduler>(schedule); }};
}

TEST(PortfolioSchedulerTest, LowestCostMemberWins) {
  ScenarioConfig cfg;
  cfg.seed = 31;
  cfg.num_offers = 20;
  SchedulingProblem problem = MakeScenario(cfg);
  CompiledProblem cp(problem);

  // "weak" is the kernel default schedule; "strong" a greedy improvement.
  Schedule weak;
  ScheduleWorkspace(cp).ExportSchedule(&weak);
  GreedyScheduler greedy;
  auto improved = greedy.Run(problem, IterBudget(80));
  ASSERT_TRUE(improved.ok());
  ASSERT_LT(improved->cost.total(),
            ScheduleWorkspace(cp).Cost(cp).total());  // strictly better

  PortfolioScheduler::Config config;
  config.members.push_back(FixedMember("weak-a", weak));
  config.members.push_back(FixedMember("strong", improved->schedule));
  config.members.push_back(FixedMember("weak-b", weak));
  PortfolioScheduler portfolio(config);

  auto result = portfolio.Run(problem, IterBudget(10));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->cost.total(), improved->cost.total());
  ASSERT_EQ(result->portfolio.size(), 3u);
  EXPECT_FALSE(result->portfolio[0].won);
  EXPECT_TRUE(result->portfolio[1].won);
  EXPECT_FALSE(result->portfolio[2].won);
  EXPECT_EQ(result->portfolio[1].name, "strong");
  for (const PortfolioMemberStats& member : result->portfolio) {
    EXPECT_TRUE(member.ok);
  }
}

TEST(PortfolioSchedulerTest, CostTiesResolveToTheLowestRank) {
  ScenarioConfig cfg;
  cfg.seed = 32;
  cfg.num_offers = 15;
  SchedulingProblem problem = MakeScenario(cfg);
  CompiledProblem cp(problem);
  Schedule same;
  ScheduleWorkspace(cp).ExportSchedule(&same);

  PortfolioScheduler::Config config;
  config.members.push_back(FixedMember("first", same));
  config.members.push_back(FixedMember("second", same));
  PortfolioScheduler portfolio(config);

  auto result = portfolio.Run(problem, IterBudget(10));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->portfolio.size(), 2u);
  EXPECT_TRUE(result->portfolio[0].won);
  EXPECT_FALSE(result->portfolio[1].won);
}

TEST(PortfolioSchedulerTest, DefaultRaceOnWorkerPoolBeatsNoMember) {
  ScenarioConfig cfg;
  cfg.seed = 33;
  cfg.num_offers = 12;
  cfg.max_time_flexibility = 6;
  SchedulingProblem problem = MakeScenario(cfg);

  edms::WorkerPool::Options pool_options;
  pool_options.num_threads = 2;
  edms::WorkerPool pool(pool_options);

  PortfolioScheduler::Config config;  // default members: greedy/EA/bnb
  config.executor = std::make_shared<edms::WorkerPoolExecutor>(&pool);
  PortfolioScheduler portfolio(config);

  auto result = portfolio.Run(problem, IterBudget(60));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->portfolio.size(), 3u);

  int winners = 0;
  double best_member = std::numeric_limits<double>::infinity();
  for (const PortfolioMemberStats& member : result->portfolio) {
    ASSERT_TRUE(member.ok) << member.name;
    winners += member.won ? 1 : 0;
    best_member = std::min(best_member, member.cost_eur);
  }
  EXPECT_EQ(winners, 1);
  // The race is never worse than its best member.
  EXPECT_DOUBLE_EQ(result->cost.total(), best_member);
  // Member names are the underlying scheduler names, rank order preserved.
  EXPECT_EQ(result->portfolio[0].name, "GreedySearch");
  EXPECT_EQ(result->portfolio[1].name, "EvolutionaryAlgorithm");
  EXPECT_EQ(result->portfolio[2].name, "BranchAndBound");

  // Iteration-capped members are deterministic, so the whole race is: a
  // second run on the same pool must reproduce the winner bit for bit.
  auto again = portfolio.Run(problem, IterBudget(60));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->cost.total(), result->cost.total());
  for (size_t rank = 0; rank < 3; ++rank) {
    EXPECT_EQ(again->portfolio[rank].won, result->portfolio[rank].won) << rank;
  }
}

}  // namespace
}  // namespace mirabel::scheduling

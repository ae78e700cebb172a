// The branch-and-bound scheduler's contract has three legs: (1) it is
// *optimal* — on instances small enough to enumerate, its schedule cost is
// the exhaustive optimum, bit for bit, while visiting strictly fewer nodes
// than the enumeration; (2) its incremental lower bound is *sound* — at no
// search-tree node does the bound exceed the true kernel cost of the best
// completion; (3) it is *anytime* — an expired deadline returns the
// warm-start incumbent instead of failing.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "scheduling/bnb_scheduler.h"
#include "scheduling/compiled_problem.h"
#include "scheduling/scenario.h"
#include "scheduling/scheduler.h"

namespace mirabel::scheduling {
namespace {

SchedulerOptions Unbounded() {
  SchedulerOptions opt;
  opt.time_budget_s = 0.0;  // disabled gate: runs to proven optimality
  opt.max_iterations = 0;
  opt.seed = 11;
  return opt;
}

/// Small randomized instances the exhaustive odometer can sweep completely.
ScenarioConfig SmallInstance(uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.num_offers = 4 + static_cast<int>(seed % 3);
  cfg.max_time_flexibility = 3 + static_cast<int>(seed % 3);
  // The paper's optimality-study setting: no energy constraints, so the
  // start-slot space at fill = 1 — the space both searches sweep — is the
  // whole search space and the two optima must coincide. (With energy
  // flexibility the greedy warm start may legitimately beat every fill = 1
  // schedule, making the comparison ill-posed.)
  cfg.no_energy_flexibility = true;
  return cfg;
}

TEST(BnbSchedulerTest, MatchesExhaustiveBitwiseWithFewerNodes) {
  int proven = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SchedulingProblem problem = MakeScenario(SmallInstance(seed));
    const uint64_t combos = ExhaustiveScheduler::CountCombinations(problem);
    ASSERT_GT(combos, 1u) << "seed " << seed << " has no search space";

    ExhaustiveScheduler exhaustive;
    auto optimal = exhaustive.Run(problem, Unbounded());
    ASSERT_TRUE(optimal.ok()) << "seed " << seed;
    ASSERT_TRUE(optimal->optimal_proven) << "seed " << seed;

    BranchAndBoundScheduler bnb;
    auto result = bnb.Run(problem, Unbounded());
    ASSERT_TRUE(result.ok()) << "seed " << seed;
    EXPECT_TRUE(result->optimal_proven) << "seed " << seed;

    // Same optimum, bit for bit: both searches finish on the same canonical
    // SetSchedule + Cost recompute, so agreeing argmins agree exactly.
    EXPECT_EQ(result->cost.total(), optimal->cost.total())
        << "seed " << seed << ": bnb " << result->cost.total()
        << " vs exhaustive " << optimal->cost.total();

    // The point of the bound: strictly cheaper than full enumeration.
    EXPECT_GT(result->nodes_visited, 0) << "seed " << seed;
    EXPECT_LT(static_cast<uint64_t>(result->nodes_visited), combos)
        << "seed " << seed;
    if (result->optimal_proven) ++proven;
  }
  EXPECT_EQ(proven, 50);
}

TEST(BnbBoundTest, NeverExceedsBestCompletionCostAtAnyNode) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    ScenarioConfig cfg;
    cfg.seed = seed;
    cfg.num_offers = 4;
    cfg.max_time_flexibility = 3;
    cfg.production_fraction = 0.4;
    SchedulingProblem problem = MakeScenario(cfg);
    ASSERT_TRUE(problem.Validate().ok());
    CompiledProblem cp(problem);
    ScheduleWorkspace ws(cp);
    const size_t n = cp.num_offers;

    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    BnbBound bound(cp, order);

    std::vector<flexoffer::TimeSlice> starts(n, 0);
    const std::vector<double> fills(n, 1.0);

    // Walk the complete tree; at every node the bound must under-estimate
    // the cheapest kernel-evaluated completion of the fixed prefix.
    std::function<double(size_t)> best_completion =
        [&](size_t depth) -> double {
      const double lower = bound.LowerBound();
      double best = std::numeric_limits<double>::infinity();
      if (depth == n) {
        ws.SetAssignmentsUnchecked(cp, starts, fills);
        best = ws.Cost(cp).total();
        // At a leaf the bound's own sweep must track the kernel closely.
        EXPECT_NEAR(bound.LeafCost(), best, 1e-6);
      } else {
        for (flexoffer::TimeSlice s = cp.earliest_start[depth];
             s <= cp.latest_start[depth]; ++s) {
          starts[depth] = s;
          bound.Push(s);
          best = std::min(best, best_completion(depth + 1));
          bound.Pop();
        }
      }
      EXPECT_LE(lower, best)
          << "seed " << seed << " depth " << depth
          << ": bound above the true best completion by " << lower - best;
      return best;
    };
    best_completion(0);
  }
}

/// Warm-start stand-in with a known, fixed answer, so the deadline test can
/// recognize the incumbent it gets back.
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

TEST(BnbSchedulerTest, ExpiredDeadlineReturnsWarmStartIncumbent) {
  ScenarioConfig cfg;
  cfg.seed = 12;
  cfg.num_offers = 20;
  SchedulingProblem problem = MakeScenario(cfg);
  CompiledProblem cp(problem);

  // The warm start hands over the kernel's default schedule; a deadline that
  // is already spent when the search starts must return exactly that.
  Schedule warm;
  ScheduleWorkspace(cp).ExportSchedule(&warm);

  BranchAndBoundScheduler::Config config;
  config.warm_start = [&warm] {
    return std::make_unique<FixedScheduler>(warm);
  };
  BranchAndBoundScheduler bnb(config);
  SchedulerOptions options;
  options.time_budget_s = 1e-9;
  auto result = bnb.Run(problem, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->optimal_proven);
  EXPECT_EQ(result->nodes_visited, 0);
  ASSERT_EQ(result->schedule.assignments.size(), warm.assignments.size());
  for (size_t i = 0; i < warm.assignments.size(); ++i) {
    EXPECT_EQ(result->schedule.assignments[i].start, warm.assignments[i].start);
    EXPECT_DOUBLE_EQ(result->schedule.assignments[i].fill,
                     warm.assignments[i].fill);
  }
}

TEST(BnbSchedulerTest, NeverWorseThanItsWarmStart) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    ScenarioConfig cfg;
    cfg.seed = seed;
    cfg.num_offers = 30;
    SchedulingProblem problem = MakeScenario(cfg);

    SchedulerOptions opt = Unbounded();
    opt.max_iterations = 120;
    // Replicate the warm start the search will see: greedy with the default
    // 15% share of the iteration budget and the same seed.
    SchedulerOptions warm_opt = opt;
    warm_opt.max_iterations = 18;
    GreedyScheduler greedy;
    auto warm_alone = greedy.Run(problem, warm_opt);
    ASSERT_TRUE(warm_alone.ok());

    BranchAndBoundScheduler bnb;
    auto result = bnb.Run(problem, opt);
    ASSERT_TRUE(result.ok());
    // The search starts from a (shorter-budget) greedy incumbent and only
    // replaces it with strictly better leaves.
    EXPECT_LE(result->cost.total(), warm_alone->cost.total() + 1e-9)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace mirabel::scheduling

#ifndef MIRABEL_SCHEDULING_PORTFOLIO_SCHEDULER_H_
#define MIRABEL_SCHEDULING_PORTFOLIO_SCHEDULER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "scheduling/compiled_problem.h"
#include "scheduling/executor.h"
#include "scheduling/scheduler.h"

namespace mirabel::scheduling {

/// Races several schedulers on one problem within one budget and returns the
/// best schedule (§6 reports no single winner across instance shapes —
/// greedy wins some workloads, the EA others — so an EDMS that must answer
/// within a gate deadline hedges by running the portfolio concurrently).
///
/// Every member solves the SAME compiled problem with the full remaining
/// budget (members run concurrently, so budget is not divided) and a
/// distinct deterministic seed (options.seed + rank). The winner is the
/// member with the strictly lowest total cost, ties broken by rank order —
/// so with every member run to completion the outcome is deterministic, and
/// the portfolio result is never worse than its best member's.
///
/// Where the members run is a seam: the scheduling layer cannot depend on
/// the EDMS layer, so the pool wiring lives in an Executor implementation
/// (edms::WorkerPoolExecutor in src/edms/pool_executor.h posts one pool
/// strand per member; the default ThreadExecutor spawns plain threads).
class PortfolioScheduler : public Scheduler {
 public:
  /// The task-batch seam now lives in scheduling/executor.h (it is shared
  /// with StochasticEvaluator); these aliases keep the historical nested
  /// names working for executor implementations and tests.
  using Executor = scheduling::Executor;
  using ThreadExecutor = scheduling::ThreadExecutor;

  /// One racing member. `rank` is its index in Config::members: the seed
  /// offset and the tie-break priority (lower rank wins cost ties).
  struct Member {
    /// Reported through PortfolioMemberStats::name; empty resolves to the
    /// scheduler's Name().
    std::string name;
    /// Fresh scheduler per run (members race concurrently; scheduler
    /// instances are not required to be thread-safe).
    std::function<std::unique_ptr<Scheduler>()> factory;
  };

  struct Config {
    /// Empty resolves to the default portfolio: GreedySearch,
    /// EvolutionaryAlgorithm, Hybrid, BranchAndBound (in rank order).
    std::vector<Member> members;
    /// Null resolves to a ThreadExecutor. NOTE: when this is an
    /// edms::WorkerPoolExecutor, Run/RunCompiled must not be invoked from
    /// one of that pool's worker threads — the race blocks on pool tasks
    /// and would deadlock a pool that is busy running it.
    std::shared_ptr<Executor> executor;
  };

  PortfolioScheduler();
  explicit PortfolioScheduler(Config config);
  std::string Name() const override { return "Portfolio"; }
  Result<SchedulingResult> Run(const SchedulingProblem& problem,
                               const SchedulerOptions& options) override;

  /// Runs on an already-compiled problem shared (read-only) by all racing
  /// members; see GreedyScheduler::RunCompiled.
  Result<SchedulingResult> RunCompiled(
      const CompiledProblem& compiled,
      const SchedulerOptions& options) override;

 private:
  Config config_;
};

}  // namespace mirabel::scheduling

#endif  // MIRABEL_SCHEDULING_PORTFOLIO_SCHEDULER_H_

#include "scheduling/portfolio_scheduler.h"

#include <optional>
#include <utility>

#include "common/stopwatch.h"
#include "scheduling/bnb_scheduler.h"

namespace mirabel::scheduling {

PortfolioScheduler::PortfolioScheduler() : config_() {}

PortfolioScheduler::PortfolioScheduler(Config config)
    : config_(std::move(config)) {}

Result<SchedulingResult> PortfolioScheduler::Run(
    const SchedulingProblem& problem, const SchedulerOptions& options) {
  MIRABEL_RETURN_IF_ERROR(problem.Validate());
  CompiledProblem cp(problem);
  return RunCompiled(cp, options);
}

Result<SchedulingResult> PortfolioScheduler::RunCompiled(
    const CompiledProblem& cp, const SchedulerOptions& options) {
  Stopwatch watch;

  std::vector<Member> members = config_.members;
  if (members.empty()) {
    members.push_back(
        {"", [] { return std::make_unique<GreedyScheduler>(); }});
    members.push_back(
        {"", [] { return std::make_unique<EvolutionaryScheduler>(); }});
    members.push_back(
        {"", [] { return std::make_unique<HybridScheduler>(); }});
    members.push_back(
        {"", [] { return std::make_unique<BranchAndBoundScheduler>(); }});
  }
  const size_t m = members.size();

  // Every member races with the full remaining budget (they run
  // concurrently, so the budget is shared wall-clock, not divided) and its
  // own deterministic seed.
  double remaining = options.time_budget_s;
  if (remaining > 0.0) {
    remaining -= watch.ElapsedSeconds();
    // A deadline that expired during setup still runs each member briefly
    // (anytime members return their construction incumbent).
    if (remaining < 1e-3) remaining = 1e-3;
  }

  // One slot per member; a task writes only its own slot, so the executor's
  // completion barrier is the only synchronization needed.
  std::vector<std::optional<Result<SchedulingResult>>> slots(m);
  std::vector<std::string> names(m);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(m);
  for (size_t rank = 0; rank < m; ++rank) {
    tasks.push_back([&, rank] {
      std::unique_ptr<Scheduler> scheduler = members[rank].factory();
      names[rank] = members[rank].name.empty() ? scheduler->Name()
                                               : members[rank].name;
      SchedulerOptions member_opts = options;
      member_opts.time_budget_s = remaining;
      member_opts.seed = options.seed + rank;
      slots[rank].emplace(scheduler->RunCompiled(cp, member_opts));
    });
  }

  Executor* executor = config_.executor.get();
  ThreadExecutor fallback;
  if (executor == nullptr) executor = &fallback;
  executor->RunAll(std::move(tasks));

  // Winner: strictly lowest cost, scanning in rank order so ties (and the
  // common all-members-find-the-optimum case) resolve deterministically to
  // the lowest rank.
  size_t winner = m;
  for (size_t rank = 0; rank < m; ++rank) {
    if (!slots[rank].has_value() || !slots[rank]->ok()) continue;
    if (winner == m || slots[rank]->value().cost.total() <
                           slots[winner]->value().cost.total()) {
      winner = rank;
    }
  }
  if (winner == m) {
    for (auto& slot : slots) {
      if (slot.has_value()) return slot->status();
    }
    return Status::Internal("portfolio executor ran no member");
  }

  SchedulingResult result = std::move(slots[winner]->value());
  result.portfolio.assign(m, PortfolioMemberStats{});
  for (size_t rank = 0; rank < m; ++rank) {
    PortfolioMemberStats& stats = result.portfolio[rank];
    stats.name = names[rank];
    stats.ok = slots[rank].has_value() && slots[rank]->ok();
    stats.won = rank == winner;
    if (!stats.ok) continue;
    const SchedulingResult& member_result =
        rank == winner ? result : slots[rank]->value();
    stats.cost_eur = member_result.cost.total();
    stats.iterations = member_result.iterations;
    stats.nodes_visited = member_result.nodes_visited;
    stats.optimal_proven = member_result.optimal_proven;
  }
  return result;
}

}  // namespace mirabel::scheduling

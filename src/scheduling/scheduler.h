#ifndef MIRABEL_SCHEDULING_SCHEDULER_H_
#define MIRABEL_SCHEDULING_SCHEDULER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "scheduling/compiled_problem.h"
#include "scheduling/scheduling_problem.h"

namespace mirabel::scheduling {

/// Budget of one scheduling run. The metaheuristics are anytime algorithms:
/// they keep the best schedule found so far. EA stops when a limit is hit.
/// Greedy also stops by itself once its random restarts stop paying (see
/// GreedyScheduler), so for greedy both limits are ceilings, not quotas.
/// At least one of the two limits must be set: greedy and EA reject
/// options that set neither with InvalidArgument. (Branch-and-bound and
/// exhaustive search terminate on their own.)
struct SchedulerOptions {
  /// Wall-clock budget in seconds (<= 0: no time limit).
  double time_budget_s = 1.0;
  /// Max iterations (greedy: single-offer placement steps; EA:
  /// generations). <= 0: no iteration cap.
  int max_iterations = 0;
  uint64_t seed = 1;

  /// True when neither limit is set.
  bool Unbounded() const {
    return time_budget_s <= 0.0 && max_iterations <= 0;
  }
};

/// One point of the cost-over-time convergence trace (Fig. 6 plots cost in
/// EUR against elapsed scheduling time).
struct CostTracePoint {
  double time_s = 0.0;
  double best_cost_eur = 0.0;
};

/// Outcome of one portfolio member's run, reported by PortfolioScheduler
/// (portfolio_scheduler.h) through SchedulingResult::portfolio.
struct PortfolioMemberStats {
  std::string name;
  /// False when the member's run failed (its cost fields are meaningless).
  bool ok = false;
  double cost_eur = 0.0;
  int iterations = 0;
  int64_t nodes_visited = 0;
  bool optimal_proven = false;
  /// Exactly one member of a successful portfolio run wins.
  bool won = false;
};

/// Risk profile of the returned schedule when it came from a
/// RobustScheduler re-ranking pass (robust_scheduler.h).
struct RobustStats {
  /// Candidate schedules planned and re-ranked.
  int candidates = 0;
  /// Ensemble scenarios each candidate was scored on.
  int scenarios = 0;
  /// Mean scenario cost of the winning schedule (EUR).
  double expected_cost_eur = 0.0;
  /// CVaR-alpha of the winning schedule's scenario costs (EUR).
  double cvar_eur = 0.0;
  /// The ranking objective: mean + risk_weight * (CVaR - mean).
  double risk_score_eur = 0.0;
};

/// Outcome of a scheduling run.
struct SchedulingResult {
  Schedule schedule;
  ScheduleCost cost;
  int iterations = 0;
  /// Best-so-far cost improvements over time.
  std::vector<CostTracePoint> trace;
  /// True when the run proved the returned schedule optimal over the
  /// enumerable search space (start-slot combinations at fill = 1, the space
  /// the §6 optimality study explores): exhaustive enumeration that
  /// completed, or a branch-and-bound search that ran to exhaustion of its
  /// open nodes. Anytime heuristics never set it.
  bool optimal_proven = false;
  /// Branch-and-bound: search-tree nodes expanded (partial assignments
  /// descended into after the prune test, complete leaves included). Zero
  /// for schedulers without a search tree.
  int64_t nodes_visited = 0;
  /// Per-member outcomes when this result came from a portfolio race
  /// (empty otherwise).
  std::vector<PortfolioMemberStats> portfolio;
  /// Risk profile when this result came from a RobustScheduler re-ranking
  /// pass (unset otherwise, including its degenerate-ensemble delegation).
  std::optional<RobustStats> robust;
};

/// Interface of the MIRABEL scheduling algorithms (paper §6: "we used two
/// stochastic metaheuristic algorithms ... randomized greedy search and an
/// evolutionary algorithm").
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::string Name() const = 0;

  /// Solves `problem` within the budget: validates it, compiles it once
  /// and hands the compiled form to RunCompiled(). Virtual only so that a
  /// decorator around another scheduler (perfbench's TracedScheduler) can
  /// forward the whole call; schedulers implement RunCompiled().
  virtual Result<SchedulingResult> Run(const SchedulingProblem& problem,
                                       const SchedulerOptions& options) {
    MIRABEL_RETURN_IF_ERROR(problem.Validate());
    CompiledProblem compiled(problem);
    return RunCompiled(compiled, options);
  }

  /// Solves an already-compiled problem. Callers that run several
  /// schedulers or passes over one gate's problem (EdmsEngine, the
  /// portfolio and robust wrappers) compile once and share the SoA form.
  /// `compiled.source` must be non-null, already Validate()d, and outlive
  /// the call.
  virtual Result<SchedulingResult> RunCompiled(
      const CompiledProblem& compiled, const SchedulerOptions& options) = 0;
};

/// Randomized greedy search (paper §6): "constructs the schedule gradually —
/// at each step a randomly chosen flex-offer is scheduled in the best
/// possible position. This is repeated until all flex-offers have been
/// scheduled." Single-offer best-position sweeps in new random orders then
/// descend to a local optimum, from which the search restarts at a random
/// schedule; the best schedule across restarts is kept. A schedule replaces
/// the incumbent only when it is cheaper by more than 1e-9 of its cost, and
/// the run stops at the first local optimum after 2 restarts in a row that
/// did not. The iteration cap and the time budget are ceilings: a run that
/// converges inside a time budget is deterministic per seed and equals an
/// iteration-capped run with the same seed. `iterations` reports the steps
/// that ran.
class GreedyScheduler : public Scheduler {
 public:
  struct Config {
    /// Fill-level candidates evaluated per start position.
    std::vector<double> fill_candidates{0.0, 0.5, 1.0};
    /// Max start positions evaluated per offer; windows wider than this are
    /// subsampled evenly (keeps per-offer placement bounded).
    int max_start_candidates = 64;
  };
  GreedyScheduler();
  explicit GreedyScheduler(const Config& config);
  std::string Name() const override { return "GreedySearch"; }
  /// InvalidArgument when `options` are Unbounded().
  Result<SchedulingResult> RunCompiled(
      const CompiledProblem& compiled,
      const SchedulerOptions& options) override;

 private:
  Config config_;
};

/// Evolutionary algorithm (paper §6, [3]): population of candidate schedules
/// evolved by tournament selection, uniform crossover over the per-offer
/// (start, fill) genes, Gaussian/integer mutation, and elitism.
class EvolutionaryScheduler : public Scheduler {
 public:
  struct Config {
    int population_size = 30;
    int tournament_size = 3;
    double crossover_rate = 0.9;
    /// Per-gene mutation probability.
    double mutation_rate = 0.1;
    /// Start mutation: uniform step within +/- this fraction of the window.
    double start_mutation_span = 0.25;
    /// Fill mutation: Gaussian sigma.
    double fill_mutation_sigma = 0.2;
    int elites = 2;
  };
  EvolutionaryScheduler();
  explicit EvolutionaryScheduler(const Config& config);
  std::string Name() const override { return "EvolutionaryAlgorithm"; }
  /// InvalidArgument when `options` are Unbounded() or the configuration
  /// is degenerate.
  Result<SchedulingResult> RunCompiled(
      const CompiledProblem& compiled,
      const SchedulerOptions& options) override;

 private:
  Config config_;
};

/// Exhaustive enumeration over all start-time combinations, for the
/// optimality study of §6 (feasible "only if a few flex-offers need to be
/// scheduled [and] there are no flex-offer energy constraints"). Offers with
/// energy flexibility are scheduled at fill = 1. Refuses instances with more
/// than `max_combinations` candidate schedules. The enumeration honors the
/// time budget via BudgetGate: on exhaustion it returns the best schedule
/// found so far with `optimal_proven` false; a completed enumeration sets
/// `optimal_proven` true. Not registered by name (BranchAndBound proves the
/// same optimum visiting fewer nodes); it stays as the oracle that tests and
/// the optimality study compare against.
class ExhaustiveScheduler : public Scheduler {
 public:
  explicit ExhaustiveScheduler(uint64_t max_combinations = 100000000ULL);
  std::string Name() const override { return "Exhaustive"; }
  /// FailedPrecondition above the combination limit.
  Result<SchedulingResult> RunCompiled(
      const CompiledProblem& compiled,
      const SchedulerOptions& options) override;

  /// Number of start-time combinations of `problem`. The two overloads
  /// agree: the compiled form carries the same per-offer windows.
  static uint64_t CountCombinations(const SchedulingProblem& problem);
  static uint64_t CountCombinations(const CompiledProblem& cp);

 private:
  uint64_t max_combinations_;
};

// Name-based construction lives in edms::SchedulerRegistry (the scheduling
// layer only defines the algorithms; the EDMS layer owns their wiring).

}  // namespace mirabel::scheduling

#endif  // MIRABEL_SCHEDULING_SCHEDULER_H_

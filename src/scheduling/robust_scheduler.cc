#include "scheduling/robust_scheduler.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace mirabel::scheduling {

RobustScheduler::RobustScheduler() : config_() {}

RobustScheduler::RobustScheduler(Config config) : config_(std::move(config)) {}

Result<SchedulingResult> RobustScheduler::RunCompiled(
    const CompiledProblem& cp, const SchedulerOptions& options) {
  auto make_inner = [this]() -> std::unique_ptr<Scheduler> {
    if (config_.inner_factory) return config_.inner_factory();
    return std::make_unique<GreedyScheduler>();
  };

  const ScenarioEnsemble ensemble =
      config_.ensemble.has_value() ? *config_.ensemble
                                   : ScenarioEnsemble::Degenerate(
                                         cp.horizon_length);

  // Zero perturbation makes the stochastic objective the point objective, so
  // the inner scheduler already optimizes it — delegate wholesale and return
  // its result untouched (the bit-identity contract of the header).
  if (ensemble.IsDegenerate()) {
    return make_inner()->RunCompiled(cp, options);
  }

  StochasticEvaluator::Config eval_config;
  eval_config.cvar_alpha = config_.cvar_alpha;
  eval_config.executor = config_.executor.get();
  MIRABEL_ASSIGN_OR_RETURN(
      StochasticEvaluator evaluator,
      StochasticEvaluator::Create(cp, ensemble, eval_config));

  // Candidate planning problems: the point forecast, the ensemble's
  // expected baseline, then individual scenario baselines. Each candidate
  // run gets an equal slice of the budget and its own seed offset.
  int scenario_candidates =
      std::clamp(config_.scenario_candidates, 0, ensemble.num_scenarios());
  const int num_candidates = 2 + scenario_candidates;

  CompiledProblem expected = cp;
  std::vector<double> mean_delta = ensemble.MeanPerturbation();
  for (size_t s = 0; s < expected.baseline_kwh.size(); ++s) {
    expected.baseline_kwh[s] += mean_delta[s];
  }

  SchedulerOptions candidate_opts = options;
  if (options.time_budget_s > 0.0) {
    candidate_opts.time_budget_s = options.time_budget_s / num_candidates;
  }

  std::optional<SchedulingResult> best;
  StochasticCost best_cost;
  double best_score = 0.0;
  int total_iterations = 0;
  int64_t total_nodes = 0;
  Status first_error = Status::OK();
  for (int c = 0; c < num_candidates; ++c) {
    const CompiledProblem& planning_problem =
        c == 0 ? cp
        : c == 1
            ? expected
            : evaluator.scenario_problems()[static_cast<size_t>(c - 2)];
    candidate_opts.seed = options.seed + static_cast<uint64_t>(c);
    Result<SchedulingResult> run =
        make_inner()->RunCompiled(planning_problem, candidate_opts);
    if (!run.ok()) {
      if (first_error.ok()) first_error = run.status();
      continue;
    }
    SchedulingResult candidate = std::move(run.value());
    total_iterations += candidate.iterations;
    total_nodes += candidate.nodes_visited;

    MIRABEL_ASSIGN_OR_RETURN(StochasticCost stochastic,
                             evaluator.Evaluate(candidate.schedule));
    double score = stochastic.RiskScore(config_.risk_weight);
    // Strictly-lower wins; ties keep the earliest candidate (the point-
    // forecast schedule), so reruns are deterministic per seed.
    if (!best.has_value() || score < best_score) {
      best = std::move(candidate);
      best_cost = stochastic;
      best_score = score;
    }
  }
  if (!best.has_value()) {
    if (!first_error.ok()) return first_error;
    return Status::Internal("robust scheduler planned no candidate");
  }

  // The winner may have been planned on a perturbed baseline; its reported
  // cost must be the exact point cost on the real problem.
  SchedulingResult result = std::move(*best);
  ScheduleWorkspace ws(cp);
  MIRABEL_RETURN_IF_ERROR(ws.SetSchedule(cp, result.schedule));
  result.cost = ws.Cost(cp);
  result.iterations = total_iterations;
  result.nodes_visited = total_nodes;
  result.optimal_proven = false;  // point-optimality proofs do not transfer
  RobustStats stats;
  stats.candidates = num_candidates;
  stats.scenarios = ensemble.num_scenarios();
  stats.expected_cost_eur = best_cost.mean_eur;
  stats.cvar_eur = best_cost.cvar_eur;
  stats.risk_score_eur = best_score;
  result.robust = stats;
  return result;
}

}  // namespace mirabel::scheduling

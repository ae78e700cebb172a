#ifndef MIRABEL_SCHEDULING_STOCHASTIC_EVALUATOR_H_
#define MIRABEL_SCHEDULING_STOCHASTIC_EVALUATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "scheduling/compiled_problem.h"
#include "scheduling/executor.h"

namespace mirabel::scheduling {

/// One forecast-error scenario: an additive rewrite of the compiled
/// problem's per-slice baseline table. Positive baseline is a deficit
/// (SchedulingProblem::baseline_imbalance_kwh), so a positive delta_kwh[s]
/// deepens slice s's deficit and a negative one shifts it toward surplus.
struct BaselinePerturbation {
  std::vector<double> delta_kwh;
};

/// K sampled what-if baselines around one point forecast. The paper's
/// forecasts are never exact (§5 tracks forecast error explicitly); this is
/// the uncertainty layer's representation of that error: each scenario is a
/// full per-slice error curve, drawn from the forecasting layer's fitted
/// residual pool (HwtModel::residuals()) or built structurally by the
/// stress-scenario library.
///
/// The scheduling layer cannot depend on forecasting, so the ensemble takes
/// the residual pool as plain data; the EDMS layer does the gluing.
class ScenarioEnsemble {
 public:
  /// Centered bootstrap from a fitted residual pool: every slice of every
  /// scenario is an independent draw pool[i] - mean(pool) under one seeded
  /// generator, so the ensemble is mean-zero by construction and
  /// bit-reproducible per (pool, horizon, K, seed).
  static Result<ScenarioEnsemble> FromResidualPool(
      std::span<const double> residual_pool, int64_t horizon,
      int num_scenarios, uint64_t seed);

  /// Wraps structured scenario curves (the stress-scenario library builds
  /// these). All perturbations must share one non-zero length.
  static Result<ScenarioEnsemble> FromPerturbations(
      std::vector<BaselinePerturbation> perturbations);

  /// The no-uncertainty ensemble: K = 1, all-zero deltas. Under it the
  /// stochastic objective collapses to the point objective (mean = CVaR =
  /// the one scenario's cost), which is what makes RobustScheduler's
  /// degenerate path exactly the wrapped scheduler.
  static ScenarioEnsemble Degenerate(int64_t horizon);

  int num_scenarios() const { return static_cast<int>(perturbations_.size()); }
  int64_t horizon() const { return horizon_; }
  const std::vector<BaselinePerturbation>& perturbations() const {
    return perturbations_;
  }

  /// True for the K = 1 all-zero ensemble (however constructed).
  bool IsDegenerate() const;

  /// Per-slice mean of the scenario deltas, accumulated in scenario order
  /// (deterministic). The expected-baseline problem RobustScheduler plans
  /// one candidate on.
  std::vector<double> MeanPerturbation() const;

 private:
  ScenarioEnsemble() = default;

  int64_t horizon_ = 0;
  std::vector<BaselinePerturbation> perturbations_;
};

/// Distribution of a schedule's total cost across an ensemble.
struct StochasticCost {
  /// Mean scenario cost (EUR), accumulated in scenario order.
  double mean_eur = 0.0;
  /// Population variance of the scenario costs (EUR^2).
  double variance = 0.0;
  /// CVaR at the evaluator's alpha: the mean of the worst ceil(alpha * K)
  /// scenario costs. Always >= mean_eur up to float noise.
  double cvar_eur = 0.0;
  /// Worst single scenario cost (EUR).
  double worst_eur = 0.0;

  /// The risk objective RobustScheduler ranks candidates by:
  /// mean + risk_weight * (CVaR - mean). risk_weight 0 is risk-neutral;
  /// 1 ranks purely by CVaR; values between interpolate.
  double RiskScore(double risk_weight) const {
    return mean_eur + risk_weight * (cvar_eur - mean_eur);
  }
};

/// Scores candidate schedules across a ScenarioEnsemble: one perturbed copy
/// of the compiled problem and one pooled ScheduleWorkspace per scenario,
/// built once at construction, so every Evaluate() is K fused EvaluateInto
/// passes and a serial reduction — zero steady-state heap allocations on the
/// serial path (asserted by tests/stochastic_evaluator_test.cc).
///
/// The per-scenario evaluations are embarrassingly parallel and fan out
/// through the scheduling::Executor seam (the EDMS layer plugs in
/// edms::WorkerPoolExecutor to reuse the shared worker pool). Each task
/// writes only its own contiguous cost slots and the reduction always runs
/// serially in scenario order after the executor's completion barrier, so
/// parallel evaluation is bit-identical to serial. Task closures allocate;
/// the zero-allocation guarantee is serial-path only.
///
/// Not thread-safe: one evaluator per evaluating thread (the workspaces are
/// mutable state). The base problem's source must outlive the evaluator.
class StochasticEvaluator {
 public:
  struct Config {
    /// Tail mass of the CVaR objective, in (0, 1]. 0.1 averages the worst
    /// 10% of scenarios; 1.0 makes CVaR the plain mean.
    double cvar_alpha = 0.1;
    /// Scenario fan-out seam. Null evaluates serially on the caller's
    /// thread. Non-owning; must outlive the evaluator.
    Executor* executor = nullptr;
    /// Upper bound on concurrent executor tasks; scenarios are split into
    /// at most this many contiguous ranges. <= 1 forces the serial path.
    int max_parallel_tasks = 8;
  };

  /// Builds the per-scenario problems (base with baseline_kwh rewritten by
  /// each scenario's delta) and workspaces. The ensemble horizon must match
  /// base.horizon_length and the alpha must be in (0, 1].
  static Result<StochasticEvaluator> Create(const CompiledProblem& base,
                                            const ScenarioEnsemble& ensemble,
                                            const Config& config);

  /// Scores `schedule` across all scenarios. The schedule is validated once
  /// per scenario by EvaluateInto (identical validity across scenarios —
  /// perturbations touch only the baseline table, never windows/profiles).
  Result<StochasticCost> Evaluate(const Schedule& schedule);

  int num_scenarios() const { return static_cast<int>(problems_.size()); }
  double cvar_alpha() const { return config_.cvar_alpha; }

  /// The scenario problems (shared read-only with tests and RobustScheduler,
  /// which plans candidate schedules directly on them).
  const std::vector<CompiledProblem>& scenario_problems() const {
    return problems_;
  }

 private:
  StochasticEvaluator() = default;

  /// Evaluates scenarios [begin, end) into scenario_costs_, stopping at the
  /// first error.
  Status EvaluateRange(const Schedule& schedule, size_t begin, size_t end);

  Config config_;
  std::vector<CompiledProblem> problems_;
  std::vector<ScheduleWorkspace> workspaces_;
  /// Per-scenario cost slots written by the (possibly parallel) evaluation
  /// fan-out and read by the serial reduction.
  std::vector<double> scenario_costs_;
  /// Preallocated scratch for the CVaR tail selection (in-place sort).
  std::vector<double> sorted_costs_;
  /// Per-task status slots of the parallel path.
  std::vector<Status> task_statuses_;
};

}  // namespace mirabel::scheduling

#endif  // MIRABEL_SCHEDULING_STOCHASTIC_EVALUATOR_H_

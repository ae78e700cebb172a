#ifndef MIRABEL_SCHEDULING_ROBUST_SCHEDULER_H_
#define MIRABEL_SCHEDULING_ROBUST_SCHEDULER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "scheduling/executor.h"
#include "scheduling/scheduler.h"
#include "scheduling/stochastic_evaluator.h"

namespace mirabel::scheduling {

/// Uncertainty-aware wrapper around any inner anytime scheduler: plans a
/// small portfolio of candidate schedules (the point forecast, the
/// ensemble's expected baseline, and a few individual scenarios), scores
/// every candidate across the full ScenarioEnsemble with a
/// StochasticEvaluator, and returns the candidate with the lowest risk
/// objective mean + risk_weight * (CVaR - mean).
///
/// The point-optimal schedule is optimal only if the forecast is exact; the
/// paper's forecasts never are (§5). Planning against sampled forecast-error
/// scenarios trades a little expected cost for a much lighter tail — the
/// bench/uncertainty_study.cc stress scenarios quantify that trade.
///
/// Contract: under a degenerate ensemble (K = 1, zero deltas) the stochastic
/// objective equals the point objective, so RunCompiled delegates wholesale
/// to the inner scheduler and returns its result untouched — bit-identical
/// by construction (tests/robust_scheduler_test.cc asserts this).
///
/// Implements Scheduler, so it races as a PortfolioScheduler member and
/// registers in the EDMS SchedulerRegistry ("Robust") like any other
/// algorithm. Deterministic per (problem, ensemble, options.seed).
class RobustScheduler : public Scheduler {
 public:
  struct Config {
    /// Fresh inner scheduler per candidate run. Null resolves to
    /// GreedyScheduler.
    std::function<std::unique_ptr<Scheduler>()> inner_factory;
    /// Forecast-error ensemble the candidates are scored on. Unset resolves
    /// to the degenerate ensemble (pure delegation to the inner scheduler).
    std::optional<ScenarioEnsemble> ensemble;
    /// CVaR tail mass, in (0, 1].
    double cvar_alpha = 0.25;
    /// Weight of the tail term in the ranking objective; 0 is risk-neutral,
    /// 1 ranks purely by CVaR.
    double risk_weight = 0.5;
    /// Candidates planned on individual scenario baselines (on top of the
    /// point-forecast and expected-baseline candidates). Capped at the
    /// ensemble size.
    int scenario_candidates = 2;
    /// Fan-out seam for the per-scenario evaluations; null is serial.
    std::shared_ptr<Executor> executor;
  };

  RobustScheduler();
  explicit RobustScheduler(Config config);
  std::string Name() const override { return "Robust"; }

  /// Plans the candidates (budget split evenly across the serial candidate
  /// runs; seeds options.seed, +1, +2...), re-ranks them on the ensemble and
  /// returns the risk winner with its cost recomputed exactly on the base
  /// problem. Ties resolve to the earliest candidate, so the run is
  /// deterministic per seed. Fills SchedulingResult::robust; iterations and
  /// nodes_visited aggregate across all candidate runs.
  Result<SchedulingResult> RunCompiled(
      const CompiledProblem& compiled,
      const SchedulerOptions& options) override;

 private:
  Config config_;
};

}  // namespace mirabel::scheduling

#endif  // MIRABEL_SCHEDULING_ROBUST_SCHEDULER_H_

#include "common/stopwatch.h"
#include "scheduling/compiled_problem.h"
#include "scheduling/scheduler.h"

namespace mirabel::scheduling {

ExhaustiveScheduler::ExhaustiveScheduler(uint64_t max_combinations)
    : max_combinations_(max_combinations) {}

namespace {

/// Saturating product step shared by both CountCombinations overloads, so
/// the count callers see on the source problem and the limit RunCompiled()
/// enforces cannot drift apart.
uint64_t AccumulateCombos(uint64_t combos, uint64_t window) {
  if (combos > UINT64_MAX / window) return UINT64_MAX;
  return combos * window;
}

}  // namespace

uint64_t ExhaustiveScheduler::CountCombinations(
    const SchedulingProblem& problem) {
  uint64_t combos = 1;
  for (const auto& fo : problem.offers) {
    combos = AccumulateCombos(combos,
                              static_cast<uint64_t>(fo.TimeFlexibility()) + 1);
  }
  return combos;
}

uint64_t ExhaustiveScheduler::CountCombinations(const CompiledProblem& cp) {
  // cp.latest_start[i] - cp.earliest_start[i] is TimeFlexibility() of the
  // source offer, so the two overloads agree by construction.
  uint64_t combos = 1;
  for (size_t i = 0; i < cp.num_offers; ++i) {
    combos = AccumulateCombos(
        combos,
        static_cast<uint64_t>(cp.latest_start[i] - cp.earliest_start[i]) + 1);
  }
  return combos;
}

Result<SchedulingResult> ExhaustiveScheduler::RunCompiled(
    const CompiledProblem& cp, const SchedulerOptions& options) {
  uint64_t combos = CountCombinations(cp);
  if (combos > max_combinations_) {
    return Status::FailedPrecondition(
        "instance has " + std::to_string(combos) +
        " start combinations, above the exhaustive limit");
  }

  Stopwatch watch;
  ScheduleWorkspace ws(cp);
  const size_t n = cp.num_offers;

  // Start all offers at their earliest start, fill = 1 (the exhaustive
  // baseline is defined for offers without energy constraints; for offers
  // with energy flexibility the maximum profile is used) — exactly the
  // workspace's default schedule.
  SchedulingResult result;
  ws.ExportSchedule(&result.schedule);
  double best_cost = ws.Cost(cp).total();
  result.trace.push_back({watch.ElapsedSeconds(), best_cost});
  result.iterations = 1;

  // Odometer enumeration over the start windows, applying single-offer moves
  // incrementally so each step is O(profile length). The budget gate
  // amortizes the per-combination clock read; on exhaustion the enumeration
  // stops and the incumbent is returned (anytime, like the metaheuristics) —
  // only a completed sweep proves optimality.
  bool enumerated_all = false;
  BudgetGate gate(watch, options.time_budget_s);
  std::vector<int64_t> offsets(n, 0);
  while (true) {
    if (gate.Exhausted()) break;
    // Advance the odometer.
    size_t d = 0;
    while (d < n) {
      const int64_t window = cp.latest_start[d] - cp.earliest_start[d];
      if (offsets[d] < window) {
        ++offsets[d];
        ws.ApplyMove(cp, d, cp.earliest_start[d] + offsets[d], ws.fill(d));
        break;
      }
      offsets[d] = 0;
      ws.ApplyMove(cp, d, cp.earliest_start[d], ws.fill(d));
      ++d;
    }
    if (d == n) {  // odometer wrapped: all combinations visited
      enumerated_all = true;
      break;
    }

    ++result.iterations;
    double cost = ws.Cost(cp).total();
    if (cost < best_cost - 1e-12) {
      best_cost = cost;
      ws.ExportSchedule(&result.schedule);
      result.trace.push_back({watch.ElapsedSeconds(), best_cost});
    }
  }

  // Final full recompute of the incumbent, as the pre-kernel version did
  // with a fresh evaluator.
  result.optimal_proven = enumerated_all;
  MIRABEL_RETURN_IF_ERROR(ws.SetSchedule(cp, result.schedule));
  result.cost = ws.Cost(cp);
  return result;
}

}  // namespace mirabel::scheduling

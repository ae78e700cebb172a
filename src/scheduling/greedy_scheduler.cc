#include <algorithm>
#include <numeric>
#include <span>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "scheduling/compiled_problem.h"
#include "scheduling/scheduler.h"

namespace mirabel::scheduling {

namespace {

using flexoffer::TimeSlice;

/// Flattened per-offer start-candidate lists: offer i's candidates are
/// starts[offsets[i] .. offsets[i + 1]). Built once per run (the windows do
/// not change), replacing the pre-kernel per-offer-per-pass vector
/// allocation. Candidates evenly cover each window, capped at
/// `max_candidates` per offer, deduplicated like the old StartCandidates().
struct StartCandidateTable {
  std::vector<TimeSlice> starts;
  std::vector<size_t> offsets;

  StartCandidateTable(const CompiledProblem& cp, int max_candidates) {
    offsets.reserve(cp.num_offers + 1);
    offsets.push_back(0);
    for (size_t i = 0; i < cp.num_offers; ++i) {
      const int64_t window = cp.latest_start[i] - cp.earliest_start[i];
      const size_t before = starts.size();
      if (max_candidates <= 0) {
        // No candidates at all — the offer is never moved (matches the
        // pre-kernel generator, whose subsample loop was empty here).
      } else if (max_candidates == 1 && window >= 1) {
        // Degenerate cap: earliest start only (the pre-kernel generator
        // divided by max_candidates - 1 here).
        starts.push_back(cp.earliest_start[i]);
      } else if (window < max_candidates) {
        for (int64_t d = 0; d <= window; ++d) {
          starts.push_back(cp.earliest_start[i] + d);
        }
      } else {
        for (int i_c = 0; i_c < max_candidates; ++i_c) {
          int64_t d = window * i_c / (max_candidates - 1);
          starts.push_back(cp.earliest_start[i] + d);
        }
        starts.erase(std::unique(starts.begin() + static_cast<int64_t>(before),
                                 starts.end()),
                     starts.end());
      }
      offsets.push_back(starts.size());
    }
  }

  std::span<const TimeSlice> of(size_t i) const {
    return {starts.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
};

}  // namespace

GreedyScheduler::GreedyScheduler() : GreedyScheduler(Config()) {}

GreedyScheduler::GreedyScheduler(const Config& config) : config_(config) {}

Result<SchedulingResult> GreedyScheduler::Run(const SchedulingProblem& problem,
                                              const SchedulerOptions& options) {
  MIRABEL_RETURN_IF_ERROR(problem.Validate());
  CompiledProblem compiled(problem);
  return RunCompiled(compiled, options);
}

Result<SchedulingResult> GreedyScheduler::RunCompiled(
    const CompiledProblem& cp, const SchedulerOptions& options) {
  Stopwatch watch;
  Rng rng(options.seed);

  ScheduleWorkspace ws(cp);  // starts on the default schedule
  SchedulingResult result;
  ws.ExportSchedule(&result.schedule);
  double best_cost = ws.Cost(cp).total();
  result.trace.push_back({watch.ElapsedSeconds(), best_cost});
  if (cp.num_offers == 0) {
    result.cost = ws.Cost(cp);
    return result;
  }

  // All buffers of the steady-state scan are sized here, before the loop:
  // per-offer start candidates, the current-assignment energy vector, one
  // energy vector per fill candidate, and the restart assignment arrays.
  // The scan itself performs no heap allocations.
  const StartCandidateTable candidates(cp, config_.max_start_candidates);
  // The kernel scan applies candidates unchecked, so infeasible configured
  // fills are dropped here once — the pre-kernel path rejected them per
  // TryMove call (OutOfRange), which skipped them with the same outcome.
  std::vector<double> fill_candidates;
  fill_candidates.reserve(config_.fill_candidates.size());
  for (double fill : config_.fill_candidates) {
    if (fill >= 0.0 && fill <= 1.0) fill_candidates.push_back(fill);
  }
  const size_t num_fills = fill_candidates.size();
  const size_t dur_cap = static_cast<size_t>(cp.max_duration);
  std::vector<double> e_cur(dur_cap);
  std::vector<double> e_fill(num_fills * dur_cap);
  std::vector<TimeSlice> restart_starts(cp.num_offers);
  std::vector<double> restart_fills(cp.num_offers);

  BudgetGate gate(watch, options.time_budget_s);
  auto out_of_budget = [&]() {
    if (gate.Exhausted()) return true;
    if (options.max_iterations > 0 &&
        result.iterations >= options.max_iterations) {
      return true;
    }
    return false;
  };

  // Greedy pass over all offers in a random order: each offer is moved to
  // its best position given the rest of the schedule. The first pass is the
  // paper's construction; later passes act as improvement sweeps / restarts.
  std::vector<size_t> order(cp.num_offers);
  std::iota(order.begin(), order.end(), 0);

  bool first_pass = true;
  while (!out_of_budget()) {
    rng.Shuffle(&order);
    bool improved_any = false;
    for (size_t index : order) {
      if (out_of_budget()) break;
      const int64_t dur = cp.duration[index];
      std::span<const double> cur{e_cur.data(), static_cast<size_t>(dur)};
      ws.ComputeEnergies(cp, index, ws.fill(index), e_cur);
      for (size_t f = 0; f < num_fills; ++f) {
        ws.ComputeEnergies(cp, index, fill_candidates[f],
                           {e_fill.data() + f * dur_cap, dur_cap});
      }
      TimeSlice best_start = ws.start(index);
      double best_fill = ws.fill(index);
      double best_delta = 0.0;
      // Same candidate order as the pre-kernel scan (starts outer, fills
      // inner) so tie-breaking — first candidate past the 1e-12 margin wins
      // — is unchanged. The energy vectors above are computed once per
      // (offer, fill) and reused across every start.
      for (TimeSlice start : candidates.of(index)) {
        for (size_t f = 0; f < num_fills; ++f) {
          std::span<const double> e_new{e_fill.data() + f * dur_cap,
                                        static_cast<size_t>(dur)};
          double delta = ws.TryMoveWithEnergies(cp, index, start, cur, e_new);
          if (delta < best_delta - 1e-12) {
            best_delta = delta;
            best_start = start;
            best_fill = fill_candidates[f];
          }
        }
      }
      if (best_delta < 0.0) {
        ws.ApplyMove(cp, index, best_start, best_fill);
        improved_any = true;
      }
      ++result.iterations;
    }
    double cost = ws.Cost(cp).total();
    if (cost < best_cost - 1e-12) {
      best_cost = cost;
      ws.ExportSchedule(&result.schedule);
      result.trace.push_back({watch.ElapsedSeconds(), best_cost});
    }
    if (!improved_any && !first_pass) {
      // Local optimum: random restart (keep the incumbent in `result`).
      for (size_t i = 0; i < cp.num_offers; ++i) {
        restart_starts[i] =
            cp.earliest_start[i] +
            rng.UniformInt(0, cp.latest_start[i] - cp.earliest_start[i]);
        restart_fills[i] = rng.NextDouble();
      }
      ws.SetAssignmentsUnchecked(cp, restart_starts, restart_fills);
    }
    first_pass = false;
  }

  // Final full recompute of the incumbent, exactly like the pre-kernel
  // fresh-evaluator pass.
  MIRABEL_RETURN_IF_ERROR(ws.SetSchedule(cp, result.schedule));
  result.cost = ws.Cost(cp);
  return result;
}

}  // namespace mirabel::scheduling

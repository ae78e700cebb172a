#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "scheduling/compiled_problem.h"
#include "scheduling/scheduler.h"

namespace mirabel::scheduling {

namespace {

using flexoffer::TimeSlice;

/// A schedule replaces the incumbent only when it is cheaper by more than
/// this fraction of the incumbent's cost. Two descents to the same schedule
/// can end a few ULPs apart, because the cost is updated incrementally, and
/// an absolute margin (1e-12 EUR) is at or below one ULP of a 1e4-1e5 EUR
/// gate cost. On perfbench's workloads (seeds 1, 7, 201) every post-restart
/// replacement but one was such drift (<= 4e-16 relative); the one real
/// late gain, in hierarchy_3level at seed 7, was 4.2e-6 relative.
constexpr double kMinRelativeGain = 1e-9;

/// The run stops at the first local optimum after this many random restarts
/// in a row whose descents did not beat the incumbent by kMinRelativeGain.
/// On perfbench's workloads a run found its final incumbent at iteration 121
/// of 2,048 (brp_rolling) and 32 of 1,024 (hierarchy_3level) on average.
/// Stopping after 2 fruitless restarts kept brp_rolling byte-identical at
/// seeds 1, 7 and 201, moved hierarchy_3level's cost by at most 3.4e-10
/// EUR, and cut brp_rolling's iterations per run from 2,048 to 161. The
/// trade: on MakeScenario's default problem with a 10^6-iteration cap
/// (scheduler seeds 1-5), restarting until the cap kept finding real gains
/// late into the run; this rule stops 0.04-0.12% (60 offers), 0.08-1.8%
/// (100) and 0.01-0.05% (1,000) above those results, after 1,020-31,000
/// iterations.
constexpr int kMaxFruitlessRestarts = 2;

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

Result<SchedulingResult> GreedyScheduler::RunCompiled(
    const CompiledProblem& cp, const SchedulerOptions& options) {
  if (options.Unbounded()) {
    return Status::InvalidArgument(
        "greedy search needs a time budget or an iteration cap");
  }
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
  // per-offer start candidates, one delta per (start, fill) candidate of the
  // widest candidate list, and the restart assignment arrays. The scan
  // itself performs no heap allocations.
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
  size_t max_starts = 0;
  for (size_t i = 0; i < cp.num_offers; ++i) {
    max_starts = std::max(max_starts, candidates.of(i).size());
  }
  std::vector<double> deltas(max_starts * num_fills);
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
  // paper's construction; later passes descend to a local optimum, from
  // which the search restarts at a random schedule until the restarts stop
  // paying (kMaxFruitlessRestarts) or a limit is hit.
  std::vector<size_t> order(cp.num_offers);
  std::iota(order.begin(), order.end(), 0);

  bool first_pass = true;
  // Restarts since the incumbent last improved.
  int fruitless_restarts = 0;
  while (!out_of_budget()) {
    rng.Shuffle(&order);
    bool improved_any = false;
    for (size_t index : order) {
      if (out_of_budget()) break;
      const std::span<const TimeSlice> starts = candidates.of(index);
      ws.ScanMoves(cp, index, starts, fill_candidates,
                   std::span<double>(deltas).first(starts.size() * num_fills));
      TimeSlice best_start = ws.start(index);
      double best_fill = ws.fill(index);
      double best_delta = 0.0;
      // Same candidate order as the pre-kernel scan (starts outer, fills
      // inner) so tie-breaking — first candidate past the 1e-12 margin wins
      // — is unchanged.
      for (size_t c = 0; c < starts.size(); ++c) {
        for (size_t f = 0; f < num_fills; ++f) {
          const double delta = deltas[c * num_fills + f];
          if (delta < best_delta - 1e-12) {
            best_delta = delta;
            best_start = starts[c];
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
    if (cost < best_cost - kMinRelativeGain * std::abs(best_cost)) {
      best_cost = cost;
      ws.ExportSchedule(&result.schedule);
      result.trace.push_back({watch.ElapsedSeconds(), best_cost});
      fruitless_restarts = 0;
    }
    if (!improved_any && !first_pass) {
      // Local optimum: stop once the restarts stop paying, else restart at
      // random (the incumbent stays in `result`).
      if (fruitless_restarts == kMaxFruitlessRestarts) break;
      ++fruitless_restarts;
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

#ifndef MIRABEL_SCHEDULING_COMPILED_PROBLEM_H_
#define MIRABEL_SCHEDULING_COMPILED_PROBLEM_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "scheduling/scheduling_problem.h"

namespace mirabel::scheduling {

/// A SchedulingProblem preprocessed once into flat structure-of-arrays form,
/// the read-only half of the scheduling kernel. The §6 metaheuristics are
/// anytime algorithms — candidate-evaluation throughput *is* schedule
/// quality — so the hot loops must not chase FlexOffer pointers or re-derive
/// per-band values. Layout:
///
///   per offer i (parallel arrays, length num_offers):
///     earliest_start[i] latest_start[i] duration[i] unit_price_eur[i]
///     profile_offset[i]  -- index of the offer's first band, below
///   flattened profile bands (length profile_offset[num_offers]):
///     min_kwh[]  flex_kwh[]          (flex = max - min per band)
///   per horizon slice s (parallel arrays, length horizon_length):
///     baseline_kwh[s] penalty_eur[s] buy_price_eur[s] sell_price_eur[s]
///
/// The slice energy of offer i at profile position j under fill level f is
///   min_kwh[profile_offset[i] + j] + f * flex_kwh[profile_offset[i] + j]
/// — bit-identical to ReferenceCostEvaluator::SliceEnergy on the source
/// offer.
///
/// The source problem must outlive the compiled form
/// (ScheduleWorkspace::ExportScheduledOffers reads its offer ids).
struct CompiledProblem {
  CompiledProblem() = default;
  /// Compiles `problem`, which must outlive this object and must already be
  /// Validate()d.
  explicit CompiledProblem(const SchedulingProblem& problem);

  flexoffer::TimeSlice horizon_start = 0;
  int64_t horizon_length = 0;
  size_t num_offers = 0;
  /// Longest offer profile; sizes the workspace scratch buffers.
  int64_t max_duration = 0;

  std::vector<flexoffer::TimeSlice> earliest_start;
  std::vector<flexoffer::TimeSlice> latest_start;
  std::vector<int64_t> duration;
  std::vector<double> unit_price_eur;
  /// length num_offers + 1; profile_offset[i]..profile_offset[i+1] indexes
  /// offer i's bands in min_kwh / flex_kwh.
  std::vector<size_t> profile_offset;

  std::vector<double> min_kwh;
  std::vector<double> flex_kwh;

  std::vector<double> baseline_kwh;
  std::vector<double> penalty_eur;
  std::vector<double> buy_price_eur;
  std::vector<double> sell_price_eur;
  double max_buy_kwh = 0.0;
  double max_sell_kwh = 0.0;

  const SchedulingProblem* source = nullptr;

  /// Slice energy of offer `i` at profile position `j` under fill `fill`.
  double SliceEnergy(size_t i, int64_t j, double fill) const {
    size_t b = profile_offset[i] + static_cast<size_t>(j);
    return min_kwh[b] + fill * flex_kwh[b];
  }
};

/// Combined imbalance + market cost of slice `s` if its net residual were
/// `residual`: the closed-form per-slice market response (buy while the buy
/// price undercuts the penalty, sell surplus while the sell price is
/// positive, caps applied). This is the exact expression the workspace's
/// slice-cost cache evaluates — exposed as a free function so bound
/// computations (the branch-and-bound scheduler) can price hypothetical
/// residuals without a workspace. As a function of `residual` it is convex
/// piecewise-linear with breakpoints at -max_sell_kwh, 0 and max_buy_kwh
/// (for the usual price ordering sell <= buy <= penalty).
/// Defined inline so the candidate scan's hot loop can inline it.
inline double SliceResidualCost(const CompiledProblem& cp, size_t s,
                                double residual) {
  const double penalty = cp.penalty_eur[s];
  if (residual > 0.0) {
    const double price = cp.buy_price_eur[s];
    double bought = 0.0;
    if (price < penalty) {
      bought = std::min(residual, cp.max_buy_kwh);
    }
    return bought * price + (residual - bought) * penalty;
  }
  if (residual < 0.0) {
    const double price = cp.sell_price_eur[s];
    double surplus = -residual;
    double sold =
        price >= 0.0 ? std::min(surplus, cp.max_sell_kwh) : 0.0;
    return -sold * price + (surplus - sold) * penalty;
  }
  return 0.0;
}

/// Always false: the kernel has no ISA-dispatched code path. The
/// benchmark's run record (perfbench/src/main.cc) still reports it.
inline bool FastKernelUsesAvx2() { return false; }

/// The mutable half of the kernel: one candidate schedule plus every derived
/// quantity the cost model needs, with all buffers allocated up front so the
/// steady-state evaluate / ScanMoves / ApplyMove loop performs zero heap
/// allocations (asserted by tests/scheduling_kernel_test.cc with a counting
/// global operator new).
///
/// Cached state per slice s:
///   net_kwh[s]             baseline + scheduled flex (pre-market residual)
///   slice_imbalance_eur[s] penalty cost of the residual after market trades
///   slice_market_eur[s]    signed market cash flow of the slice
/// plus the running flex-activation total. The per-slice caches are pure
/// functions of net_kwh[s], refreshed whenever a slice's net load changes, so
/// Cost() is a branch-free sum and a candidate scan charges each touched
/// slice's *current* cost from the cache instead of recomputing it per
/// candidate.
///
/// Every arithmetic expression matches the pre-kernel evaluator term for
/// term and in evaluation order, so schedules, costs and deltas are
/// bit-identical to the pre-kernel implementation (the equivalence oracle in
/// src/scheduling/reference_evaluator.h enforces this in tests).
class ScheduleWorkspace {
 public:
  /// Allocates all buffers for `cp`. The workspace starts on the default
  /// schedule (every offer at its earliest start, fill = 1).
  explicit ScheduleWorkspace(const CompiledProblem& cp);

  /// Re-binds nothing; recomputes the default schedule from scratch.
  void ResetToDefault(const CompiledProblem& cp);

  /// Replaces the schedule after validating it (InvalidArgument on a wrong
  /// assignment count, OutOfRange on a start outside its window or a fill
  /// outside [0, 1]); full single-pass recompute.
  Status SetSchedule(const CompiledProblem& cp, const Schedule& schedule);

  /// Replaces the schedule without validation; full single-pass recompute.
  void SetAssignmentsUnchecked(const CompiledProblem& cp,
                               std::span<const flexoffer::TimeSlice> starts,
                               std::span<const double> fills);

  /// Fused EA child evaluation "into" this (pooled) workspace: validates
  /// `schedule`, replaces the state in one pass and returns the total cost.
  /// This is the kernel replacement for the old EvaluateTotal scratch
  /// evaluator — no construction, no double accumulation, no allocation.
  Result<double> EvaluateInto(const CompiledProblem& cp,
                              const Schedule& schedule);

  /// Cost deltas of moving offer `i` to every (start, fill) candidate,
  /// leaving state untouched: `deltas[c * fills.size() + f]` is the delta of
  /// (starts[c], fills[f]). Every candidate must be feasible (validated by
  /// the caller / candidate generator) and `deltas` must hold
  /// starts.size() * fills.size() entries. Each delta is bit-identical to the
  /// pre-kernel single-move delta: the same terms by the same expressions in
  /// the same order (union slices ascending, then activation terms by profile
  /// position). Only the work that no candidate changes is shared, once per
  /// call: the removal residuals net - e_cur, the cost terms of slices the
  /// offer would only leave, and the per-fill energies and activation terms.
  void ScanMoves(const CompiledProblem& cp, size_t i,
                 std::span<const flexoffer::TimeSlice> starts,
                 std::span<const double> fills,
                 std::span<double> deltas) const;

  /// Cost delta of moving offer `i` to (start, fill): the one-start,
  /// one-fill case of ScanMoves.
  double TryMove(const CompiledProblem& cp, size_t i,
                 flexoffer::TimeSlice start, double fill) const;

  /// Applies a feasible move and refreshes the touched slice caches.
  void ApplyMove(const CompiledProblem& cp, size_t i,
                 flexoffer::TimeSlice start, double fill);

  /// Cost breakdown of the current schedule (sum of the per-slice caches in
  /// slice order — bit-identical to the pre-kernel full sweep).
  ScheduleCost Cost(const CompiledProblem& cp) const;

  /// Writes the current assignments into `out` (reuses its capacity).
  void ExportSchedule(Schedule* out) const;

  /// Converts the current schedule into per-offer scheduled flex-offers
  /// (ids from cp.source). Cold path; allocates the result.
  std::vector<flexoffer::ScheduledFlexOffer> ExportScheduledOffers(
      const CompiledProblem& cp) const;

  flexoffer::TimeSlice start(size_t i) const { return starts_[i]; }
  double fill(size_t i) const { return fills_[i]; }
  const std::vector<double>& net_kwh() const { return net_kwh_; }
  double flex_activation_eur() const { return flex_activation_eur_; }

 private:
  /// Adds (+1) / removes (-1) offer i's assignment from net load and
  /// activation cost, without touching the slice-cost caches.
  void Accumulate(const CompiledProblem& cp, size_t i,
                  flexoffer::TimeSlice start, double fill, double sign);

  /// Validates `schedule` (same checks and Status codes as the pre-kernel
  /// SetSchedule) and copies it into starts_/fills_ in the same pass.
  Status ValidateAndCopy(const CompiledProblem& cp, const Schedule& schedule);

  /// Rebuilds net_kwh_ and flex_activation_eur_ from starts_/fills_ with a
  /// register-resident activation accumulator (same accumulation order as
  /// offer-by-offer Accumulate calls, so bit-identical).
  void RecomputeNet(const CompiledProblem& cp);

  /// Refreshes every slice-cost cache entry and clears costs_dirty_.
  void RefreshAllSliceCosts(const CompiledProblem& cp) const;

  /// Lazily refreshes the caches after an EvaluateInto left them stale.
  void EnsureSliceCosts(const CompiledProblem& cp) const {
    if (costs_dirty_) RefreshAllSliceCosts(cp);
  }

  /// Recomputes slice_imbalance_eur / slice_market_eur for slice s from
  /// net_kwh[s]. Exactly the pre-kernel Cost() per-slice branch.
  void RefreshSliceCost(const CompiledProblem& cp, size_t s) const;

  /// Full recompute from the current starts_/fills_ arrays.
  void Recompute(const CompiledProblem& cp);

  std::vector<flexoffer::TimeSlice> starts_;
  std::vector<double> fills_;
  std::vector<double> net_kwh_;
  /// The slice-cost caches are logically derived state: EvaluateInto leaves
  /// them stale (costs_dirty_) and the next cache consumer refreshes them,
  /// so a pooled workspace that only ever evaluates children never pays for
  /// them. Mutable for exactly that lazy refresh.
  mutable std::vector<double> slice_imbalance_eur_;
  mutable std::vector<double> slice_market_eur_;
  /// Combined cost of each slice at its current residual. Stored as its own
  /// array (not slice_market + slice_imbalance) so the value carries the
  /// same expression shape as SliceResidualCost — on targets where the
  /// compiler contracts a*b + c*d into an FMA, summing the two cached halves
  /// would differ in the last ulp.
  mutable std::vector<double> slice_cost_eur_;
  mutable bool costs_dirty_ = false;
  double flex_activation_eur_ = 0.0;
  /// ScanMoves scratch, sized once from cp.max_duration: per profile
  /// position j of the scanned offer, |e_cur[j]|, the removal residual
  /// net - e_cur and the cost delta of leaving that slice; per fill of one
  /// chunk, the candidate energies and activation terms.
  mutable std::vector<double> abs_cur_scratch_;
  mutable std::vector<double> removal_scratch_;
  mutable std::vector<double> leave_delta_scratch_;
  mutable std::vector<double> e_new_scratch_;
  mutable std::vector<double> activation_scratch_;
};

}  // namespace mirabel::scheduling

#endif  // MIRABEL_SCHEDULING_COMPILED_PROBLEM_H_

#ifndef MIRABEL_SCHEDULING_BNB_SCHEDULER_H_
#define MIRABEL_SCHEDULING_BNB_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "scheduling/compiled_problem.h"
#include "scheduling/scheduler.h"

namespace mirabel::scheduling {

/// Incremental lower bound of the branch-and-bound scheduler, exposed as its
/// own class so tests can probe bound soundness at arbitrary tree nodes.
///
/// The search fixes start slots for a prefix of `order` (fill = 1, the
/// exhaustive-study search space); the bound must under-estimate the kernel
/// cost of EVERY completion of that prefix. It is built from two exact
/// ingredients plus one relaxation:
///
///  * Activation is a constant: at fill = 1 an offer's activation cost
///    `unit * sum_j |e_j|` does not depend on its start, so the activation
///    term of every node equals `act_total_`.
///  * Per-slice residual intervals: `net_[s]` carries baseline plus the
///    assigned prefix; `suffix_min/max_[d][s]` carry the least / greatest
///    contribution the unassigned suffix `order[d..n)` can make to slice `s`
///    (including 0 when an offer can be placed to avoid the slice). The
///    suffix tables are precomputed per depth, so descending/backtracking
///    never accumulates floating-point drift in them; `net_` is restored
///    from a value trail on Pop(), not by subtraction, for the same reason.
///  * Each slice is bounded from below: SliceResidualCost is piecewise
///    linear in the residual with breakpoints at -max_sell, 0 and max_buy,
///    so its minimum over the residual interval is attained at an interval
///    endpoint or an interior breakpoint — O(1) per slice.
///  * Energy conservation ties the slices back together: every completion's
///    residuals sum to the same fixed total (baseline plus all offer energy
///    at fill = 1), while the per-slice minimizers usually do not. The
///    deficit must be paid for along the slices' linear pieces, and charging
///    it against the globally cheapest slopes (a separable allocation
///    relaxation, greedy over exact PL pieces) is a sound correction that
///    makes the bound strong enough to actually prune: without it every
///    slice pretends its residual independently reaches the cheapest point.
///
/// LowerBound() = act_total_ + sum_s min-slice-terms + conservation
/// correction, minus a relative safety slack (~1e-9) that covers the
/// ulp-level difference between this accumulation and the kernel's own
/// evaluation order, so the bound never exceeds the true kernel cost of any
/// completion.
class BnbBound {
 public:
  /// `cp` must outlive the bound. `order` is the assignment order of the
  /// search (a permutation of [0, cp.num_offers)).
  BnbBound(const CompiledProblem& cp, std::vector<size_t> order);

  /// Fixes offer `order[depth()]` at `start` (fill = 1) and updates the
  /// bound over the offer's reachable slices.
  void Push(flexoffer::TimeSlice start);

  /// Undoes the most recent Push() exactly (value-trail restore).
  void Pop();

  /// Lower bound on the kernel cost of every completion of the current
  /// prefix (at fill = 1 for the unassigned offers).
  double LowerBound() const;

  /// Exact slice-cost sweep of the complete assignment; requires
  /// depth() == num_offers.
  double LeafCost() const;

  size_t depth() const { return depth_; }
  const std::vector<size_t>& order() const { return order_; }

 private:
  /// Minimum of SliceResidualCost(s, r) over r in [lo, hi]; *argmin gets the
  /// minimizing residual (needed by the conservation correction).
  double MinSliceTerm(size_t s, double lo, double hi, double* argmin) const;

  const CompiledProblem* cp_;
  std::vector<size_t> order_;
  size_t depth_ = 0;
  size_t horizon_ = 0;

  /// Flattened (num_offers + 1) x horizon tables: row d is the summed
  /// min/max possible contribution of the unassigned suffix order[d..n).
  std::vector<double> suffix_min_;
  std::vector<double> suffix_max_;
  /// Start-independent activation total at fill = 1.
  double act_total_ = 0.0;
  /// Fixed residual total of every completion: sum of baseline plus every
  /// offer's full profile energy at fill = 1.
  double total_energy_ = 0.0;

  /// Baseline plus the assigned prefix, per slice.
  std::vector<double> net_;
  /// Per-slice bound term at the current node; sum_ is their running sum.
  std::vector<double> slice_term_;
  /// Residual minimizing slice s's cost within its current interval.
  std::vector<double> slice_argmin_;
  double sum_ = 0.0;

  struct TrailEntry {
    uint32_t slice;
    double net;
    double term;
    double argmin;
  };
  /// One exact linear piece of a slice's cost away from its minimizer;
  /// LowerBound() scratch for the conservation correction.
  struct Segment {
    double slope;
    double capacity;
  };
  mutable std::vector<Segment> segments_;
  struct LevelFrame {
    size_t trail_begin;
    double saved_sum;
  };
  std::vector<TrailEntry> trail_;
  std::vector<LevelFrame> frames_;
};

/// Branch-and-bound search over start-slot assignments on the compiled
/// kernel — the optimal scheduler the §6 optimality study lacked: it proves
/// optimality over the same space the exhaustive odometer enumerates
/// (start combinations at fill = 1) while pruning with BnbBound instead of
/// visiting every combination.
///
/// Depth-first search, offers ordered by ascending time flexibility (the
/// most constrained offers branch first, collapsing the residual intervals
/// early); children of a node are probed, sorted by their lower bound and
/// expanded best-first; a child whose bound cannot improve the incumbent by
/// more than the 1e-12 acceptance margin is pruned. The initial incumbent
/// comes from a configurable warm-start scheduler (the fallback-scheduler
/// idiom; default: randomized greedy) which also receives a share of the
/// budget, and the deadline is honored via BudgetGate: on expiry the best
/// incumbent is returned with `optimal_proven` false.
///
/// Note the proof is relative to the fill = 1 search space: a warm-start
/// incumbent that used intermediate fill levels may beat every fill = 1
/// schedule, in which case it survives and `optimal_proven` means "no start
/// combination at fill 1 improves on it".
class BranchAndBoundScheduler : public Scheduler {
 public:
  struct Config {
    /// Warm-start scheduler factory; null resolves to GreedyScheduler.
    std::function<std::unique_ptr<Scheduler>()> warm_start;
    /// Share of the budget (time or iterations) given to the warm start.
    double warm_start_share = 0.15;
  };

  BranchAndBoundScheduler();
  explicit BranchAndBoundScheduler(const Config& config);
  std::string Name() const override { return "BranchAndBound"; }
  /// `options.max_iterations` (when > 0) caps expanded search nodes after
  /// the warm start's share, keeping iteration-capped runs deterministic.
  /// Unbounded() options give the warm start one bounded pass and run the
  /// search to proven optimality.
  Result<SchedulingResult> RunCompiled(
      const CompiledProblem& compiled,
      const SchedulerOptions& options) override;

 private:
  Config config_;
};

}  // namespace mirabel::scheduling

#endif  // MIRABEL_SCHEDULING_BNB_SCHEDULER_H_

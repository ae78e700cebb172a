#include "scheduling/bnb_scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>

#include "common/stopwatch.h"

namespace mirabel::scheduling {

namespace {

/// Relative safety slack subtracted from the lower bound: the bound's
/// interval argument is exact in real arithmetic but its accumulation order
/// differs from the kernel's, so without slack a bound could exceed the true
/// kernel cost by a few ulps and prune the optimum. 1e-9 relative is ~1000x
/// the observed ulp noise and ~1000x smaller than the 1e-12-margin cost
/// differences the search is asked to distinguish... in relative terms it
/// sits safely between the two scales for EUR-magnitude costs.
constexpr double kBoundSlackRel = 1e-9;

/// Acceptance margin of the incumbent, matching ExhaustiveScheduler's
/// `cost < best - 1e-12` so both searches agree on which improvements count.
constexpr double kAcceptMargin = 1e-12;

}  // namespace

BnbBound::BnbBound(const CompiledProblem& cp, std::vector<size_t> order)
    : cp_(&cp),
      order_(std::move(order)),
      horizon_(static_cast<size_t>(cp.horizon_length)) {
  const size_t n = order_.size();
  const size_t h = horizon_;

  // Suffix contribution tables, innermost row (all offers assigned) = 0.
  // Row d adds offer order_[d]'s possible slice contributions onto row d+1.
  suffix_min_.assign((n + 1) * h, 0.0);
  suffix_max_.assign((n + 1) * h, 0.0);
  for (size_t d = n; d-- > 0;) {
    double* smin = &suffix_min_[d * h];
    double* smax = &suffix_max_[d * h];
    const double* nmin = &suffix_min_[(d + 1) * h];
    const double* nmax = &suffix_max_[(d + 1) * h];
    std::copy(nmin, nmin + h, smin);
    std::copy(nmax, nmax + h, smax);

    const size_t i = order_[d];
    const int64_t dur = cp.duration[i];
    const int64_t es = cp.earliest_start[i] - cp.horizon_start;
    const int64_t ls = cp.latest_start[i] - cp.horizon_start;
    for (int64_t s = es; s < ls + dur; ++s) {
      // Profile positions offer i can occupy at slice s across its window.
      const int64_t j_lo = std::max<int64_t>(0, s - ls);
      const int64_t j_hi = std::min<int64_t>(dur - 1, s - es);
      if (j_lo > j_hi) continue;
      double cmin = std::numeric_limits<double>::infinity();
      double cmax = -std::numeric_limits<double>::infinity();
      for (int64_t j = j_lo; j <= j_hi; ++j) {
        const double e = cp.SliceEnergy(i, j, 1.0);
        cmin = std::min(cmin, e);
        cmax = std::max(cmax, e);
      }
      // Unless every start covers s, "not placed here" (0) is reachable too.
      const bool always_covered = ls <= s && s < es + dur;
      if (!always_covered) {
        cmin = std::min(cmin, 0.0);
        cmax = std::max(cmax, 0.0);
      }
      smin[s] += cmin;
      smax[s] += cmax;
    }
  }

  // Start-independent activation total and the fixed residual total every
  // completion must hit (offers always place their full profile inside the
  // horizon), both at fill = 1.
  total_energy_ =
      std::accumulate(cp.baseline_kwh.begin(), cp.baseline_kwh.end(), 0.0);
  for (size_t i = 0; i < cp.num_offers; ++i) {
    double abs_kwh = 0.0;
    for (int64_t j = 0; j < cp.duration[i]; ++j) {
      const double e = cp.SliceEnergy(i, j, 1.0);
      abs_kwh += std::fabs(e);
      total_energy_ += e;
    }
    act_total_ += cp.unit_price_eur[i] * abs_kwh;
  }

  net_.assign(cp.baseline_kwh.begin(), cp.baseline_kwh.end());
  slice_term_.resize(h);
  slice_argmin_.resize(h);
  const double* smin = suffix_min_.data();
  const double* smax = suffix_max_.data();
  for (size_t s = 0; s < h; ++s) {
    slice_term_[s] = MinSliceTerm(s, net_[s] + smin[s], net_[s] + smax[s],
                                  &slice_argmin_[s]);
  }
  sum_ = std::accumulate(slice_term_.begin(), slice_term_.end(), 0.0);
}

double BnbBound::MinSliceTerm(size_t s, double lo, double hi,
                              double* argmin) const {
  // A piecewise-linear function attains its interval minimum at an endpoint
  // or an interior breakpoint (no convexity assumption needed).
  double best = SliceResidualCost(*cp_, s, lo);
  *argmin = lo;
  const double at_hi = SliceResidualCost(*cp_, s, hi);
  if (at_hi < best) {
    best = at_hi;
    *argmin = hi;
  }
  const double breakpoints[3] = {-cp_->max_sell_kwh, 0.0, cp_->max_buy_kwh};
  for (double b : breakpoints) {
    if (b > lo && b < hi) {
      const double at_b = SliceResidualCost(*cp_, s, b);
      if (at_b < best) {
        best = at_b;
        *argmin = b;
      }
    }
  }
  return best;
}

void BnbBound::Push(flexoffer::TimeSlice start) {
  const CompiledProblem& cp = *cp_;
  const size_t i = order_[depth_];
  const int64_t dur = cp.duration[i];
  const int64_t es = cp.earliest_start[i] - cp.horizon_start;
  const int64_t ls = cp.latest_start[i] - cp.horizon_start;
  const int64_t s0 = start - cp.horizon_start;

  frames_.push_back({trail_.size(), sum_});
  // The whole reach window changes row (the offer leaves the suffix), not
  // just the slices the chosen start covers.
  for (int64_t s = es; s < ls + dur; ++s) {
    trail_.push_back(
        {static_cast<uint32_t>(s), net_[s], slice_term_[s], slice_argmin_[s]});
  }
  for (int64_t j = 0; j < dur; ++j) {
    net_[s0 + j] += cp.SliceEnergy(i, j, 1.0);
  }
  ++depth_;
  const double* smin = &suffix_min_[depth_ * horizon_];
  const double* smax = &suffix_max_[depth_ * horizon_];
  for (int64_t s = es; s < ls + dur; ++s) {
    slice_term_[s] = MinSliceTerm(s, net_[s] + smin[s], net_[s] + smax[s],
                                  &slice_argmin_[s]);
  }
  // Fresh horizon sweep instead of delta updates: every term is a pure
  // function of (net_, depth_) and net_ is trail-restored, so the bound of a
  // node is identical no matter along which path the search reached it.
  sum_ = std::accumulate(slice_term_.begin(), slice_term_.end(), 0.0);
}

void BnbBound::Pop() {
  const LevelFrame frame = frames_.back();
  frames_.pop_back();
  --depth_;
  for (size_t k = trail_.size(); k-- > frame.trail_begin;) {
    const TrailEntry& e = trail_[k];
    net_[e.slice] = e.net;
    slice_term_[e.slice] = e.term;
    slice_argmin_[e.slice] = e.argmin;
  }
  trail_.resize(frame.trail_begin);
  sum_ = frame.saved_sum;
}

double BnbBound::LowerBound() const {
  const CompiledProblem& cp = *cp_;
  const double* smin = &suffix_min_[depth_ * horizon_];
  const double* smax = &suffix_max_[depth_ * horizon_];

  // Conservation correction: the per-slice minimizers rarely sum to the
  // fixed completion total, and the deficit has to be bought back along the
  // slices' linear pieces. Filling it with the globally cheapest slopes
  // relaxes the per-slice piece ordering, so the correction never
  // over-charges — the bound stays sound — while pricing in that imbalance
  // energy cannot simply vanish from every slice at once.
  double argmin_total = 0.0;
  for (size_t s = 0; s < horizon_; ++s) argmin_total += slice_argmin_[s];
  const double delta = total_energy_ - argmin_total;
  const double dir = delta >= 0.0 ? 1.0 : -1.0;
  double need = std::fabs(delta);
  double extra = 0.0;
  if (need > 0.0) {
    segments_.clear();
    const double breakpoints[3] = {-cp.max_sell_kwh, 0.0, cp.max_buy_kwh};
    for (size_t s = 0; s < horizon_; ++s) {
      const double limit = dir > 0.0 ? net_[s] + smax[s] : net_[s] + smin[s];
      double from = slice_argmin_[s];
      if (dir * (limit - from) <= 0.0) continue;
      // Walk the exact PL pieces from the minimizer toward the reachable
      // end: nearest breakpoint first, the interval end last.
      double cost_from = SliceResidualCost(cp, s, from);
      while (dir * (limit - from) > 0.0) {
        double to = limit;
        for (double b : breakpoints) {
          if (dir * (b - from) > 0.0 && dir * (to - b) > 0.0) to = b;
        }
        const double cost_to = SliceResidualCost(cp, s, to);
        const double cap = dir * (to - from);
        segments_.push_back({(cost_to - cost_from) / cap, cap});
        from = to;
        cost_from = cost_to;
      }
    }
    // The greedy-fill argument needs every piece to cost something
    // (non-negative slope away from the minimizer), which holds whenever
    // slice costs are convex — any sane sell <= buy <= penalty ordering. A
    // pathological price set that breaks it forfeits the correction, never
    // soundness.
    bool convex = true;
    for (const Segment& seg : segments_) {
      if (seg.slope < 0.0) {
        convex = false;
        break;
      }
    }
    if (convex) {
      std::sort(segments_.begin(), segments_.end(),
                [](const Segment& a, const Segment& b) {
                  return a.slope < b.slope;
                });
      for (const Segment& seg : segments_) {
        if (need <= 0.0) break;
        const double take = std::min(need, seg.capacity);
        extra += take * seg.slope;
        need -= take;
      }
      // Capacity exhausted with need left can only be fp noise (a true
      // completion witnesses feasibility); dropping the remainder only
      // lowers the bound.
    }
  }

  const double raw = act_total_ + sum_ + extra;
  return raw - kBoundSlackRel * (1.0 + std::fabs(raw));
}

double BnbBound::LeafCost() const {
  double cost = act_total_;
  for (size_t s = 0; s < horizon_; ++s) {
    cost += SliceResidualCost(*cp_, s, net_[s]);
  }
  return cost;
}

BranchAndBoundScheduler::BranchAndBoundScheduler() : config_() {}

BranchAndBoundScheduler::BranchAndBoundScheduler(const Config& config)
    : config_(config) {}

Result<SchedulingResult> BranchAndBoundScheduler::RunCompiled(
    const CompiledProblem& cp, const SchedulerOptions& options) {
  Stopwatch watch;
  const size_t n = cp.num_offers;

  if (n == 0) {
    ScheduleWorkspace ws(cp);
    SchedulingResult result;
    ws.ExportSchedule(&result.schedule);
    result.cost = ws.Cost(cp);
    result.iterations = 1;
    result.optimal_proven = true;
    result.trace.push_back({watch.ElapsedSeconds(), result.cost.total()});
    return result;
  }

  // Warm start: the incumbent the search has to beat (and the anytime
  // answer if the deadline expires before the first improving leaf).
  std::unique_ptr<Scheduler> warm_sched =
      config_.warm_start ? config_.warm_start()
                         : std::make_unique<GreedyScheduler>();
  SchedulerOptions warm_opts = options;
  if (options.time_budget_s > 0.0) {
    warm_opts.time_budget_s = config_.warm_start_share * options.time_budget_s;
  }
  if (options.max_iterations > 0) {
    warm_opts.max_iterations = std::max(
        1, static_cast<int>(config_.warm_start_share *
                            static_cast<double>(options.max_iterations)));
  } else if (options.time_budget_s <= 0.0) {
    // Fully unbounded options: give the warm start one bounded pass; the
    // search itself then runs to proven optimality.
    warm_opts.max_iterations = static_cast<int>(n) + 1;
  }
  MIRABEL_ASSIGN_OR_RETURN(SchedulingResult warm,
                           warm_sched->RunCompiled(cp, warm_opts));

  SchedulingResult result;
  result.schedule = std::move(warm.schedule);
  result.iterations = warm.iterations;
  result.trace = std::move(warm.trace);
  double best_cost = warm.cost.total();

  // Assign the least time-flexible offers first: their residual intervals
  // collapse early, which is where the bound gains most of its power.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&cp](size_t a, size_t b) {
    return cp.latest_start[a] - cp.earliest_start[a] <
           cp.latest_start[b] - cp.earliest_start[b];
  });

  BnbBound bound(cp, order);
  BudgetGate gate(watch, options.time_budget_s);
  const int64_t node_cap =
      options.max_iterations > 0
          ? std::max<int64_t>(1, options.max_iterations - warm.iterations)
          : 0;

  std::vector<flexoffer::TimeSlice> path(n);
  std::vector<flexoffer::TimeSlice> best_starts;  // empty: warm start stands

  // Offers without time flexibility are forced moves, not decisions: assign
  // them up front (the flexibility ordering put them first) so they neither
  // deepen the tree nor count as search nodes.
  size_t first_free = 0;
  while (first_free < n &&
         cp.latest_start[order[first_free]] ==
             cp.earliest_start[order[first_free]]) {
    path[first_free] = cp.earliest_start[order[first_free]];
    bound.Push(path[first_free]);
    ++first_free;
  }

  int64_t nodes = 0;
  bool aborted = false;

  if (first_free == n) {
    // Fully forced instance: the single completion is the candidate.
    const double cost = bound.LeafCost();
    if (cost < best_cost - kAcceptMargin) {
      best_cost = cost;
      best_starts = path;
      result.trace.push_back({watch.ElapsedSeconds(), cost});
    }
  }

  struct Child {
    flexoffer::TimeSlice start;
    double child_bound;
  };
  std::vector<std::vector<Child>> kids(n);

  // Every level probes its children's bounds first and expands survivors
  // best-first, leaves included: the most promising subtree tightens the
  // incumbent before its siblings are re-tested, and a leaf whose bound
  // cannot beat the incumbent is pruned at the probe, not expanded.
  const std::function<void(size_t)> dfs = [&](size_t depth) {
    const size_t i = order[depth];
    const flexoffer::TimeSlice es = cp.earliest_start[i];
    const flexoffer::TimeSlice ls = cp.latest_start[i];
    const bool leaf_level = depth + 1 == n;

    if (gate.Exhausted(ls - es + 1)) {
      aborted = true;
      return;
    }
    std::vector<Child>& children = kids[depth];
    children.clear();
    for (flexoffer::TimeSlice start = es; start <= ls; ++start) {
      bound.Push(start);
      const double b = bound.LowerBound();
      bound.Pop();
      if (b < best_cost - kAcceptMargin) children.push_back({start, b});
    }
    std::sort(children.begin(), children.end(),
              [](const Child& a, const Child& b) {
                return a.child_bound != b.child_bound
                           ? a.child_bound < b.child_bound
                           : a.start < b.start;
              });
    for (const Child& child : children) {
      if (aborted) return;
      // The incumbent may have improved since the probe; re-test.
      if (child.child_bound >= best_cost - kAcceptMargin) continue;
      if (gate.Exhausted() || (node_cap > 0 && nodes >= node_cap)) {
        aborted = true;
        return;
      }
      ++nodes;
      bound.Push(child.start);
      path[depth] = child.start;
      if (leaf_level) {
        const double cost = bound.LeafCost();
        if (cost < best_cost - kAcceptMargin) {
          best_cost = cost;
          best_starts = path;
          result.trace.push_back({watch.ElapsedSeconds(), cost});
        }
      } else {
        dfs(depth + 1);
      }
      bound.Pop();
    }
  };
  if (first_free < n) dfs(first_free);

  if (!best_starts.empty()) {
    // The search improved on the warm start: materialize its assignment
    // (search order -> offer order, fill = 1).
    result.schedule.assignments.resize(n);
    for (size_t d = 0; d < n; ++d) {
      result.schedule.assignments[order[d]] = {best_starts[d], 1.0};
    }
  }
  result.nodes_visited = nodes;
  result.optimal_proven = !aborted;
  const int64_t room = std::numeric_limits<int>::max() - result.iterations;
  result.iterations += static_cast<int>(std::min(nodes, room));

  // Canonical final recompute — the same path the exhaustive study takes, so
  // identical argmin schedules produce bit-identical costs.
  ScheduleWorkspace ws(cp);
  MIRABEL_RETURN_IF_ERROR(ws.SetSchedule(cp, result.schedule));
  result.cost = ws.Cost(cp);
  return result;
}

}  // namespace mirabel::scheduling

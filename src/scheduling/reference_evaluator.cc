// The pre-kernel cost evaluator, preserved verbatim (modulo the class
// name) as the kernel's equivalence oracle. See reference_evaluator.h.
#include "scheduling/reference_evaluator.h"

#include <cmath>

namespace mirabel::scheduling {

using flexoffer::FlexOffer;
using flexoffer::TimeSlice;

double ReferenceCostEvaluator::SliceEnergy(const FlexOffer& offer, int64_t j,
                                           double lambda) {
  const auto& band = offer.profile[static_cast<size_t>(j)];
  return band.min_kwh + lambda * band.Flexibility();
}

ReferenceCostEvaluator::ReferenceCostEvaluator(const SchedulingProblem& problem)
    : problem_(&problem) {
  schedule_.assignments.resize(problem.offers.size());
  for (size_t i = 0; i < problem.offers.size(); ++i) {
    schedule_.assignments[i] = {problem.offers[i].earliest_start, 1.0};
  }
  Status st = SetSchedule(schedule_);
  (void)st;  // default assignments are always valid
}

Status ReferenceCostEvaluator::SetSchedule(const Schedule& schedule) {
  if (schedule.assignments.size() != problem_->offers.size()) {
    return Status::InvalidArgument("assignment count mismatch");
  }
  for (size_t i = 0; i < schedule.assignments.size(); ++i) {
    const OfferAssignment& a = schedule.assignments[i];
    const FlexOffer& fo = problem_->offers[i];
    if (a.start < fo.earliest_start || a.start > fo.latest_start) {
      return Status::OutOfRange("offer " + std::to_string(i) +
                                " start outside window");
    }
    if (a.fill < 0.0 || a.fill > 1.0) {
      return Status::OutOfRange("offer " + std::to_string(i) +
                                " fill outside [0, 1]");
    }
  }
  schedule_ = schedule;
  net_kwh_ = problem_->baseline_imbalance_kwh;
  flex_activation_eur_ = 0.0;
  for (size_t i = 0; i < schedule_.assignments.size(); ++i) {
    Accumulate(i, schedule_.assignments[i], +1.0);
  }
  return Status::OK();
}

void ReferenceCostEvaluator::Accumulate(size_t index, const OfferAssignment& a,
                                        double sign) {
  const FlexOffer& fo = problem_->offers[index];
  for (int64_t j = 0; j < fo.Duration(); ++j) {
    double e = SliceEnergy(fo, j, a.fill);
    size_t slice = static_cast<size_t>(a.start + j - problem_->horizon_start);
    net_kwh_[slice] += sign * e;
    flex_activation_eur_ += sign * fo.unit_price_eur * std::fabs(e);
  }
}

double ReferenceCostEvaluator::SliceCost(size_t slice, double residual) const {
  const double penalty = problem_->imbalance_penalty_eur[slice];
  if (residual > 0.0) {
    // Deficit: buy while cheaper than eating the imbalance penalty.
    const double price = problem_->market.buy_price_eur[slice];
    double bought = 0.0;
    if (price < penalty) {
      bought = std::min(residual, problem_->market.max_buy_kwh);
    }
    return bought * price + (residual - bought) * penalty;
  }
  if (residual < 0.0) {
    // Surplus: selling both earns revenue and avoids the penalty, so sell up
    // to the cap whenever the sell price is non-negative.
    const double price = problem_->market.sell_price_eur[slice];
    double surplus = -residual;
    double sold = price >= 0.0
                      ? std::min(surplus, problem_->market.max_sell_kwh)
                      : 0.0;
    return -sold * price + (surplus - sold) * penalty;
  }
  return 0.0;
}

ScheduleCost ReferenceCostEvaluator::Cost() const {
  ScheduleCost cost;
  cost.flex_activation_eur = flex_activation_eur_;
  for (size_t s = 0; s < net_kwh_.size(); ++s) {
    double r = net_kwh_[s];
    const double penalty = problem_->imbalance_penalty_eur[s];
    if (r > 0.0) {
      const double price = problem_->market.buy_price_eur[s];
      double bought =
          price < penalty ? std::min(r, problem_->market.max_buy_kwh) : 0.0;
      cost.market_eur += bought * price;
      cost.imbalance_eur += (r - bought) * penalty;
    } else if (r < 0.0) {
      const double price = problem_->market.sell_price_eur[s];
      double surplus = -r;
      double sold = price >= 0.0
                        ? std::min(surplus, problem_->market.max_sell_kwh)
                        : 0.0;
      cost.market_eur -= sold * price;
      cost.imbalance_eur += (surplus - sold) * penalty;
    }
  }
  return cost;
}

Result<double> ReferenceCostEvaluator::EvaluateTotal(
    const Schedule& schedule) const {
  ReferenceCostEvaluator scratch(*problem_);
  MIRABEL_RETURN_IF_ERROR(scratch.SetSchedule(schedule));
  return scratch.Cost().total();
}

Result<double> ReferenceCostEvaluator::TryMove(
    size_t index, const OfferAssignment& candidate) const {
  if (index >= problem_->offers.size()) {
    return Status::OutOfRange("offer index");
  }
  const FlexOffer& fo = problem_->offers[index];
  if (candidate.start < fo.earliest_start ||
      candidate.start > fo.latest_start || candidate.fill < 0.0 ||
      candidate.fill > 1.0) {
    return Status::OutOfRange("candidate assignment infeasible");
  }
  const OfferAssignment& current = schedule_.assignments[index];

  // Collect the slices touched by removing the current assignment and adding
  // the candidate; compute cost deltas on those slices only.
  double delta = 0.0;
  auto slice_of = [this](TimeSlice t) {
    return static_cast<size_t>(t - problem_->horizon_start);
  };

  // Net-load deltas per touched slice (at most 2 * duration slices).
  const int64_t dur = fo.Duration();
  // Touched range union.
  TimeSlice lo = std::min(current.start, candidate.start);
  TimeSlice hi = std::max(current.start, candidate.start) + dur;
  for (TimeSlice t = lo; t < hi; ++t) {
    size_t s = slice_of(t);
    double before = net_kwh_[s];
    double after = before;
    int64_t j_cur = t - current.start;
    if (j_cur >= 0 && j_cur < dur) {
      after -= SliceEnergy(fo, j_cur, current.fill);
    }
    int64_t j_new = t - candidate.start;
    if (j_new >= 0 && j_new < dur) {
      after += SliceEnergy(fo, j_new, candidate.fill);
    }
    if (after != before) delta += SliceCost(s, after) - SliceCost(s, before);
  }

  // Activation-cost delta.
  for (int64_t j = 0; j < dur; ++j) {
    delta += fo.unit_price_eur *
             (std::fabs(SliceEnergy(fo, j, candidate.fill)) -
              std::fabs(SliceEnergy(fo, j, current.fill)));
  }
  return delta;
}

Status ReferenceCostEvaluator::ApplyMove(size_t index,
                                         const OfferAssignment& candidate) {
  if (index >= problem_->offers.size()) {
    return Status::OutOfRange("offer index");
  }
  const FlexOffer& fo = problem_->offers[index];
  if (candidate.start < fo.earliest_start ||
      candidate.start > fo.latest_start || candidate.fill < 0.0 ||
      candidate.fill > 1.0) {
    return Status::OutOfRange("candidate assignment infeasible");
  }
  Accumulate(index, schedule_.assignments[index], -1.0);
  schedule_.assignments[index] = candidate;
  Accumulate(index, candidate, +1.0);
  return Status::OK();
}

}  // namespace mirabel::scheduling

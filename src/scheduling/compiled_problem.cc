#include "scheduling/compiled_problem.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace mirabel::scheduling {

using flexoffer::TimeSlice;

CompiledProblem::CompiledProblem(const SchedulingProblem& problem)
    : horizon_start(problem.horizon_start),
      horizon_length(problem.horizon_length),
      num_offers(problem.offers.size()),
      max_buy_kwh(problem.market.max_buy_kwh),
      max_sell_kwh(problem.market.max_sell_kwh),
      source(&problem) {
  earliest_start.reserve(num_offers);
  latest_start.reserve(num_offers);
  duration.reserve(num_offers);
  unit_price_eur.reserve(num_offers);
  profile_offset.reserve(num_offers + 1);

  size_t bands = 0;
  for (const auto& fo : problem.offers) bands += fo.profile.size();
  min_kwh.reserve(bands);
  flex_kwh.reserve(bands);

  profile_offset.push_back(0);
  for (const auto& fo : problem.offers) {
    earliest_start.push_back(fo.earliest_start);
    latest_start.push_back(fo.latest_start);
    duration.push_back(fo.Duration());
    unit_price_eur.push_back(fo.unit_price_eur);
    max_duration = std::max(max_duration, fo.Duration());
    for (const auto& band : fo.profile) {
      min_kwh.push_back(band.min_kwh);
      flex_kwh.push_back(band.Flexibility());
    }
    profile_offset.push_back(min_kwh.size());
  }

  baseline_kwh = problem.baseline_imbalance_kwh;
  penalty_eur = problem.imbalance_penalty_eur;
  buy_price_eur = problem.market.buy_price_eur;
  sell_price_eur = problem.market.sell_price_eur;
}

ScheduleWorkspace::ScheduleWorkspace(const CompiledProblem& cp) {
  starts_.resize(cp.num_offers);
  fills_.resize(cp.num_offers);
  size_t h = static_cast<size_t>(cp.horizon_length);
  net_kwh_.resize(h);
  slice_imbalance_eur_.resize(h);
  slice_market_eur_.resize(h);
  slice_cost_eur_.resize(h);
  e_cur_scratch_.resize(static_cast<size_t>(cp.max_duration));
  e_new_scratch_.resize(static_cast<size_t>(cp.max_duration));
  ResetToDefault(cp);
}

void ScheduleWorkspace::ResetToDefault(const CompiledProblem& cp) {
  for (size_t i = 0; i < cp.num_offers; ++i) {
    starts_[i] = cp.earliest_start[i];
    fills_[i] = 1.0;
  }
  Recompute(cp);
}

Status ScheduleWorkspace::ValidateAndCopy(const CompiledProblem& cp,
                                          const Schedule& schedule) {
  if (schedule.assignments.size() != cp.num_offers) {
    return Status::InvalidArgument("assignment count mismatch");
  }
  for (size_t i = 0; i < cp.num_offers; ++i) {
    const OfferAssignment& a = schedule.assignments[i];
    if (a.start < cp.earliest_start[i] || a.start > cp.latest_start[i]) {
      return Status::OutOfRange("offer " + std::to_string(i) +
                                " start outside window");
    }
    if (a.fill < 0.0 || a.fill > 1.0) {
      return Status::OutOfRange("offer " + std::to_string(i) +
                                " fill outside [0, 1]");
    }
  }
  for (size_t i = 0; i < cp.num_offers; ++i) {
    starts_[i] = schedule.assignments[i].start;
    fills_[i] = schedule.assignments[i].fill;
  }
  return Status::OK();
}

Status ScheduleWorkspace::SetSchedule(const CompiledProblem& cp,
                                      const Schedule& schedule) {
  MIRABEL_RETURN_IF_ERROR(ValidateAndCopy(cp, schedule));
  Recompute(cp);
  return Status::OK();
}

void ScheduleWorkspace::SetAssignmentsUnchecked(
    const CompiledProblem& cp, std::span<const TimeSlice> starts,
    std::span<const double> fills) {
  std::copy(starts.begin(), starts.end(), starts_.begin());
  std::copy(fills.begin(), fills.end(), fills_.begin());
  Recompute(cp);
}

Result<double> ScheduleWorkspace::EvaluateInto(const CompiledProblem& cp,
                                               const Schedule& schedule) {
  // Single merged validate+copy pass. Unlike SetSchedule there is no
  // strong guarantee: on a validation error this (pooled) workspace's state
  // is unspecified — it is overwritten by the next evaluation anyway.
  if (schedule.assignments.size() != cp.num_offers) {
    return Status::InvalidArgument("assignment count mismatch");
  }
  for (size_t i = 0; i < cp.num_offers; ++i) {
    const OfferAssignment& a = schedule.assignments[i];
    if (a.start < cp.earliest_start[i] || a.start > cp.latest_start[i]) {
      return Status::OutOfRange("offer " + std::to_string(i) +
                                " start outside window");
    }
    if (a.fill < 0.0 || a.fill > 1.0) {
      return Status::OutOfRange("offer " + std::to_string(i) +
                                " fill outside [0, 1]");
    }
    starts_[i] = a.start;
    fills_[i] = a.fill;
  }
  RecomputeNet(cp);
  // One fused sweep produces the total; the per-slice caches are left stale
  // and refreshed lazily by the next TryMove / ApplyMove / Cost, so a pooled
  // child-evaluation workspace never pays for them. The accumulators and
  // their order match the pre-kernel Cost() sweep exactly.
  costs_dirty_ = true;
  double imbalance_eur = 0.0;
  double market_eur = 0.0;
  for (size_t s = 0; s < net_kwh_.size(); ++s) {
    double r = net_kwh_[s];
    const double penalty = cp.penalty_eur[s];
    if (r > 0.0) {
      const double price = cp.buy_price_eur[s];
      double bought = price < penalty ? std::min(r, cp.max_buy_kwh) : 0.0;
      market_eur += bought * price;
      imbalance_eur += (r - bought) * penalty;
    } else if (r < 0.0) {
      const double price = cp.sell_price_eur[s];
      double surplus = -r;
      double sold =
          price >= 0.0 ? std::min(surplus, cp.max_sell_kwh) : 0.0;
      market_eur -= sold * price;
      imbalance_eur += (surplus - sold) * penalty;
    }
  }
  return imbalance_eur + flex_activation_eur_ + market_eur;
}

void ScheduleWorkspace::Accumulate(const CompiledProblem& cp, size_t i,
                                   TimeSlice start, double fill, double sign) {
  const size_t base = cp.profile_offset[i];
  const int64_t dur = cp.duration[i];
  const double unit = cp.unit_price_eur[i];
  const size_t s0 = static_cast<size_t>(start - cp.horizon_start);
  for (int64_t j = 0; j < dur; ++j) {
    double e = cp.min_kwh[base + static_cast<size_t>(j)] +
               fill * cp.flex_kwh[base + static_cast<size_t>(j)];
    net_kwh_[s0 + static_cast<size_t>(j)] += sign * e;
    flex_activation_eur_ += sign * unit * std::fabs(e);
  }
}

double SliceResidualCost(const CompiledProblem& cp, size_t s,
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

double ScheduleWorkspace::SliceCostAt(const CompiledProblem& cp, size_t s,
                                      double residual) const {
  return SliceResidualCost(cp, s, residual);
}

void ScheduleWorkspace::RefreshSliceCost(const CompiledProblem& cp,
                                         size_t s) const {
  const double r = net_kwh_[s];
  const double penalty = cp.penalty_eur[s];
  if (r > 0.0) {
    const double price = cp.buy_price_eur[s];
    double bought = price < penalty ? std::min(r, cp.max_buy_kwh) : 0.0;
    slice_market_eur_[s] = bought * price;
    slice_imbalance_eur_[s] = (r - bought) * penalty;
    slice_cost_eur_[s] = bought * price + (r - bought) * penalty;
  } else if (r < 0.0) {
    const double price = cp.sell_price_eur[s];
    double surplus = -r;
    double sold =
        price >= 0.0 ? std::min(surplus, cp.max_sell_kwh) : 0.0;
    slice_market_eur_[s] = -sold * price;
    slice_imbalance_eur_[s] = (surplus - sold) * penalty;
    slice_cost_eur_[s] = -sold * price + (surplus - sold) * penalty;
  } else {
    slice_market_eur_[s] = 0.0;
    slice_imbalance_eur_[s] = 0.0;
    slice_cost_eur_[s] = 0.0;
  }
}

void ScheduleWorkspace::RecomputeNet(const CompiledProblem& cp) {
  std::copy(cp.baseline_kwh.begin(), cp.baseline_kwh.end(), net_kwh_.begin());
  // The activation sum is one serial dependency chain across all offers in
  // index order (that order is part of the bit-compatibility contract); keep
  // the accumulator in a register for its whole length.
  double activation = 0.0;
  for (size_t i = 0; i < cp.num_offers; ++i) {
    const double* mi = cp.min_kwh.data() + cp.profile_offset[i];
    const double* fl = cp.flex_kwh.data() + cp.profile_offset[i];
    double* net = net_kwh_.data() + (starts_[i] - cp.horizon_start);
    const double fill = fills_[i];
    const double unit = cp.unit_price_eur[i];
    const int64_t dur = cp.duration[i];
    for (int64_t j = 0; j < dur; ++j) {
      double e = mi[j] + fill * fl[j];
      net[j] += e;
      activation += unit * std::fabs(e);
    }
  }
  flex_activation_eur_ = activation;
}

void ScheduleWorkspace::RefreshAllSliceCosts(const CompiledProblem& cp) const {
  for (size_t s = 0; s < net_kwh_.size(); ++s) RefreshSliceCost(cp, s);
  costs_dirty_ = false;
}

void ScheduleWorkspace::Recompute(const CompiledProblem& cp) {
  RecomputeNet(cp);
  RefreshAllSliceCosts(cp);
}

void ScheduleWorkspace::ComputeEnergies(const CompiledProblem& cp, size_t i,
                                        double fill,
                                        std::span<double> out) const {
  const size_t base = cp.profile_offset[i];
  const int64_t dur = cp.duration[i];
  for (int64_t j = 0; j < dur; ++j) {
    out[static_cast<size_t>(j)] =
        cp.min_kwh[base + static_cast<size_t>(j)] +
        fill * cp.flex_kwh[base + static_cast<size_t>(j)];
  }
}

double ScheduleWorkspace::TryMove(const CompiledProblem& cp, size_t i,
                                  TimeSlice start, double fill) const {
  ComputeEnergies(cp, i, fills_[i], e_cur_scratch_);
  ComputeEnergies(cp, i, fill, e_new_scratch_);
  return TryMoveWithEnergies(cp, i, start, e_cur_scratch_, e_new_scratch_);
}

double ScheduleWorkspace::TryMoveWithEnergies(
    const CompiledProblem& cp, size_t i, TimeSlice start,
    std::span<const double> e_cur, std::span<const double> e_new) const {
  EnsureSliceCosts(cp);
  const int64_t dur = cp.duration[i];
  const TimeSlice cur_start = starts_[i];
  double delta = 0.0;

  // Per-slice cost deltas over the union of the two footprints. `before` is
  // charged from the slice-cost cache; `after` is the closed-form market
  // response to the shifted residual.
  const TimeSlice lo = std::min(cur_start, start);
  const TimeSlice hi = std::max(cur_start, start) + dur;
  for (TimeSlice t = lo; t < hi; ++t) {
    size_t s = static_cast<size_t>(t - cp.horizon_start);
    double before = net_kwh_[s];
    double after = before;
    int64_t j_cur = t - cur_start;
    if (j_cur >= 0 && j_cur < dur) {
      after -= e_cur[static_cast<size_t>(j_cur)];
    }
    int64_t j_new = t - start;
    if (j_new >= 0 && j_new < dur) {
      after += e_new[static_cast<size_t>(j_new)];
    }
    if (after != before) {
      delta += SliceCostAt(cp, s, after) - CachedSliceCost(s);
    }
  }

  // Activation-cost delta, term by term in profile order (kept as a per-slice
  // sum rather than a hoisted per-fill constant so the accumulation order —
  // and therefore the bits — match the pre-kernel evaluator).
  const double unit = cp.unit_price_eur[i];
  for (int64_t j = 0; j < dur; ++j) {
    delta += unit * (std::fabs(e_new[static_cast<size_t>(j)]) -
                     std::fabs(e_cur[static_cast<size_t>(j)]));
  }
  return delta;
}

void ScheduleWorkspace::ApplyMove(const CompiledProblem& cp, size_t i,
                                  TimeSlice start, double fill) {
  EnsureSliceCosts(cp);
  const TimeSlice cur_start = starts_[i];
  Accumulate(cp, i, cur_start, fills_[i], -1.0);
  starts_[i] = start;
  fills_[i] = fill;
  Accumulate(cp, i, start, fill, +1.0);
  const TimeSlice lo = std::min(cur_start, start);
  const TimeSlice hi = std::max(cur_start, start) + cp.duration[i];
  for (TimeSlice t = lo; t < hi; ++t) {
    RefreshSliceCost(cp, static_cast<size_t>(t - cp.horizon_start));
  }
}

ScheduleCost ScheduleWorkspace::Cost(const CompiledProblem& cp) const {
  EnsureSliceCosts(cp);
  ScheduleCost cost;
  cost.flex_activation_eur = flex_activation_eur_;
  for (size_t s = 0; s < net_kwh_.size(); ++s) {
    cost.market_eur += slice_market_eur_[s];
    cost.imbalance_eur += slice_imbalance_eur_[s];
  }
  return cost;
}

void ScheduleWorkspace::ExportSchedule(Schedule* out) const {
  out->assignments.resize(starts_.size());
  for (size_t i = 0; i < starts_.size(); ++i) {
    out->assignments[i] = {starts_[i], fills_[i]};
  }
}

std::vector<flexoffer::ScheduledFlexOffer>
ScheduleWorkspace::ExportScheduledOffers(const CompiledProblem& cp) const {
  std::vector<flexoffer::ScheduledFlexOffer> out;
  out.reserve(cp.num_offers);
  for (size_t i = 0; i < cp.num_offers; ++i) {
    flexoffer::ScheduledFlexOffer s;
    s.offer_id = cp.source->offers[i].id;
    s.start = starts_[i];
    s.energies_kwh.resize(static_cast<size_t>(cp.duration[i]));
    ComputeEnergies(cp, i, fills_[i], s.energies_kwh);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace mirabel::scheduling

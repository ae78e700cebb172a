#include "scheduling/compiled_problem.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace mirabel::scheduling {

using flexoffer::TimeSlice;

namespace {

/// Fills ScanMoves advances side by side: one accumulator each, so the
/// independent add chains of a chunk overlap. Longer fill lists are scanned
/// chunk by chunk, which cannot change any delta (each fill's chain is its
/// own).
constexpr size_t kScanFillChunk = 4;

}  // namespace

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
  const size_t dur_cap = static_cast<size_t>(cp.max_duration);
  abs_cur_scratch_.resize(dur_cap);
  removal_scratch_.resize(dur_cap);
  leave_delta_scratch_.resize(dur_cap);
  e_new_scratch_.resize(kScanFillChunk * dur_cap);
  activation_scratch_.resize(kScanFillChunk * dur_cap);
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
  // and refreshed lazily by the next ScanMoves / ApplyMove / Cost, so a pooled
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

namespace {

/// One ScanMoves chunk's read-only inputs. Offer i currently covers slices
/// [cur, cur + dur); profile position j of the chunk's fill f has energy
/// e_new[f * dur + j] and activation term activation[f * dur + j]. Every span
/// is cut to its exact length, so a checked build (_GLIBCXX_ASSERTIONS)
/// traps a run that strays past its segment even inside the scratch's
/// capacity.
struct MoveScan {
  const CompiledProblem& cp;
  std::span<const double> net;
  std::span<const double> slice_cost;
  std::span<const double> removal;      // net[cur + j] - e_cur[j]
  std::span<const double> leave_delta;  // slice cur + j losing e_cur[j]
  std::span<const double> e_new;
  std::span<const double> activation;
  size_t cur;
  size_t dur;
};

/// Deltas of every start in `starts` for the N fills of one chunk, written to
/// deltas[c * stride + first_fill + f]. Each candidate's union of footprints
/// is walked in ascending slice order as runs of slices the offer only
/// leaves, slices both footprints cover and slices it only enters; the gap
/// between disjoint footprints holds no term and is not walked. A term is
/// added exactly where, and as, the single-move delta adds it, pricing a
/// residual only where it differs from net:
///   leave only:  net - e_cur, priced once per call (leave_delta)
///   both:        (net - e_cur) + e_new
///   enter only:  net + e_new
/// followed by the activation terms in profile order.
template <size_t N>
void ScanChunk(const MoveScan& m, std::span<const TimeSlice> starts,
               size_t first_fill, size_t stride, std::span<double> deltas) {
  const size_t dur = m.dur;
  for (size_t c = 0; c < starts.size(); ++c) {
    const size_t next = static_cast<size_t>(starts[c] - m.cp.horizon_start);
    double acc[N] = {};
    auto leave = [&](size_t j0, size_t j1) {
      for (size_t j = j0; j < j1; ++j) {
        const double d = m.leave_delta[j];
        for (size_t f = 0; f < N; ++f) acc[f] += d;
      }
    };
    auto both = [&](size_t j_cur, size_t j_new, size_t len) {
      for (size_t k = 0; k < len; ++k) {
        const size_t s = m.cur + j_cur + k;
        const double before = m.net[s];
        const double removed = m.removal[j_cur + k];
        for (size_t f = 0; f < N; ++f) {
          const double after = removed + m.e_new[f * dur + j_new + k];
          if (after != before) {
            acc[f] += SliceResidualCost(m.cp, s, after) - m.slice_cost[s];
          }
        }
      }
    };
    auto enter = [&](size_t j0, size_t j1) {
      for (size_t j = j0; j < j1; ++j) {
        const size_t s = next + j;
        const double before = m.net[s];
        for (size_t f = 0; f < N; ++f) {
          const double after = before + m.e_new[f * dur + j];
          if (after != before) {
            acc[f] += SliceResidualCost(m.cp, s, after) - m.slice_cost[s];
          }
        }
      }
    };
    if (next + dur <= m.cur) {
      enter(0, dur);
      leave(0, dur);
    } else if (next < m.cur) {
      const size_t shift = m.cur - next;
      enter(0, shift);
      both(0, shift, dur - shift);
      leave(dur - shift, dur);
    } else if (next < m.cur + dur) {
      const size_t shift = next - m.cur;
      leave(0, shift);
      both(shift, 0, dur - shift);
      enter(dur - shift, dur);
    } else {
      leave(0, dur);
      enter(0, dur);
    }
    for (size_t j = 0; j < dur; ++j) {
      for (size_t f = 0; f < N; ++f) acc[f] += m.activation[f * dur + j];
    }
    for (size_t f = 0; f < N; ++f) deltas[c * stride + first_fill + f] = acc[f];
  }
}

}  // namespace

void ScheduleWorkspace::ScanMoves(const CompiledProblem& cp, size_t i,
                                  std::span<const TimeSlice> starts,
                                  std::span<const double> fills,
                                  std::span<double> deltas) const {
  EnsureSliceCosts(cp);
  const size_t base = cp.profile_offset[i];
  const size_t dur = static_cast<size_t>(cp.duration[i]);
  const size_t cur = static_cast<size_t>(starts_[i] - cp.horizon_start);
  const double fill_cur = fills_[i];
  for (size_t j = 0; j < dur; ++j) {
    const double e = cp.min_kwh[base + j] + fill_cur * cp.flex_kwh[base + j];
    const size_t s = cur + j;
    const double before = net_kwh_[s];
    const double after = before - e;
    abs_cur_scratch_[j] = std::fabs(e);
    removal_scratch_[j] = after;
    // +0.0 stands in for a skipped term: an accumulator that starts at +0.0
    // never holds -0.0, and adding +0.0 to anything else keeps its bits.
    leave_delta_scratch_[j] =
        after != before ? SliceResidualCost(cp, s, after) - slice_cost_eur_[s]
                        : 0.0;
  }

  const double unit = cp.unit_price_eur[i];
  for (size_t first = 0; first < fills.size(); first += kScanFillChunk) {
    const size_t width = std::min(kScanFillChunk, fills.size() - first);
    const MoveScan m{cp,
                     net_kwh_,
                     slice_cost_eur_,
                     std::span<const double>(removal_scratch_).first(dur),
                     std::span<const double>(leave_delta_scratch_).first(dur),
                     std::span<const double>(e_new_scratch_).first(width * dur),
                     std::span<const double>(activation_scratch_)
                         .first(width * dur),
                     cur,
                     dur};
    for (size_t f = 0; f < width; ++f) {
      const double fill = fills[first + f];
      for (size_t j = 0; j < dur; ++j) {
        const double e = cp.min_kwh[base + j] + fill * cp.flex_kwh[base + j];
        e_new_scratch_[f * dur + j] = e;
        activation_scratch_[f * dur + j] =
            unit * (std::fabs(e) - abs_cur_scratch_[j]);
      }
    }
    switch (width) {
      case 1:
        ScanChunk<1>(m, starts, first, fills.size(), deltas);
        break;
      case 2:
        ScanChunk<2>(m, starts, first, fills.size(), deltas);
        break;
      case 3:
        ScanChunk<3>(m, starts, first, fills.size(), deltas);
        break;
      default:
        ScanChunk<kScanFillChunk>(m, starts, first, fills.size(), deltas);
        break;
    }
  }
}

double ScheduleWorkspace::TryMove(const CompiledProblem& cp, size_t i,
                                  TimeSlice start, double fill) const {
  double delta = 0.0;
  ScanMoves(cp, i, {&start, 1}, {&fill, 1}, {&delta, 1});
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
    s.energies_kwh.reserve(static_cast<size_t>(cp.duration[i]));
    for (int64_t j = 0; j < cp.duration[i]; ++j) {
      s.energies_kwh.push_back(cp.SliceEnergy(i, j, fills_[i]));
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace mirabel::scheduling

#include "aggregation/aggregated_flex_offer.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mirabel::aggregation {

using flexoffer::EnergyRange;
using flexoffer::FlexOffer;
using flexoffer::FlexOfferId;
using flexoffer::ScheduledFlexOffer;
using flexoffer::TimeSlice;

namespace {

/// Recomputes macro profile, time window, deadline and price of `agg` from
/// its members, keeping member offers intact. Member offsets are reassigned.
void RebuildMacro(AggregatedFlexOffer* agg) {
  auto& members = agg->members;
  FlexOffer& macro = agg->macro;

  TimeSlice earliest = std::numeric_limits<TimeSlice>::max();
  TimeSlice min_assignment = std::numeric_limits<TimeSlice>::max();
  TimeSlice min_creation = std::numeric_limits<TimeSlice>::max();
  int64_t min_tf = std::numeric_limits<int64_t>::max();
  for (const auto& m : members) {
    earliest = std::min(earliest, m.offer.earliest_start);
    min_assignment = std::min(min_assignment, m.offer.assignment_before);
    min_creation = std::min(min_creation, m.offer.creation_time);
    min_tf = std::min(min_tf, m.offer.TimeFlexibility());
  }

  int64_t length = 0;
  for (auto& m : members) {
    m.offset = m.offer.earliest_start - earliest;
    length = std::max(length, m.offset + m.offer.Duration());
  }

  macro.profile.assign(static_cast<size_t>(length), EnergyRange{0.0, 0.0});
  double weighted_price = 0.0;
  double total_weight = 0.0;
  for (const auto& m : members) {
    for (int64_t j = 0; j < m.offer.Duration(); ++j) {
      auto& slot = macro.profile[static_cast<size_t>(m.offset + j)];
      slot.min_kwh += m.offer.profile[static_cast<size_t>(j)].min_kwh;
      slot.max_kwh += m.offer.profile[static_cast<size_t>(j)].max_kwh;
    }
    double w = std::fabs(m.offer.TotalMaxEnergy());
    weighted_price += w * m.offer.unit_price_eur;
    total_weight += w;
  }

  macro.earliest_start = earliest;
  macro.latest_start = earliest + min_tf;
  macro.assignment_before = std::min(min_assignment, macro.latest_start);
  macro.creation_time = std::min(min_creation, macro.assignment_before);
  macro.unit_price_eur = total_weight > 0 ? weighted_price / total_weight : 0;
}

}  // namespace

int64_t AggregatedFlexOffer::TotalTimeFlexibilityLoss() const {
  int64_t macro_tf = macro.TimeFlexibility();
  int64_t loss = 0;
  for (const auto& m : members) {
    loss += m.offer.TimeFlexibility() - macro_tf;
  }
  return loss;
}

Status AggregatedFlexOffer::Validate() const {
  if (members.empty()) {
    return Status::FailedPrecondition("aggregate has no members");
  }
  MIRABEL_RETURN_IF_ERROR(macro.Validate());
  constexpr double kTol = 1e-6;
  std::vector<double> min_sum(macro.profile.size(), 0.0);
  std::vector<double> max_sum(macro.profile.size(), 0.0);
  for (const auto& m : members) {
    MIRABEL_RETURN_IF_ERROR(m.offer.Validate());
    if (m.offset < 0) return Status::Internal("negative member offset");
    if (m.offset + m.offer.Duration() >
        static_cast<int64_t>(macro.profile.size())) {
      return Status::Internal("member profile exceeds macro profile");
    }
    if (m.offer.earliest_start != macro.earliest_start + m.offset) {
      return Status::Internal("member offset inconsistent with earliest start");
    }
    // The macro window must keep every member start feasible.
    if (macro.latest_start + m.offset > m.offer.latest_start) {
      return Status::Internal("macro window exceeds member latest start");
    }
    for (int64_t j = 0; j < m.offer.Duration(); ++j) {
      min_sum[static_cast<size_t>(m.offset + j)] +=
          m.offer.profile[static_cast<size_t>(j)].min_kwh;
      max_sum[static_cast<size_t>(m.offset + j)] +=
          m.offer.profile[static_cast<size_t>(j)].max_kwh;
    }
  }
  for (size_t j = 0; j < macro.profile.size(); ++j) {
    if (std::fabs(min_sum[j] - macro.profile[j].min_kwh) > kTol ||
        std::fabs(max_sum[j] - macro.profile[j].max_kwh) > kTol) {
      return Status::Internal("macro profile does not equal member sums");
    }
  }
  return Status::OK();
}

Result<AggregatedFlexOffer> BuildAggregate(
    AggregateId aggregate_id, const std::vector<FlexOffer>& members) {
  if (members.empty()) {
    return Status::InvalidArgument("cannot aggregate zero flex-offers");
  }
  for (const auto& m : members) {
    MIRABEL_RETURN_IF_ERROR(m.Validate());
  }
  AggregatedFlexOffer agg;
  agg.macro.id = aggregate_id;
  agg.macro.owner = 0;  // aggregates are owned by the aggregating node
  agg.members.reserve(members.size());
  for (const auto& m : members) agg.members.push_back({m, 0});
  RebuildMacro(&agg);
  return agg;
}

Status AddMember(const FlexOffer& member, AggregatedFlexOffer* agg) {
  MIRABEL_RETURN_IF_ERROR(member.Validate());
  if (agg->members.empty()) {
    return Status::FailedPrecondition("aggregate has no members");
  }
  if (member.earliest_start < agg->macro.earliest_start) {
    // All offsets shift; incremental update is not cheaper than a rebuild.
    agg->members.push_back({member, 0});
    RebuildMacro(agg);
    return Status::OK();
  }

  // Fast path: append the member's bands into the existing sums.
  int64_t offset = member.earliest_start - agg->macro.earliest_start;
  int64_t needed = offset + member.Duration();
  if (needed > static_cast<int64_t>(agg->macro.profile.size())) {
    agg->macro.profile.resize(static_cast<size_t>(needed),
                              EnergyRange{0.0, 0.0});
  }
  for (int64_t j = 0; j < member.Duration(); ++j) {
    auto& slot = agg->macro.profile[static_cast<size_t>(offset + j)];
    slot.min_kwh += member.profile[static_cast<size_t>(j)].min_kwh;
    slot.max_kwh += member.profile[static_cast<size_t>(j)].max_kwh;
  }

  int64_t new_tf =
      std::min(agg->macro.TimeFlexibility(), member.TimeFlexibility());
  agg->macro.latest_start = agg->macro.earliest_start + new_tf;
  agg->macro.assignment_before = std::min(
      std::min(agg->macro.assignment_before, member.assignment_before),
      agg->macro.latest_start);
  agg->macro.creation_time =
      std::min(std::min(agg->macro.creation_time, member.creation_time),
               agg->macro.assignment_before);

  // Price: recompute the weighted mean incrementally.
  double w_new = std::fabs(member.TotalMaxEnergy());
  double w_old = 0.0;
  for (const auto& m : agg->members) {
    w_old += std::fabs(m.offer.TotalMaxEnergy());
  }
  double total = w_old + w_new;
  if (total > 0) {
    agg->macro.unit_price_eur =
        (agg->macro.unit_price_eur * w_old + member.unit_price_eur * w_new) /
        total;
  }

  agg->members.push_back({member, offset});
  return Status::OK();
}

Status RemoveMember(FlexOfferId member_id, AggregatedFlexOffer* agg) {
  auto it = std::find_if(
      agg->members.begin(), agg->members.end(),
      [member_id](const auto& m) { return m.offer.id == member_id; });
  if (it == agg->members.end()) {
    return Status::NotFound("member " + std::to_string(member_id));
  }
  if (agg->members.size() == 1) {
    return Status::FailedPrecondition(
        "removing the last member would leave an empty aggregate");
  }
  agg->members.erase(it);
  RebuildMacro(agg);
  return Status::OK();
}

Result<std::vector<ScheduledFlexOffer>> Disaggregate(
    const AggregatedFlexOffer& agg, const ScheduledFlexOffer& schedule) {
  MIRABEL_RETURN_IF_ERROR(schedule.ValidateAgainst(agg.macro));

  // Per-slice fill fraction f in [0, 1]: how far the scheduled energy sits
  // inside the aggregated [min, max] band.
  std::vector<double> fraction(agg.macro.profile.size(), 0.0);
  for (size_t j = 0; j < agg.macro.profile.size(); ++j) {
    const auto& band = agg.macro.profile[j];
    double width = band.Flexibility();
    fraction[j] =
        width > 1e-12 ? (schedule.energies_kwh[j] - band.min_kwh) / width : 0.0;
    // Guard against rounding outside [0, 1].
    fraction[j] = std::min(1.0, std::max(0.0, fraction[j]));
  }

  std::vector<ScheduledFlexOffer> out;
  out.reserve(agg.members.size());
  for (const auto& m : agg.members) {
    ScheduledFlexOffer s;
    s.offer_id = m.offer.id;
    s.start = schedule.start + m.offset;
    s.energies_kwh.reserve(m.offer.profile.size());
    for (int64_t j = 0; j < m.offer.Duration(); ++j) {
      const auto& band = m.offer.profile[static_cast<size_t>(j)];
      double f = fraction[static_cast<size_t>(m.offset + j)];
      s.energies_kwh.push_back(band.min_kwh + f * band.Flexibility());
    }
    MIRABEL_RETURN_IF_ERROR(s.ValidateAgainst(m.offer));
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace mirabel::aggregation

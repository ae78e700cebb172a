#include "flexoffer/flex_offer.h"

#include <cmath>
#include <cstdio>

namespace mirabel::flexoffer {

double FlexOffer::TotalMinEnergy() const {
  double acc = 0.0;
  for (const auto& r : profile) acc += r.min_kwh;
  return acc;
}

double FlexOffer::TotalMaxEnergy() const {
  double acc = 0.0;
  for (const auto& r : profile) acc += r.max_kwh;
  return acc;
}

double FlexOffer::TotalEnergyFlexibility() const {
  double acc = 0.0;
  for (const auto& r : profile) acc += r.Flexibility();
  return acc;
}

Status FlexOffer::Validate() const {
  if (id == 0) {
    return Status::InvalidArgument("flex-offer id 0 is reserved");
  }
  if (profile.empty()) {
    return Status::InvalidArgument("flex-offer profile is empty");
  }
  for (size_t i = 0; i < profile.size(); ++i) {
    if (profile[i].min_kwh > profile[i].max_kwh) {
      return Status::InvalidArgument("slice " + std::to_string(i) +
                                     " has min > max");
    }
    if (!std::isfinite(profile[i].min_kwh) ||
        !std::isfinite(profile[i].max_kwh)) {
      return Status::InvalidArgument("slice " + std::to_string(i) +
                                     " has non-finite energy bound");
    }
  }
  if (!std::isfinite(unit_price_eur)) {
    return Status::InvalidArgument("unit price is not finite");
  }
  if (earliest_start > latest_start) {
    return Status::InvalidArgument("earliest_start > latest_start");
  }
  if (creation_time > assignment_before) {
    return Status::InvalidArgument("creation_time > assignment_before");
  }
  if (assignment_before > latest_start) {
    return Status::InvalidArgument("assignment_before > latest_start");
  }
  return Status::OK();
}

std::string FlexOffer::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "FlexOffer{id=%llu owner=%llu start=[%s..%s] dur=%lld "
                "e=[%.2f..%.2f]kWh}",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(owner),
                FormatTimeSlice(earliest_start).c_str(),
                FormatTimeSlice(latest_start).c_str(),
                static_cast<long long>(Duration()), TotalMinEnergy(),
                TotalMaxEnergy());
  return buf;
}

double ScheduledFlexOffer::TotalEnergy() const {
  double acc = 0.0;
  for (double e : energies_kwh) acc += e;
  return acc;
}

Status ScheduledFlexOffer::ValidateAgainst(const FlexOffer& offer) const {
  constexpr double kTol = 1e-9;
  if (offer_id != offer.id) {
    return Status::InvalidArgument("schedule refers to a different offer");
  }
  if (start < offer.earliest_start || start > offer.latest_start) {
    return Status::OutOfRange("scheduled start outside time flexibility");
  }
  if (energies_kwh.size() != offer.profile.size()) {
    return Status::InvalidArgument("schedule slice count mismatch");
  }
  for (size_t i = 0; i < energies_kwh.size(); ++i) {
    // NaN fails both band comparisons below, so reject it explicitly.
    if (!std::isfinite(energies_kwh[i])) {
      return Status::InvalidArgument(
          "scheduled energy is not finite at slice " + std::to_string(i));
    }
    if (energies_kwh[i] < offer.profile[i].min_kwh - kTol ||
        energies_kwh[i] > offer.profile[i].max_kwh + kTol) {
      return Status::OutOfRange("scheduled energy outside band at slice " +
                                std::to_string(i));
    }
  }
  return Status::OK();
}

ScheduledFlexOffer FallbackSchedule(const FlexOffer& offer) {
  ScheduledFlexOffer s;
  s.offer_id = offer.id;
  s.start = offer.earliest_start;
  s.energies_kwh.reserve(offer.profile.size());
  for (const auto& r : offer.profile) s.energies_kwh.push_back(r.max_kwh);
  return s;
}

FlexOfferBuilder::FlexOfferBuilder(FlexOfferId id) { offer_.id = id; }

FlexOfferBuilder& FlexOfferBuilder::OwnedBy(ActorId owner) {
  offer_.owner = owner;
  return *this;
}

FlexOfferBuilder& FlexOfferBuilder::CreatedAt(TimeSlice t) {
  offer_.creation_time = t;
  return *this;
}

FlexOfferBuilder& FlexOfferBuilder::AssignBefore(TimeSlice t) {
  offer_.assignment_before = t;
  assignment_set_ = true;
  return *this;
}

FlexOfferBuilder& FlexOfferBuilder::StartWindow(TimeSlice earliest,
                                                TimeSlice latest) {
  offer_.earliest_start = earliest;
  offer_.latest_start = latest;
  return *this;
}

FlexOfferBuilder& FlexOfferBuilder::AddSlice(double min_kwh, double max_kwh) {
  offer_.profile.push_back({min_kwh, max_kwh});
  return *this;
}

FlexOfferBuilder& FlexOfferBuilder::AddSlices(int count, double min_kwh,
                                              double max_kwh) {
  for (int i = 0; i < count; ++i) AddSlice(min_kwh, max_kwh);
  return *this;
}

FlexOfferBuilder& FlexOfferBuilder::UnitPrice(double eur_per_kwh) {
  offer_.unit_price_eur = eur_per_kwh;
  return *this;
}

FlexOffer FlexOfferBuilder::Build() const {
  FlexOffer out = offer_;
  if (!assignment_set_) {
    // Default: decisions are due when the start window opens.
    out.assignment_before = out.earliest_start;
  }
  return out;
}

}  // namespace mirabel::flexoffer

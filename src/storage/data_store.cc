#include "storage/data_store.h"

#include <algorithm>

namespace mirabel::storage {

using flexoffer::ActorId;
using flexoffer::FlexOfferId;
using flexoffer::TimeSlice;

TimeDim MakeTimeDim(TimeSlice slice, bool is_holiday) {
  TimeDim t;
  t.slice = slice;
  t.hour_of_day = flexoffer::HourOfDay(slice);
  t.slice_of_day = flexoffer::SliceOfDay(slice);
  t.day = flexoffer::DayOf(slice);
  t.day_of_week = flexoffer::DayOfWeek(slice);
  t.is_weekend = flexoffer::IsWeekend(slice);
  t.is_holiday = is_holiday;
  return t;
}

DataStore::DataStore()
    : actors_([](const ActorDim& a) { return a.id; }),
      energy_types_(
          [](const EnergyTypeDim& e) { return static_cast<int>(e.id); }),
      market_areas_([](const MarketAreaDim& m) { return m.id; }),
      flex_offers_([](const FlexOfferFact& f) { return f.id; }) {}

Status DataStore::AddActor(const ActorDim& actor) {
  return actors_.Insert(actor);
}

Result<const ActorDim*> DataStore::FindActor(ActorId id) const {
  return actors_.Find(id);
}

std::vector<ActorDim> DataStore::ActorsUnder(ActorId parent) const {
  return actors_.Scan(
      [parent](const ActorDim& a) { return a.parent == parent; });
}

Status DataStore::AddEnergyType(const EnergyTypeDim& type) {
  return energy_types_.Insert(type);
}

Status DataStore::AddMarketArea(const MarketAreaDim& area) {
  return market_areas_.Insert(area);
}

Result<const MarketAreaDim*> DataStore::FindMarketArea(int64_t id) const {
  return market_areas_.Find(id);
}

int64_t DataStore::AppendMeasurement(ActorId actor, TimeSlice slice,
                                     EnergyType type, double energy_kwh) {
  MeasurementFact& fact = measurements_.emplace_back();
  fact.id = static_cast<int64_t>(measurements_.size());
  fact.actor = actor;
  fact.slice = slice;
  fact.energy_type = type;
  fact.energy_kwh = energy_kwh;
  return fact.id;
}

std::vector<double> DataStore::MeasurementSeries(ActorId actor, EnergyType type,
                                                 TimeSlice from,
                                                 TimeSlice to) const {
  size_t n = to > from ? static_cast<size_t>(to - from) : 0;
  std::vector<double> out(n, 0.0);
  for (const MeasurementFact& m : measurements_) {
    if (m.actor != actor || m.energy_type != type) continue;
    if (m.slice < from || m.slice >= to) continue;
    out[static_cast<size_t>(m.slice - from)] += m.energy_kwh;
  }
  return out;
}

Result<size_t> DataStore::PutFlexOffer(const flexoffer::FlexOffer& offer) {
  MIRABEL_RETURN_IF_ERROR(offer.Validate());
  FlexOfferFact fact;
  fact.id = offer.id;
  fact.offer = offer;
  fact.state = FlexOfferState::kOffered;
  MIRABEL_RETURN_IF_ERROR(flex_offers_.Insert(std::move(fact)));
  const size_t row = flex_offers_.size() - 1;
  if (pending_.built) pending_.Push(offer.assignment_before, row);
  return row;
}

Result<const FlexOfferFact*> DataStore::FindFlexOffer(FlexOfferId id) const {
  return flex_offers_.Find(id);
}

namespace {

bool LegalTransition(FlexOfferState from, FlexOfferState to) {
  switch (from) {
    case FlexOfferState::kOffered:
      // kExpired covers the lost-acceptance case: the owner never heard
      // back and the assignment deadline passed.
      return to == FlexOfferState::kAccepted ||
             to == FlexOfferState::kRejected ||
             to == FlexOfferState::kExpired;
    case FlexOfferState::kAccepted:
      return to == FlexOfferState::kAggregated ||
             to == FlexOfferState::kExpired;
    case FlexOfferState::kAggregated:
      // kScheduled is entered only by AttachSchedule, which sets the
      // schedule the metering and timeout paths read.
      return to == FlexOfferState::kExpired;
    case FlexOfferState::kScheduled:
      return to == FlexOfferState::kExecuted ||
             to == FlexOfferState::kExpired;
    case FlexOfferState::kExecuted:
    case FlexOfferState::kExpired:
    case FlexOfferState::kRejected:
      return false;
  }
  return false;
}

Status NoRow(size_t row) {
  return Status::NotFound("no flex-offer row " + std::to_string(row));
}

}  // namespace

Status DataStore::TransitionFlexOffer(FlexOfferId id, FlexOfferState to) {
  MIRABEL_ASSIGN_OR_RETURN(size_t row, flex_offers_.Position(id));
  return TransitionFlexOfferAt(row, to);
}

Status DataStore::TransitionFlexOfferAt(size_t row, FlexOfferState to) {
  FlexOfferFact* fact = MutableFlexOfferAt(row);
  if (fact == nullptr) return NoRow(row);
  if (!LegalTransition(fact->state, to)) {
    return Status::FailedPrecondition(
        "illegal flex-offer state transition for offer " +
        std::to_string(fact->id));
  }
  fact->state = to;
  return Status::OK();
}

Status DataStore::AttachSchedule(const flexoffer::ScheduledFlexOffer& schedule) {
  MIRABEL_ASSIGN_OR_RETURN(size_t row,
                           flex_offers_.Position(schedule.offer_id));
  return AttachScheduleAt(row, schedule);
}

Status DataStore::AttachScheduleAt(
    size_t row, const flexoffer::ScheduledFlexOffer& schedule) {
  FlexOfferFact* fact = MutableFlexOfferAt(row);
  if (fact == nullptr) return NoRow(row);
  MIRABEL_RETURN_IF_ERROR(schedule.ValidateAgainst(fact->offer));
  if (fact->state != FlexOfferState::kAccepted &&
      fact->state != FlexOfferState::kAggregated) {
    return Status::FailedPrecondition(
        "offer is not awaiting a schedule");
  }
  fact->schedule = schedule;
  fact->state = FlexOfferState::kScheduled;
  if (scheduled_.built) scheduled_.Push(ScheduleEnd(*fact), row);
  return Status::OK();
}

Status DataStore::SetAgreedPrice(FlexOfferId id, double price_eur) {
  MIRABEL_ASSIGN_OR_RETURN(size_t row, flex_offers_.Position(id));
  return SetAgreedPriceAt(row, price_eur);
}

Status DataStore::SetAgreedPriceAt(size_t row, double price_eur) {
  FlexOfferFact* fact = MutableFlexOfferAt(row);
  if (fact == nullptr) return NoRow(row);
  fact->agreed_price_eur = price_eur;
  return Status::OK();
}

std::vector<FlexOfferFact> DataStore::FlexOffersInState(
    FlexOfferState state) const {
  return flex_offers_.Scan(
      [state](const FlexOfferFact& f) { return f.state == state; });
}

int64_t DataStore::AppendPrice(int64_t market_area, TimeSlice slice,
                               double buy_eur, double sell_eur) {
  PriceFact& fact = prices_.emplace_back();
  fact.id = static_cast<int64_t>(prices_.size());
  fact.market_area = market_area;
  fact.slice = slice;
  fact.buy_price_eur = buy_eur;
  fact.sell_price_eur = sell_eur;
  return fact.id;
}

Result<PriceFact> DataStore::LatestPrice(int64_t market_area,
                                         TimeSlice slice) const {
  // Latest insertion (largest id) wins.
  auto it = std::find_if(prices_.rbegin(), prices_.rend(),
                         [market_area, slice](const PriceFact& p) {
                           return p.market_area == market_area &&
                                  p.slice == slice;
                         });
  if (it == prices_.rend()) return Status::NotFound("no price for slice");
  return *it;
}

int64_t DataStore::AddContract(ActorId prosumer, ActorId brp,
                               double tariff_eur_per_kwh, TimeSlice from,
                               TimeSlice to) {
  ContractFact& fact = contracts_.emplace_back();
  fact.id = static_cast<int64_t>(contracts_.size());
  fact.prosumer = prosumer;
  fact.brp = brp;
  fact.tariff_eur_per_kwh = tariff_eur_per_kwh;
  fact.valid_from = from;
  fact.valid_to = to;
  return fact.id;
}

Result<ContractFact> DataStore::OpenContract(ActorId prosumer,
                                             TimeSlice slice) const {
  // The latest covering contract (largest id) wins.
  auto it = std::find_if(contracts_.rbegin(), contracts_.rend(),
                         [prosumer, slice](const ContractFact& c) {
                           return c.prosumer == prosumer &&
                                  c.valid_from <= slice && slice < c.valid_to;
                         });
  if (it == contracts_.rend()) return Status::NotFound("no open contract");
  return *it;
}

}  // namespace mirabel::storage

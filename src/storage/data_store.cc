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
      measurements_([](const MeasurementFact& m) { return m.id; }),
      flex_offers_([](const FlexOfferFact& f) { return f.id; }),
      prices_([](const PriceFact& p) { return p.id; }),
      contracts_([](const ContractFact& c) { return c.id; }) {}

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
  MeasurementFact fact;
  fact.id = next_measurement_id_++;
  fact.actor = actor;
  fact.slice = slice;
  fact.energy_type = type;
  fact.energy_kwh = energy_kwh;
  Status st = measurements_.Insert(std::move(fact));
  (void)st;  // fresh id: cannot collide
  return next_measurement_id_ - 1;
}

std::vector<double> DataStore::MeasurementSeries(ActorId actor, EnergyType type,
                                                 TimeSlice from,
                                                 TimeSlice to) const {
  size_t n = to > from ? static_cast<size_t>(to - from) : 0;
  std::vector<double> out(n, 0.0);
  measurements_.ForEach([&](const MeasurementFact& m) {
    if (m.actor != actor || m.energy_type != type) return;
    if (m.slice < from || m.slice >= to) return;
    out[static_cast<size_t>(m.slice - from)] += m.energy_kwh;
  });
  return out;
}

Status DataStore::PutFlexOffer(const flexoffer::FlexOffer& offer) {
  MIRABEL_RETURN_IF_ERROR(offer.Validate());
  FlexOfferFact fact;
  fact.id = offer.id;
  fact.offer = offer;
  fact.state = FlexOfferState::kOffered;
  MIRABEL_RETURN_IF_ERROR(flex_offers_.Insert(std::move(fact)));
  if (pending_.built) {
    pending_.Push(offer.assignment_before, flex_offers_.size() - 1);
  }
  return Status::OK();
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

}  // namespace

Status DataStore::TransitionFlexOffer(FlexOfferId id, FlexOfferState to) {
  MIRABEL_ASSIGN_OR_RETURN(FlexOfferFact * fact, flex_offers_.FindMutable(id));
  if (!LegalTransition(fact->state, to)) {
    return Status::FailedPrecondition(
        "illegal flex-offer state transition for offer " + std::to_string(id));
  }
  fact->state = to;
  return Status::OK();
}

Status DataStore::AttachSchedule(const flexoffer::ScheduledFlexOffer& schedule) {
  MIRABEL_ASSIGN_OR_RETURN(size_t row,
                           flex_offers_.Position(schedule.offer_id));
  FlexOfferFact& fact = flex_offers_.at(row);
  MIRABEL_RETURN_IF_ERROR(schedule.ValidateAgainst(fact.offer));
  if (fact.state != FlexOfferState::kAccepted &&
      fact.state != FlexOfferState::kAggregated) {
    return Status::FailedPrecondition(
        "offer is not awaiting a schedule");
  }
  fact.schedule = schedule;
  fact.state = FlexOfferState::kScheduled;
  if (scheduled_.built) scheduled_.Push(ScheduleEnd(fact), row);
  return Status::OK();
}

Status DataStore::SetAgreedPrice(FlexOfferId id, double price_eur) {
  MIRABEL_ASSIGN_OR_RETURN(FlexOfferFact * fact, flex_offers_.FindMutable(id));
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
  PriceFact fact;
  fact.id = next_price_id_++;
  fact.market_area = market_area;
  fact.slice = slice;
  fact.buy_price_eur = buy_eur;
  fact.sell_price_eur = sell_eur;
  Status st = prices_.Insert(std::move(fact));
  (void)st;
  return next_price_id_ - 1;
}

Result<PriceFact> DataStore::LatestPrice(int64_t market_area,
                                         TimeSlice slice) const {
  std::vector<PriceFact> hits =
      prices_.Scan([market_area, slice](const PriceFact& p) {
        return p.market_area == market_area && p.slice == slice;
      });
  if (hits.empty()) return Status::NotFound("no price for slice");
  // Latest insertion (largest id) wins.
  auto it = std::max_element(
      hits.begin(), hits.end(),
      [](const PriceFact& a, const PriceFact& b) { return a.id < b.id; });
  return *it;
}

int64_t DataStore::AddContract(ActorId prosumer, ActorId brp,
                               double tariff_eur_per_kwh, TimeSlice from,
                               TimeSlice to) {
  ContractFact fact;
  fact.id = next_contract_id_++;
  fact.prosumer = prosumer;
  fact.brp = brp;
  fact.tariff_eur_per_kwh = tariff_eur_per_kwh;
  fact.valid_from = from;
  fact.valid_to = to;
  Status st = contracts_.Insert(std::move(fact));
  (void)st;
  return next_contract_id_ - 1;
}

Result<ContractFact> DataStore::OpenContract(ActorId prosumer,
                                             TimeSlice slice) const {
  std::vector<ContractFact> hits =
      contracts_.Scan([prosumer, slice](const ContractFact& c) {
        return c.prosumer == prosumer && c.valid_from <= slice &&
               slice < c.valid_to;
      });
  if (hits.empty()) return Status::NotFound("no open contract");
  auto it = std::max_element(
      hits.begin(), hits.end(),
      [](const ContractFact& a, const ContractFact& b) { return a.id < b.id; });
  return *it;
}

}  // namespace mirabel::storage

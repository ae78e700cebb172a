#ifndef MIRABEL_STORAGE_DATA_STORE_H_
#define MIRABEL_STORAGE_DATA_STORE_H_

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "storage/schema.h"
#include "storage/table.h"

namespace mirabel::storage {

/// The LEDMS Data Management component (paper §3): "all historical and
/// current time demand/supply, forecasting model parameters, flex-offers,
/// price and contracts are stored and managed by the Data Management
/// component."
///
/// One DataStore instance backs one LEDMS node. It owns the dimension and
/// fact tables of the unified multidimensional schema and offers the typed
/// access paths the other components need:
///  * measurement append + per-actor time-series extraction (forecasting),
///  * flex-offer lifecycle transitions (control/aggregation/scheduling),
///  * price and contract bookkeeping (negotiation, fallback handling).
class DataStore {
 public:
  DataStore();

  // -- Dimensions ------------------------------------------------------------

  Status AddActor(const ActorDim& actor);
  Result<const ActorDim*> FindActor(flexoffer::ActorId id) const;
  /// Children of `parent` in the market hierarchy.
  std::vector<ActorDim> ActorsUnder(flexoffer::ActorId parent) const;

  Status AddEnergyType(const EnergyTypeDim& type);
  Status AddMarketArea(const MarketAreaDim& area);
  Result<const MarketAreaDim*> FindMarketArea(int64_t id) const;

  // -- Measurements ----------------------------------------------------------

  /// Appends a measurement; assigns the fact id.
  int64_t AppendMeasurement(flexoffer::ActorId actor,
                            flexoffer::TimeSlice slice, EnergyType type,
                            double energy_kwh);

  /// Per-slice energy of `actor` and `type` over [from, to), missing slices
  /// as 0. The forecasting component's input.
  std::vector<double> MeasurementSeries(flexoffer::ActorId actor,
                                        EnergyType type,
                                        flexoffer::TimeSlice from,
                                        flexoffer::TimeSlice to) const;

  size_t num_measurements() const { return measurements_.size(); }

  // -- Flex-offers -----------------------------------------------------------

  /// Stores a validated new offer in state kOffered and returns its row;
  /// AlreadyExists on duplicate id. Rows are append-only and never move: an
  /// offer's row is its insertion rank for the store's lifetime.
  Result<size_t> PutFlexOffer(const flexoffer::FlexOffer& offer);

  Result<const FlexOfferFact*> FindFlexOffer(flexoffer::FlexOfferId id) const;

  /// Legal lifecycle transitions: kOffered -> {kAccepted, kRejected,
  /// kExpired}, kAccepted -> {kAggregated, kExpired}, kAggregated ->
  /// {kExpired}, kScheduled -> {kExecuted, kExpired}. Only AttachSchedule
  /// enters kScheduled, so every scheduled offer carries its schedule.
  /// FailedPrecondition on anything else.
  Status TransitionFlexOffer(flexoffer::FlexOfferId id, FlexOfferState to);

  /// Attaches the schedule and moves the offer from kAccepted or kAggregated
  /// to kScheduled. The schedule must pass ValidateAgainst() its offer.
  Status AttachSchedule(const flexoffer::ScheduledFlexOffer& schedule);

  /// Records the negotiated price on the offer fact.
  Status SetAgreedPrice(flexoffer::FlexOfferId id, double price_eur);

  // Row-addressed forms of the calls above, for callers that keep the row
  // PutFlexOffer returned (the engine resolves each offer once per event).
  // They run the id forms' checks — the id forms are a lookup followed by
  // these calls — and return NotFound for a row past the table.

  /// The offer at `row` < num_flex_offers().
  const FlexOfferFact& FlexOfferAt(size_t row) const {
    return flex_offers_.at(row);
  }
  Status TransitionFlexOfferAt(size_t row, FlexOfferState to);
  /// Also checks that `schedule.offer_id` names the offer at `row`.
  Status AttachScheduleAt(size_t row,
                          const flexoffer::ScheduledFlexOffer& schedule);
  Status SetAgreedPriceAt(size_t row, double price_eur);

  /// Copies of all offers currently in `state`, in row order. A full-table
  /// scan for audits and checks; the tick and gate paths use the visitors
  /// below.
  std::vector<FlexOfferFact> FlexOffersInState(FlexOfferState state) const;

  /// Calls `fn(const FlexOfferFact&)` for every pending offer (kOffered,
  /// kAccepted or kAggregated) whose assignment deadline is at or before
  /// `now`, in row order: the candidates for the fallback-to-contract path.
  ///
  /// The visit pops only due entries of a deadline-ordered queue of pending
  /// rows, which the first visit builds, so its work does not grow with the
  /// offers that are not due or that left the pending states. `fn` may
  /// transition offers, attach schedules and put offers; a put invalidates
  /// the reference `fn` holds, and the new offer is seen from the next visit
  /// on. `fn` must not start another visit. A row an earlier `fn` moved out
  /// of the pending states is skipped; a row `fn` leaves pending is visited
  /// again by the next visit whose `now` reaches its deadline.
  template <typename Fn>
  void VisitPendingDueBy(flexoffer::TimeSlice now, Fn&& fn);

  /// The same contract over kScheduled offers whose schedule ends (start
  /// plus profile length) at or before `t`: the offers due for metering or
  /// past their execution timeout.
  template <typename Fn>
  void VisitScheduledEndingBy(flexoffer::TimeSlice t, Fn&& fn);

  /// Entries in each visitor's queue, stale ones included; 0 before the
  /// first visit. A visit examines only the entries that are due.
  size_t pending_queue_size() const { return pending_.heap.size(); }
  size_t scheduled_queue_size() const { return scheduled_.heap.size(); }

  /// A slice before which neither visitor can find a due offer: the least
  /// due slice in either queue, stale entries included. The lowest TimeSlice
  /// while a queue has not been built by its first visit; the highest when
  /// both queues are empty.
  flexoffer::TimeSlice EarliestDue() const {
    flexoffer::TimeSlice due = std::numeric_limits<flexoffer::TimeSlice>::max();
    for (const DueQueue* queue : {&pending_, &scheduled_}) {
      if (!queue->built) {
        return std::numeric_limits<flexoffer::TimeSlice>::min();
      }
      if (!queue->heap.empty()) due = std::min(due, queue->heap.front().first);
    }
    return due;
  }

  size_t num_flex_offers() const { return flex_offers_.size(); }

  // -- Prices / contracts -----------------------------------------------------
  // Append-only like measurements; both lookups return the latest matching
  // row.

  int64_t AppendPrice(int64_t market_area, flexoffer::TimeSlice slice,
                      double buy_eur, double sell_eur);
  /// Latest price row for (market_area, slice); NotFound when absent.
  Result<PriceFact> LatestPrice(int64_t market_area,
                                flexoffer::TimeSlice slice) const;

  int64_t AddContract(flexoffer::ActorId prosumer, flexoffer::ActorId brp,
                      double tariff_eur_per_kwh, flexoffer::TimeSlice from,
                      flexoffer::TimeSlice to);
  /// The open contract covering `prosumer` at `slice`; NotFound when none.
  Result<ContractFact> OpenContract(flexoffer::ActorId prosumer,
                                    flexoffer::TimeSlice slice) const;

 private:
  Table<ActorDim, flexoffer::ActorId> actors_;
  Table<EnergyTypeDim, int> energy_types_;
  Table<MarketAreaDim, int64_t> market_areas_;
  Table<FlexOfferFact, flexoffer::FlexOfferId> flex_offers_;
  // Facts that are only appended and scanned: their ids are their 1-based
  // insertion ranks, so they need no key index.
  std::vector<MeasurementFact> measurements_;
  std::vector<PriceFact> prices_;
  std::vector<ContractFact> contracts_;

  /// Min-heap of (due slice, row position) over `flex_offers_`. It holds one
  /// entry per row in the queue's states plus stale entries of rows that
  /// left them, which are dropped when they fall due; rows never re-enter a
  /// queue's states, so appending on insert is the only bookkeeping.
  struct DueQueue {
    bool built = false;
    std::vector<std::pair<flexoffer::TimeSlice, size_t>> heap;

    void Push(flexoffer::TimeSlice due, size_t row) {
      heap.emplace_back(due, row);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
  };

  static bool IsPending(const FlexOfferFact& f) {
    return f.state == FlexOfferState::kOffered ||
           f.state == FlexOfferState::kAccepted ||
           f.state == FlexOfferState::kAggregated;
  }
  static bool IsScheduled(const FlexOfferFact& f) {
    return f.state == FlexOfferState::kScheduled;
  }
  static flexoffer::TimeSlice Deadline(const FlexOfferFact& f) {
    return f.offer.assignment_before;
  }
  static flexoffer::TimeSlice ScheduleEnd(const FlexOfferFact& f) {
    return f.schedule.start +
           static_cast<flexoffer::TimeSlice>(f.schedule.energies_kwh.size());
  }

  template <auto InState, auto DueOf, typename Fn>
  void VisitDue(DueQueue& queue, flexoffer::TimeSlice t, Fn& fn);

  /// The fact at `row`, or nullptr past the table.
  FlexOfferFact* MutableFlexOfferAt(size_t row) {
    return row < flex_offers_.size() ? &flex_offers_.at(row) : nullptr;
  }

  /// Keyed by Deadline(); built by the first VisitPendingDueBy.
  DueQueue pending_;
  /// Keyed by ScheduleEnd(); built by the first VisitScheduledEndingBy.
  DueQueue scheduled_;
  /// The current visit's due rows, reused so that visits do not allocate.
  std::vector<size_t> due_rows_;
};

template <auto InState, auto DueOf, typename Fn>
void DataStore::VisitDue(DueQueue& queue, flexoffer::TimeSlice t, Fn& fn) {
  const auto& rows = flex_offers_;
  if (!queue.built) {
    for (size_t row = 0; row < rows.size(); ++row) {
      if (InState(rows.at(row))) queue.Push(DueOf(rows.at(row)), row);
    }
    queue.built = true;
  }
  // Pop the due entries, dropping stale ones, and restore row order: the
  // visit equals a full scan restricted to due rows.
  due_rows_.clear();
  while (!queue.heap.empty() && queue.heap.front().first <= t) {
    std::pop_heap(queue.heap.begin(), queue.heap.end(), std::greater<>());
    size_t row = queue.heap.back().second;
    queue.heap.pop_back();
    if (InState(rows.at(row))) due_rows_.push_back(row);
  }
  std::sort(due_rows_.begin(), due_rows_.end());
  for (size_t row : due_rows_) {
    if (!InState(rows.at(row))) continue;
    fn(rows.at(row));
    // Re-read the row: a put inside `fn` may have moved the rows.
    if (InState(rows.at(row))) queue.Push(DueOf(rows.at(row)), row);
  }
}

template <typename Fn>
void DataStore::VisitPendingDueBy(flexoffer::TimeSlice now, Fn&& fn) {
  VisitDue<IsPending, Deadline>(pending_, now, fn);
}

template <typename Fn>
void DataStore::VisitScheduledEndingBy(flexoffer::TimeSlice t, Fn&& fn) {
  VisitDue<IsScheduled, ScheduleEnd>(scheduled_, t, fn);
}

}  // namespace mirabel::storage

#endif  // MIRABEL_STORAGE_DATA_STORE_H_

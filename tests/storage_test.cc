#include "storage/data_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/table.h"
#include "test_util.h"

namespace mirabel::storage {
namespace {

using flexoffer::FlexOffer;
using flexoffer::FlexOfferId;
using flexoffer::ScheduledFlexOffer;
using flexoffer::TimeSlice;

TEST(TableTest, ScanFilters) {
  struct Row {
    int64_t id;
    bool flag;
  };
  Table<Row> table([](const Row& r) { return r.id; });
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(table.Insert({i, i % 2 == 0}).ok());
  }
  auto hits = table.Scan([](const Row& r) { return r.flag; });
  EXPECT_EQ(hits.size(), 5u);
}

TEST(TimeDimTest, DenormalisedAttributes) {
  TimeDim t = MakeTimeDim(flexoffer::DaysToSlices(5) + 37, true);
  EXPECT_EQ(t.day, 5);
  EXPECT_EQ(t.day_of_week, 5);
  EXPECT_TRUE(t.is_weekend);
  EXPECT_TRUE(t.is_holiday);
  EXPECT_EQ(t.hour_of_day, 9);
  EXPECT_EQ(t.slice_of_day, 37);
}

TEST(DataStoreTest, ActorHierarchy) {
  DataStore store;
  ASSERT_TRUE(store.AddActor({1, "tso", ActorRole::kTransmissionSystemOperator, 0}).ok());
  ASSERT_TRUE(store.AddActor({2, "brp", ActorRole::kBalanceResponsibleParty, 1}).ok());
  ASSERT_TRUE(store.AddActor({3, "alice", ActorRole::kProsumer, 2}).ok());
  ASSERT_TRUE(store.AddActor({4, "bob", ActorRole::kProsumer, 2}).ok());
  EXPECT_EQ(store.AddActor({1, "dup", ActorRole::kProsumer, 0}).code(),
            StatusCode::kAlreadyExists);
  auto kids = store.ActorsUnder(2);
  EXPECT_EQ(kids.size(), 2u);
  ASSERT_TRUE(store.FindActor(3).ok());
  EXPECT_FALSE(store.FindActor(99).ok());
}

TEST(DataStoreTest, MeasurementSeriesAccumulates) {
  DataStore store;
  store.AppendMeasurement(1, 10, EnergyType::kConsumption, 2.0);
  store.AppendMeasurement(1, 10, EnergyType::kConsumption, 1.0);
  store.AppendMeasurement(1, 11, EnergyType::kConsumption, 5.0);
  store.AppendMeasurement(1, 11, EnergyType::kProductionWind, 9.0);
  store.AppendMeasurement(2, 10, EnergyType::kConsumption, 7.0);
  auto series = store.MeasurementSeries(1, EnergyType::kConsumption, 10, 13);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 3.0);
  EXPECT_DOUBLE_EQ(series[1], 5.0);
  EXPECT_DOUBLE_EQ(series[2], 0.0);
}

FlexOffer MakeOffer(uint64_t id) {
  return testutil::OwnedOffer(id, /*owner=*/0, /*assign_before=*/8,
                              /*earliest=*/10, /*latest=*/20);
}

TEST(DataStoreTest, FlexOfferLifecycleHappyPath) {
  DataStore store;
  ASSERT_TRUE(store.PutFlexOffer(MakeOffer(1)).ok());
  EXPECT_EQ(store.PutFlexOffer(MakeOffer(1)).status().code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(store.TransitionFlexOffer(1, FlexOfferState::kAccepted).ok());
  ASSERT_TRUE(store.TransitionFlexOffer(1, FlexOfferState::kAggregated).ok());
  ScheduledFlexOffer s{1, 12, {1.5, 1.5}};
  ASSERT_TRUE(store.AttachSchedule(s).ok());
  EXPECT_EQ((*store.FindFlexOffer(1))->state, FlexOfferState::kScheduled);
  ASSERT_TRUE(store.TransitionFlexOffer(1, FlexOfferState::kExecuted).ok());
}

TEST(DataStoreTest, IllegalTransitionsRejected) {
  DataStore store;
  ASSERT_TRUE(store.PutFlexOffer(MakeOffer(1)).ok());
  // Offered -> Scheduled skips acceptance.
  EXPECT_EQ(store.TransitionFlexOffer(1, FlexOfferState::kScheduled).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(store.TransitionFlexOffer(1, FlexOfferState::kRejected).ok());
  // Only AttachSchedule enters kScheduled: a bare transition would leave the
  // offer without the schedule its metering reads.
  ASSERT_TRUE(store.PutFlexOffer(MakeOffer(2)).ok());
  ASSERT_TRUE(store.TransitionFlexOffer(2, FlexOfferState::kAccepted).ok());
  ASSERT_TRUE(store.TransitionFlexOffer(2, FlexOfferState::kAggregated).ok());
  EXPECT_EQ(store.TransitionFlexOffer(2, FlexOfferState::kScheduled).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*store.FindFlexOffer(2))->state, FlexOfferState::kAggregated);
  // Terminal states admit nothing.
  EXPECT_FALSE(store.TransitionFlexOffer(1, FlexOfferState::kAccepted).ok());
  EXPECT_EQ(store.TransitionFlexOffer(42, FlexOfferState::kAccepted).code(),
            StatusCode::kNotFound);
}

TEST(DataStoreTest, RowAddressedMutatorsMatchIdForms) {
  DataStore store;
  for (uint64_t id : {30u, 10u, 20u}) {
    Result<size_t> row = store.PutFlexOffer(MakeOffer(id));
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(*row, store.num_flex_offers() - 1);  // rows are insertion ranks
  }
  const size_t row = 1;  // offer 10
  EXPECT_EQ(store.FlexOfferAt(row).id, 10u);
  EXPECT_EQ(store.TransitionFlexOfferAt(row, FlexOfferState::kScheduled).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(store.TransitionFlexOfferAt(row, FlexOfferState::kAccepted).ok());
  ASSERT_TRUE(store.SetAgreedPriceAt(row, 0.75).ok());
  EXPECT_DOUBLE_EQ((*store.FindFlexOffer(10))->agreed_price_eur, 0.75);
  // The schedule must fit the offer and name it.
  EXPECT_FALSE(store.AttachScheduleAt(row, {10, 30, {1.5, 1.5}}).ok());
  EXPECT_FALSE(store.AttachScheduleAt(row, {20, 12, {1.5, 1.5}}).ok());
  ASSERT_TRUE(store.AttachScheduleAt(row, {10, 12, {1.5, 1.5}}).ok());
  EXPECT_EQ(store.FlexOfferAt(row).state, FlexOfferState::kScheduled);
  EXPECT_EQ(store.FlexOfferAt(row).schedule.start, 12);
  ASSERT_TRUE(store.TransitionFlexOfferAt(row, FlexOfferState::kExecuted).ok());
  EXPECT_FALSE(store.TransitionFlexOfferAt(row, FlexOfferState::kExpired).ok());
  // The other rows did not move.
  EXPECT_EQ(store.FlexOfferAt(0).state, FlexOfferState::kOffered);
  EXPECT_EQ(store.FlexOfferAt(2).state, FlexOfferState::kOffered);
  // A row past the table is NotFound.
  EXPECT_EQ(store.TransitionFlexOfferAt(3, FlexOfferState::kAccepted).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store.AttachScheduleAt(3, {10, 12, {1.5, 1.5}}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store.SetAgreedPriceAt(3, 1.0).code(), StatusCode::kNotFound);
}

TEST(DataStoreTest, AttachScheduleValidatesAgainstOffer) {
  DataStore store;
  ASSERT_TRUE(store.PutFlexOffer(MakeOffer(1)).ok());
  ASSERT_TRUE(store.TransitionFlexOffer(1, FlexOfferState::kAccepted).ok());
  ScheduledFlexOffer bad{1, 30, {1.5, 1.5}};  // start outside window
  EXPECT_FALSE(store.AttachSchedule(bad).ok());
  ScheduledFlexOffer unknown{7, 12, {1.5, 1.5}};
  EXPECT_EQ(store.AttachSchedule(unknown).code(), StatusCode::kNotFound);
}

std::vector<FlexOfferId> PendingDueIds(DataStore& store, TimeSlice now) {
  std::vector<FlexOfferId> ids;
  store.VisitPendingDueBy(
      now, [&](const FlexOfferFact& f) { ids.push_back(f.id); });
  return ids;
}

TEST(DataStoreTest, PendingDueQuery) {
  DataStore store;
  ASSERT_TRUE(store.PutFlexOffer(MakeOffer(1)).ok());  // deadline 8
  ASSERT_TRUE(store.PutFlexOffer(MakeOffer(2)).ok());
  ASSERT_TRUE(store.TransitionFlexOffer(2, FlexOfferState::kAccepted).ok());
  FlexOffer late = MakeOffer(3);
  late.assignment_before = 15;  // still within the window, later than 1/2
  ASSERT_TRUE(store.PutFlexOffer(late).ok());

  EXPECT_EQ(PendingDueIds(store, 7).size(), 0u);
  auto expired = PendingDueIds(store, 8);
  EXPECT_EQ(expired.size(), 2u);  // offers 1 and 2; offer 3 not yet due

  // Scheduled offers never expire via this query.
  ScheduledFlexOffer s{2, 12, {1.5, 1.5}};
  ASSERT_TRUE(store.AttachSchedule(s).ok());
  EXPECT_EQ(PendingDueIds(store, 8).size(), 1u);
}

TEST(DataStoreTest, AgreedPriceStored) {
  DataStore store;
  ASSERT_TRUE(store.PutFlexOffer(MakeOffer(1)).ok());
  ASSERT_TRUE(store.SetAgreedPrice(1, 1.25).ok());
  EXPECT_DOUBLE_EQ((*store.FindFlexOffer(1))->agreed_price_eur, 1.25);
  EXPECT_FALSE(store.SetAgreedPrice(9, 1.0).ok());
}

TEST(DataStoreTest, LatestPriceWins) {
  DataStore store;
  store.AppendPrice(1, 100, 0.10, 0.05);
  store.AppendPrice(1, 100, 0.12, 0.06);
  store.AppendPrice(2, 100, 0.50, 0.40);
  auto price = store.LatestPrice(1, 100);
  ASSERT_TRUE(price.ok());
  EXPECT_DOUBLE_EQ(price->buy_price_eur, 0.12);
  EXPECT_FALSE(store.LatestPrice(1, 101).ok());
}

TEST(DataStoreTest, OpenContractCoversSliceRange) {
  DataStore store;
  store.AddContract(5, 100, 0.25, 0, 1000);
  auto hit = store.OpenContract(5, 500);
  ASSERT_TRUE(hit.ok());
  EXPECT_DOUBLE_EQ(hit->tariff_eur_per_kwh, 0.25);
  EXPECT_FALSE(store.OpenContract(5, 1000).ok());  // exclusive end
  EXPECT_FALSE(store.OpenContract(6, 500).ok());
}

TEST(DataStoreTest, FlexOffersInState) {
  DataStore store;
  for (uint64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(store.PutFlexOffer(MakeOffer(id)).ok());
  }
  ASSERT_TRUE(store.TransitionFlexOffer(1, FlexOfferState::kAccepted).ok());
  ASSERT_TRUE(store.TransitionFlexOffer(2, FlexOfferState::kAccepted).ok());
  EXPECT_EQ(store.FlexOffersInState(FlexOfferState::kAccepted).size(), 2u);
  EXPECT_EQ(store.FlexOffersInState(FlexOfferState::kOffered).size(), 2u);
  EXPECT_EQ(store.num_flex_offers(), 4u);
}

// The visitors' reference: the full-table scans and the predicates the tick
// and gate paths used before the due queues, in row (insertion) order.
std::vector<FlexOfferId> PendingDueByScan(
    const DataStore& store, TimeSlice now,
    const std::map<FlexOfferId, size_t>& row_of) {
  std::vector<FlexOfferId> ids;
  for (FlexOfferState state :
       {FlexOfferState::kOffered, FlexOfferState::kAccepted,
        FlexOfferState::kAggregated}) {
    for (const FlexOfferFact& f : store.FlexOffersInState(state)) {
      if (f.offer.assignment_before <= now) ids.push_back(f.id);
    }
  }
  std::sort(ids.begin(), ids.end(), [&](FlexOfferId a, FlexOfferId b) {
    return row_of.at(a) < row_of.at(b);
  });
  return ids;
}

std::vector<FlexOfferId> ScheduledEndingByScan(const DataStore& store,
                                               TimeSlice t) {
  std::vector<FlexOfferId> ids;
  for (const FlexOfferFact& f :
       store.FlexOffersInState(FlexOfferState::kScheduled)) {
    TimeSlice end = f.schedule.start +
                    static_cast<TimeSlice>(f.schedule.energies_kwh.size());
    if (end <= t) ids.push_back(f.id);
  }
  return ids;
}

/// Seeded random operation sequences against both visitors: puts (deadlines
/// below earlier visits included), transitions legal and illegal, schedules
/// attached out of row order, and visits at non-monotonic slices whose
/// callbacks leave, advance, close, schedule or put offers.
class DueVisitorProperty {
 public:
  explicit DueVisitorProperty(uint64_t seed) : rng_(seed) {}

  /// Rows the checked visits passed to their callbacks, per visitor.
  size_t pending_visited() const { return pending_visited_; }
  size_t scheduled_visited() const { return scheduled_visited_; }

  void Run(int steps) {
    for (int step = 0; step < steps; ++step) {
      int64_t op = rng_.UniformInt(0, 9);
      if (op <= 2) {
        Put();
      } else if (op <= 4) {
        (void)store_.TransitionFlexOffer(
            RandomId(), static_cast<FlexOfferState>(rng_.UniformInt(0, 6)));
      } else if (op == 5) {
        Attach(RandomId());
      } else {
        Visit(/*pending=*/rng_.Bernoulli(0.5), rng_.UniformInt(-4, 90));
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

 private:
  FlexOfferId Put() {
    // Random ids, so that row order is not id order.
    FlexOfferId id = 0;
    do {
      id = static_cast<FlexOfferId>(rng_.UniformInt(1, 1000000));
    } while (row_of_.count(id) != 0);
    TimeSlice deadline = rng_.UniformInt(0, 60);
    TimeSlice earliest = deadline + rng_.UniformInt(0, 6);
    FlexOffer fo = testutil::OwnedOffer(
        id, /*owner=*/1, deadline, earliest,
        earliest + rng_.UniformInt(0, 12),
        static_cast<int>(rng_.UniformInt(1, 8)));
    EXPECT_TRUE(store_.PutFlexOffer(fo).ok());
    row_of_.emplace(id, ids_.size());
    ids_.push_back(id);
    return id;
  }

  FlexOfferId RandomId() {
    if (ids_.empty()) return Put();
    return ids_[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(ids_.size()) - 1))];
  }

  void Attach(FlexOfferId id) {
    const FlexOffer& fo = (*store_.FindFlexOffer(id))->offer;
    ScheduledFlexOffer s = flexoffer::FallbackSchedule(fo);
    s.start = rng_.UniformInt(fo.earliest_start, fo.latest_start);
    (void)store_.AttachSchedule(s);
  }

  std::vector<FlexOfferId> Reference(bool pending, TimeSlice t) const {
    return pending ? PendingDueByScan(store_, t, row_of_)
                   : ScheduledEndingByScan(store_, t);
  }

  void Visit(bool pending, TimeSlice t) {
    std::vector<FlexOfferId> expected = Reference(pending, t);
    std::vector<FlexOfferId> visited;
    std::vector<FlexOfferId> untouched;
    std::set<FlexOfferId> skipped;  // closed by the callback of an earlier row
    auto fn = [&](const FlexOfferFact& f) {
      FlexOfferId id = f.id;
      visited.push_back(id);
      switch (rng_.UniformInt(0, 5)) {
        case 0:  // close it
          EXPECT_TRUE(
              store_.TransitionFlexOffer(id, FlexOfferState::kExpired).ok());
          break;
        case 1:  // move it out of its state
          if (pending) {
            (void)store_.TransitionFlexOffer(
                id, f.state == FlexOfferState::kOffered
                        ? FlexOfferState::kAccepted
                        : FlexOfferState::kAggregated);
            Attach(id);
          } else {
            EXPECT_TRUE(
                store_.TransitionFlexOffer(id, FlexOfferState::kExecuted)
                    .ok());
          }
          break;
        case 2:  // keep it pending in the next state
          if (pending && f.state == FlexOfferState::kOffered) {
            ASSERT_TRUE(
                store_.TransitionFlexOffer(id, FlexOfferState::kAccepted)
                    .ok());
          }
          untouched.push_back(id);
          break;
        case 3:  // a put moves the rows under the visit
          Put();
          untouched.push_back(id);
          break;
        case 4: {  // close another offer: if due later in this visit, skip it
          FlexOfferId other = RandomId();
          if (other != id &&
              store_.TransitionFlexOffer(other, FlexOfferState::kExpired)
                  .ok()) {
            std::erase(untouched, other);
            if (row_of_.at(other) > row_of_.at(id)) skipped.insert(other);
          }
          untouched.push_back(id);
          break;
        }
        default:
          untouched.push_back(id);
          break;
      }
    };
    if (pending) {
      store_.VisitPendingDueBy(t, fn);
    } else {
      store_.VisitScheduledEndingBy(t, fn);
    }
    std::erase_if(expected,
                  [&](FlexOfferId id) { return skipped.count(id) > 0; });
    ASSERT_EQ(visited, expected) << (pending ? "pending" : "scheduled")
                                 << " visit at t=" << t;
    (pending ? pending_visited_ : scheduled_visited_) += visited.size();
    // What the callback left must come back on the next visit.
    std::vector<FlexOfferId> again;
    auto record = [&](const FlexOfferFact& f) { again.push_back(f.id); };
    if (pending) {
      store_.VisitPendingDueBy(t, record);
    } else {
      store_.VisitScheduledEndingBy(t, record);
    }
    ASSERT_EQ(again, Reference(pending, t));
    for (FlexOfferId id : untouched) {
      EXPECT_NE(std::find(again.begin(), again.end(), id), again.end())
          << "offer " << id << " left in its state was dropped";
    }
  }

  DataStore store_;
  Rng rng_;
  std::vector<FlexOfferId> ids_;  // in row order
  std::map<FlexOfferId, size_t> row_of_;
  size_t pending_visited_ = 0;
  size_t scheduled_visited_ = 0;
};

TEST(DataStoreTest, DueVisitorsEqualTheirScans) {
  for (uint64_t seed : {1u, 7u, 201u, 4242u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DueVisitorProperty property(seed);
    property.Run(/*steps=*/1500);
    if (HasFatalFailure()) return;
    // Guard against a vacuous run: both visitors saw many due rows.
    EXPECT_GT(property.pending_visited(), 1000u);
    EXPECT_GT(property.scheduled_visited(), 1000u);
  }
}

TEST(DataStoreTest, VisitWorkDoesNotGrowWithTerminalRows) {
  constexpr int kTerminal = 100000;
  DataStore store;
  int visits = 0;
  auto count = [&](const FlexOfferFact&) { ++visits; };
  store.VisitPendingDueBy(0, count);  // builds the (empty) queue
  store.VisitScheduledEndingBy(0, count);

  // 100,000 terminal offers whose stale entries fall due only at slice 50
  // (deadline) and 57 (schedule end).
  for (FlexOfferId id = 1; id <= kTerminal; ++id) {
    ASSERT_TRUE(
        store.PutFlexOffer(testutil::OwnedOffer(id, 1, 50, 55, 60)).ok());
    ASSERT_TRUE(store.TransitionFlexOffer(id, FlexOfferState::kAccepted).ok());
    ASSERT_TRUE(store.AttachSchedule({id, 55, {1.0, 1.0}}).ok());
    ASSERT_TRUE(store.TransitionFlexOffer(id, FlexOfferState::kExecuted).ok());
  }
  // One live offer, due at slice 8 and scheduled to end at slice 12.
  const FlexOfferId live = kTerminal + 1;
  ASSERT_TRUE(store.PutFlexOffer(MakeOffer(live)).ok());
  ASSERT_EQ(store.pending_queue_size(), size_t{kTerminal} + 1);

  store.VisitPendingDueBy(8, count);
  EXPECT_EQ(visits, 1);
  // The visit examined one entry and requeued it: the 100,000 stale entries
  // are not due yet and were not touched.
  EXPECT_EQ(store.pending_queue_size(), size_t{kTerminal} + 1);

  ASSERT_TRUE(store.TransitionFlexOffer(live, FlexOfferState::kAccepted).ok());
  ASSERT_TRUE(store.AttachSchedule({live, 10, {1.0, 1.0}}).ok());
  ASSERT_EQ(store.scheduled_queue_size(), size_t{kTerminal} + 1);
  visits = 0;
  store.VisitScheduledEndingBy(12, [&](const FlexOfferFact& f) {
    ++visits;
    ASSERT_TRUE(
        store.TransitionFlexOffer(f.id, FlexOfferState::kExecuted).ok());
  });
  EXPECT_EQ(visits, 1);
  EXPECT_EQ(store.scheduled_queue_size(), size_t{kTerminal});

  // Once due, stale entries are dropped in one pass and never examined
  // again.
  visits = 0;
  store.VisitPendingDueBy(60, count);
  store.VisitScheduledEndingBy(60, count);
  EXPECT_EQ(visits, 0);
  EXPECT_EQ(store.pending_queue_size(), 0u);
  EXPECT_EQ(store.scheduled_queue_size(), 0u);
}

}  // namespace
}  // namespace mirabel::storage

// Full transition-table coverage of the flex-offer lifecycle state machine:
// every legal edge succeeds, every illegal edge is FailedPrecondition, and
// the tracked counts stay consistent — through the slot entry points the
// engine uses.
#include "edms/offer_lifecycle.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <utility>
#include <vector>

namespace mirabel::edms {
namespace {

const OfferState kAllStates[] = {
    OfferState::kOffered,   OfferState::kAccepted, OfferState::kRejected,
    OfferState::kAggregated, OfferState::kScheduled, OfferState::kAssigned,
    OfferState::kExecuted,  OfferState::kExpired,
};

/// The specified relation, written out edge by edge (the implementation must
/// match this table, not the other way around).
const std::set<std::pair<OfferState, OfferState>> kLegalEdges = {
    {OfferState::kOffered, OfferState::kAccepted},
    {OfferState::kOffered, OfferState::kRejected},
    {OfferState::kOffered, OfferState::kExpired},
    {OfferState::kAccepted, OfferState::kAggregated},
    {OfferState::kAccepted, OfferState::kExpired},
    {OfferState::kAggregated, OfferState::kScheduled},
    {OfferState::kAggregated, OfferState::kExpired},
    {OfferState::kScheduled, OfferState::kAssigned},
    {OfferState::kScheduled, OfferState::kExpired},
    {OfferState::kAssigned, OfferState::kExecuted},
    {OfferState::kAssigned, OfferState::kExpired},
};

/// Drives a fresh lifecycle instance into `state` via the happy path.
void DriveTo(OfferLifecycle& lc, flexoffer::FlexOfferId id, OfferState state) {
  Result<OfferSlot> slot = lc.Begin(id);
  ASSERT_TRUE(slot.ok());
  std::vector<OfferState> path;
  switch (state) {
    case OfferState::kOffered:
      break;
    case OfferState::kRejected:
      path = {OfferState::kRejected};
      break;
    case OfferState::kExpired:
      path = {OfferState::kExpired};
      break;
    case OfferState::kExecuted:
      path = {OfferState::kAccepted, OfferState::kAggregated,
              OfferState::kScheduled, OfferState::kAssigned,
              OfferState::kExecuted};
      break;
    case OfferState::kAssigned:
      path = {OfferState::kAccepted, OfferState::kAggregated,
              OfferState::kScheduled, OfferState::kAssigned};
      break;
    case OfferState::kScheduled:
      path = {OfferState::kAccepted, OfferState::kAggregated,
              OfferState::kScheduled};
      break;
    case OfferState::kAggregated:
      path = {OfferState::kAccepted, OfferState::kAggregated};
      break;
    case OfferState::kAccepted:
      path = {OfferState::kAccepted};
      break;
  }
  for (OfferState next : path) {
    ASSERT_TRUE(lc.TransitionAt(*slot, next).ok())
        << "driving to " << ToString(state) << " via " << ToString(next);
  }
  ASSERT_EQ(lc.StateAt(*slot), state);
}

/// Runs the whole from x to table against a fresh lifecycle per edge. The
/// offer under test sits at slot 1, behind a bystander at slot 0 that must
/// never move.
TEST(OfferLifecycleTest, FullTransitionTableBySlot) {
  for (OfferState from : kAllStates) {
    for (OfferState to : kAllStates) {
      bool legal = kLegalEdges.count({from, to}) != 0;
      EXPECT_EQ(TransitionAllowed(from, to), legal)
          << ToString(from) << " -> " << ToString(to);

      // And the stateful object enforces exactly the same relation.
      OfferLifecycle lc;
      DriveTo(lc, 50, OfferState::kAccepted);
      DriveTo(lc, 7, from);
      std::optional<OfferSlot> slot = lc.SlotOf(7);
      ASSERT_TRUE(slot.has_value());
      ASSERT_EQ(*slot, 1u);
      Status st = lc.TransitionAt(*slot, to);
      if (legal) {
        ASSERT_TRUE(st.ok()) << ToString(from) << " -> " << ToString(to);
        EXPECT_EQ(lc.StateAt(*slot), to);
      } else {
        ASSERT_FALSE(st.ok()) << ToString(from) << " -> " << ToString(to);
        EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
        EXPECT_EQ(lc.StateAt(*slot), from);  // state untouched
      }
      EXPECT_EQ(lc.StateAt(0), OfferState::kAccepted);
      for (OfferState s : kAllStates) {
        size_t expected = (s == lc.StateAt(*slot) ? 1u : 0u) +
                          (s == OfferState::kAccepted ? 1u : 0u);
        EXPECT_EQ(lc.CountInState(s), expected) << ToString(s);
      }
    }
  }
}

TEST(OfferLifecycleTest, SlotsAreDenseAndCarryTheBoundRow) {
  OfferLifecycle lc;
  for (flexoffer::FlexOfferId id : {900u, 3u, 0u, 41u}) {
    Result<OfferSlot> slot = lc.Begin(id);
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(*slot, lc.size() - 1);
    EXPECT_EQ(lc.RowAt(*slot), OfferLifecycle::kNoRow);
  }
  EXPECT_EQ(*lc.SlotOf(900), 0u);
  EXPECT_EQ(*lc.SlotOf(0), 2u);
  EXPECT_FALSE(lc.SlotOf(4).has_value());
  lc.BindRow(*lc.SlotOf(41), 17);
  EXPECT_EQ(lc.RowAt(3), 17u);
  EXPECT_EQ(lc.RowAt(0), OfferLifecycle::kNoRow);
  // A failed Begin takes no slot.
  EXPECT_FALSE(lc.Begin(3).ok());
  EXPECT_EQ(lc.size(), 4u);
  EXPECT_EQ(*lc.SlotOf(3), 1u);
}

TEST(OfferLifecycleTest, TerminalStatesHaveNoOutgoingEdges) {
  for (OfferState from : kAllStates) {
    bool has_edge = false;
    for (OfferState to : kAllStates) {
      has_edge = has_edge || TransitionAllowed(from, to);
    }
    EXPECT_EQ(IsTerminal(from), !has_edge) << ToString(from);
  }
}

TEST(OfferLifecycleTest, EveryNonTerminalStateCanExpire) {
  for (OfferState from : kAllStates) {
    if (IsTerminal(from)) continue;
    EXPECT_TRUE(TransitionAllowed(from, OfferState::kExpired))
        << ToString(from);
  }
}

TEST(OfferLifecycleTest, BeginRejectsDuplicates) {
  OfferLifecycle lc;
  ASSERT_TRUE(lc.Begin(7).ok());
  Status dup = lc.Begin(7).status();
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

TEST(OfferLifecycleTest, UnknownOffersAreNotFound) {
  OfferLifecycle lc;
  EXPECT_FALSE(lc.SlotOf(99).has_value());
  ASSERT_TRUE(lc.Begin(98).ok());
  ASSERT_TRUE(lc.Begin(100).ok());
  EXPECT_FALSE(lc.SlotOf(99).has_value());
  EXPECT_EQ(lc.size(), 2u);
}

TEST(OfferLifecycleTest, CountsTrackTransitions) {
  OfferLifecycle lc;
  ASSERT_TRUE(lc.Begin(1).ok());
  ASSERT_TRUE(lc.Begin(2).ok());
  ASSERT_TRUE(lc.Begin(3).ok());
  EXPECT_EQ(lc.CountInState(OfferState::kOffered), 3u);
  ASSERT_TRUE(lc.TransitionAt(*lc.SlotOf(1), OfferState::kAccepted).ok());
  ASSERT_TRUE(lc.TransitionAt(*lc.SlotOf(2), OfferState::kRejected).ok());
  EXPECT_EQ(lc.CountInState(OfferState::kOffered), 1u);
  EXPECT_EQ(lc.CountInState(OfferState::kAccepted), 1u);
  EXPECT_EQ(lc.CountInState(OfferState::kRejected), 1u);
  EXPECT_EQ(lc.size(), 3u);

  // A failed transition must not disturb the counts.
  ASSERT_FALSE(lc.TransitionAt(*lc.SlotOf(2), OfferState::kAccepted).ok());
  EXPECT_EQ(lc.CountInState(OfferState::kRejected), 1u);
  EXPECT_EQ(lc.CountInState(OfferState::kAccepted), 1u);
}

}  // namespace
}  // namespace mirabel::edms

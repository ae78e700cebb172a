#ifndef MIRABEL_EDMS_OFFER_LIFECYCLE_H_
#define MIRABEL_EDMS_OFFER_LIFECYCLE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "flexoffer/flex_offer.h"
#include "storage/flat_index.h"

namespace mirabel::edms {

/// States of the flex-offer life cycle driven by the EDMS Control component
/// (paper §2/§3): an offer is issued, negotiated, aggregated into a macro
/// offer, scheduled, the schedule is assigned back to the owner, and the
/// owner executes it. Rejection, execution and expiry are terminal.
enum class OfferState {
  /// Issued, awaiting the negotiation decision.
  kOffered = 0,
  /// Negotiation agreed; the offer sits in the aggregation pipeline.
  kAccepted = 1,
  /// Negotiation rejected (terminal; the prosumer keeps its tariff).
  kRejected = 2,
  /// Claimed by a macro offer at a gate closure.
  kAggregated = 3,
  /// The macro offer containing it has a schedule.
  kScheduled = 4,
  /// The disaggregated member schedule was assigned to the owner.
  kAssigned = 5,
  /// The owner executed the assigned schedule (terminal).
  kExecuted = 6,
  /// Timed out anywhere before execution; the owner falls back to the open
  /// contract (terminal).
  kExpired = 7,
};

inline constexpr int kNumOfferStates = 8;

std::string_view ToString(OfferState state);

/// True for states with no outgoing transitions.
bool IsTerminal(OfferState state);

/// The legal transition relation:
///   kOffered    -> kAccepted | kRejected | kExpired
///   kAccepted   -> kAggregated | kExpired
///   kAggregated -> kScheduled | kExpired
///   kScheduled  -> kAssigned | kExpired
///   kAssigned   -> kExecuted | kExpired
/// Everything else — including self-transitions and any move out of a
/// terminal state — is illegal.
bool TransitionAllowed(OfferState from, OfferState to);

/// Handle of an offer's lifecycle record: slots are dense, assigned in
/// admission order and never reused, so a slot stays valid for the
/// lifecycle's lifetime.
using OfferSlot = uint32_t;

/// Tracks the lifecycle state of every offer an engine has seen and enforces
/// the transition relation: illegal moves return FailedPrecondition and leave
/// the state untouched.
///
/// One record per admitted offer in a dense vector, addressed by its slot;
/// a flat id index (storage::FlatIndex) maps id -> slot. Callers resolve an
/// offer's slot once per event with SlotOf() and then use the slot calls.
/// Besides the state, a record keeps the row its owner stored the offer at
/// (BindRow), so one lookup also addresses the owner's store.
class OfferLifecycle {
 public:
  /// RowAt() of a record no row was bound to; above every table row
  /// (storage::Table caps rows at FlatIndex::kMaxValue).
  static constexpr size_t kNoRow = UINT32_MAX;

  /// Admits `id` in kOffered at slot size(); AlreadyExists for known ids,
  /// ResourceExhausted once the 32-bit slots run out.
  Result<OfferSlot> Begin(flexoffer::FlexOfferId id);

  /// Slot of `id`; nullopt when never admitted. Builds no error message, so
  /// a miss is as cheap as a hit.
  std::optional<OfferSlot> SlotOf(flexoffer::FlexOfferId id) const {
    return slots_.Find(id);
  }

  /// Moves the offer in `slot` (< size()) to `to`; FailedPrecondition for an
  /// illegal transition.
  Status TransitionAt(OfferSlot slot, OfferState to);

  OfferState StateAt(OfferSlot slot) const { return records_[slot].state; }

  /// Binds the owner's store row (< kNoRow) to the offer in `slot`.
  void BindRow(OfferSlot slot, size_t row) {
    records_[slot].row = static_cast<uint32_t>(row);
  }
  /// The row bound to `slot`; kNoRow before BindRow.
  size_t RowAt(OfferSlot slot) const { return records_[slot].row; }

  /// Number of tracked offers currently in `state`.
  size_t CountInState(OfferState state) const;

  size_t size() const { return records_.size(); }

 private:
  struct Record {
    flexoffer::FlexOfferId id = 0;
    uint32_t row = static_cast<uint32_t>(kNoRow);
    OfferState state = OfferState::kOffered;
  };
  static_assert(sizeof(Record) == 16);

  storage::FlatIndex<flexoffer::FlexOfferId> slots_;
  std::vector<Record> records_;
  size_t counts_[kNumOfferStates] = {};
};

}  // namespace mirabel::edms

#endif  // MIRABEL_EDMS_OFFER_LIFECYCLE_H_

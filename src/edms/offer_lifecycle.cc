#include "edms/offer_lifecycle.h"

#include <string>

namespace mirabel::edms {

using flexoffer::FlexOfferId;

std::string_view ToString(OfferState state) {
  switch (state) {
    case OfferState::kOffered:
      return "Offered";
    case OfferState::kAccepted:
      return "Accepted";
    case OfferState::kRejected:
      return "Rejected";
    case OfferState::kAggregated:
      return "Aggregated";
    case OfferState::kScheduled:
      return "Scheduled";
    case OfferState::kAssigned:
      return "Assigned";
    case OfferState::kExecuted:
      return "Executed";
    case OfferState::kExpired:
      return "Expired";
  }
  return "Unknown";
}

bool IsTerminal(OfferState state) {
  return state == OfferState::kRejected || state == OfferState::kExecuted ||
         state == OfferState::kExpired;
}

bool TransitionAllowed(OfferState from, OfferState to) {
  switch (from) {
    case OfferState::kOffered:
      return to == OfferState::kAccepted || to == OfferState::kRejected ||
             to == OfferState::kExpired;
    case OfferState::kAccepted:
      return to == OfferState::kAggregated || to == OfferState::kExpired;
    case OfferState::kAggregated:
      return to == OfferState::kScheduled || to == OfferState::kExpired;
    case OfferState::kScheduled:
      return to == OfferState::kAssigned || to == OfferState::kExpired;
    case OfferState::kAssigned:
      return to == OfferState::kExecuted || to == OfferState::kExpired;
    case OfferState::kRejected:
    case OfferState::kExecuted:
    case OfferState::kExpired:
      return false;
  }
  return false;
}

Result<OfferSlot> OfferLifecycle::Begin(FlexOfferId id) {
  if (records_.size() > storage::FlatIndex<FlexOfferId>::kMaxValue) {
    return Status::ResourceExhausted("offer lifecycle slots exhausted");
  }
  const OfferSlot slot = static_cast<OfferSlot>(records_.size());
  if (!slots_.Insert(id, slot)) {
    return Status::AlreadyExists("offer " + std::to_string(id) +
                                 " already has a lifecycle");
  }
  records_.push_back(Record{.id = id});
  ++counts_[static_cast<int>(OfferState::kOffered)];
  return slot;
}

Status OfferLifecycle::TransitionAt(OfferSlot slot, OfferState to) {
  Record& record = records_[slot];
  const OfferState from = record.state;
  if (!TransitionAllowed(from, to)) {
    return Status::FailedPrecondition(
        "illegal lifecycle transition " + std::string(ToString(from)) +
        " -> " + std::string(ToString(to)) + " for offer " +
        std::to_string(record.id));
  }
  record.state = to;
  --counts_[static_cast<int>(from)];
  ++counts_[static_cast<int>(to)];
  return Status::OK();
}

size_t OfferLifecycle::CountInState(OfferState state) const {
  return counts_[static_cast<int>(state)];
}

}  // namespace mirabel::edms

#ifndef MIRABEL_NODE_MESSAGE_H_
#define MIRABEL_NODE_MESSAGE_H_

#include <cstdint>
#include <string>

#include "flexoffer/flex_offer.h"

namespace mirabel::node {

/// Identifier of an EDMS node; nodes are actors, so the id spaces coincide.
using NodeId = flexoffer::ActorId;

/// Kinds of messages exchanged between LEDMS nodes (paper §3: "flex-offers,
/// supply and demand measurements, forecasts, etc.").
enum class MessageType {
  /// Prosumer -> BRP (or BRP -> TSO): a new flex-offer.
  kFlexOffer = 0,
  /// BRP -> prosumer: offer accepted at the quoted flexibility price.
  kFlexOfferAccepted = 1,
  /// BRP -> prosumer: offer rejected (prosumer keeps its tariff behaviour).
  kFlexOfferRejected = 2,
  /// Scheduler owner -> offer owner: the scheduled instantiation.
  kScheduledFlexOffer = 3,
  /// Prosumer -> BRP: metered energy of one slice.
  kMeasurement = 4,
  /// Transport-level delivery acknowledgement (ReliableChannel): `ack_id`
  /// names the acknowledged message. Never retried, never acked itself.
  kAck = 5,
  /// BRP -> prosumer: intake overloaded, the offer was shed before reaching
  /// an engine. `value` carries the suggested retry-after (slices); the
  /// prosumer resubmits with backoff.
  kNack = 6,
};

/// A message on the EDMS wide-area network. Exactly the fields implied by
/// `type` are meaningful; the struct is kept flat (no variant) so messages
/// are easy to build and log.
///
/// It is not trivially copyable: the offer and the schedule each hold a
/// vector. So payloads move. Senders move a message into
/// ReliableChannel::Send and MessageBus::Send, the bus stores it once, and the
/// recipient's handler gets it by mutable reference and may move the payload
/// out. The one copy is the one a ReliableChannel keeps for retransmission.
struct Message {
  MessageType type = MessageType::kFlexOffer;
  NodeId from = 0;
  NodeId to = 0;
  /// Slice at which the sender posted the message.
  flexoffer::TimeSlice sent_at = 0;

  /// Transport id, unique per sender (ReliableChannel stamps
  /// sender << 32 | sequence); 0 = untracked fire-and-forget. Retransmits
  /// reuse the id so receivers can dedupe redelivery.
  uint64_t id = 0;
  /// kAck / kNack: the transport id of the subject message.
  uint64_t ack_id = 0;
  /// True when the sender expects a kAck and will retry until one arrives.
  bool requires_ack = false;

  /// kFlexOffer payload.
  flexoffer::FlexOffer offer;
  /// kScheduledFlexOffer payload.
  flexoffer::ScheduledFlexOffer schedule;
  /// kFlexOfferAccepted: agreed flexibility price (EUR).
  /// kMeasurement: metered energy (kWh).
  /// kNack: suggested retry-after (slices).
  double value = 0.0;
  /// kFlexOfferAccepted / kFlexOfferRejected / kMeasurement / kNack:
  /// subject offer (0 for measurements not tied to an offer).
  flexoffer::FlexOfferId offer_id = 0;

  std::string ToString() const;
};

}  // namespace mirabel::node

#endif  // MIRABEL_NODE_MESSAGE_H_

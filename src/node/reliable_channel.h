#ifndef MIRABEL_NODE_RELIABLE_CHANNEL_H_
#define MIRABEL_NODE_RELIABLE_CHANNEL_H_

#include <cstdint>
#include <limits>
#include <map>

#include "common/rng.h"
#include "node/message_bus.h"
#include "storage/flat_index.h"

namespace mirabel::node {

/// Acked at-least-once delivery over the lossy MessageBus, deduped back to
/// exactly-once at the receiver.
///
/// One channel serves one node, on both sides of the wire:
///  * Sender side — Send() stamps a transport id, marks the message
///    ack-required and tracks it in flight; OnTick() retransmits unacked
///    messages with seeded exponential backoff + jitter and gives up into a
///    dead-letter counter after max_attempts (degradation then falls to the
///    deadline layer: owners fall back to their baseline profiles).
///  * Receiver side — Accept() acknowledges every ack-required delivery
///    (including redeliveries, whose earlier ack may have been lost),
///    consumes kAck messages, and suppresses duplicate transport ids so the
///    node's handlers stay idempotent.
///
/// The retry state machine per message:
///
///   in-flight --ack--> done
///   in-flight --timeout--> retransmit (attempts + 1, backoff doubled)
///   in-flight --attempts == max--> dead-letter (counted, logged)
///
/// Everything is seeded and slice-clocked, so a run is bit-reproducible.
/// With `enabled = false` the channel is a transparent passthrough (no ids,
/// no acks, no retries) — the pre-reliability wire format.
class ReliableChannel {
 public:
  struct Config {
    /// The owning node (stamped into transport ids and acks).
    NodeId self = 0;
    /// False: passthrough mode, Send() forwards untouched and Accept()
    /// forwards everything but stray acks.
    bool enabled = true;
    /// Total delivery attempts per message (first send included).
    int max_attempts = 5;
    /// Slices to wait for an ack before the first retransmit; must exceed
    /// one bus round trip (2 * latency) to avoid spurious retries.
    int64_t retry_timeout_slices = 4;
    /// Backoff cap: timeout * 2^(attempt-1) clamps here.
    int64_t max_backoff_slices = 32;
    /// Jitter fraction: up to jitter * backoff extra slices, seeded.
    double jitter = 0.25;
    uint64_t seed = 7;
  };

  struct Stats {
    /// Payload messages handed to Send() (first attempts only).
    int64_t sent = 0;
    int64_t retries = 0;
    int64_t acked = 0;
    /// Unacked messages abandoned after max_attempts, plus sends that were
    /// unroutable at the bus.
    int64_t dead_letters = 0;
    /// Redeliveries suppressed at the receiver.
    int64_t duplicates_dropped = 0;
    int64_t acks_sent = 0;
  };

  ReliableChannel(const Config& config, MessageBus* bus);

  /// Stamps the transport id, tracks the message and sends it. The bus gets
  /// a copy and the channel keeps `msg` for retransmission. An
  /// unroutable recipient (bus NotFound) fails immediately and counts as a
  /// dead letter — there is nobody to retry towards.
  Status Send(Message msg);

  /// Receiver-side filter, called on every inbound message BEFORE the
  /// node's handler logic. Returns true when the message should be handled;
  /// false for consumed acks and suppressed duplicates.
  bool Accept(const Message& msg);

  /// Retransmits every in-flight message whose retry timer expired at
  /// `now`; dead-letters those out of attempts. Returns at once while `now`
  /// is below every retry timer: such a pass would send nothing and draw no
  /// jitter.
  void OnTick(flexoffer::TimeSlice now) {
    if (now >= next_retry_) RetryDue(now);
  }

  size_t in_flight() const { return in_flight_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  struct Pending {
    Message msg;
    int attempts = 1;
    flexoffer::TimeSlice next_retry = 0;
  };

  /// timeout * 2^(attempt-1), clamped, plus seeded jitter.
  int64_t Backoff(int attempt);
  /// The pass of OnTick() over every in-flight message, in id order.
  void RetryDue(flexoffer::TimeSlice now);

  Config config_;
  MessageBus* bus_;
  Rng rng_;
  Stats stats_;
  uint64_t next_seq_ = 1;
  /// Ordered by transport id (== send order) so retransmit order is
  /// deterministic.
  std::map<uint64_t, Pending> in_flight_;
  /// A lower bound on every in-flight `next_retry`: Send() lowers it and
  /// each RetryDue() pass recomputes it. max() when nothing is in flight.
  flexoffer::TimeSlice next_retry_ =
      std::numeric_limits<flexoffer::TimeSlice>::max();
  /// Transport ids already delivered to the node's handlers (the mapped
  /// value is unused). A sender numbers all its sends from one counter, so a
  /// receiver sees a sparse subset of each sender's ids: every id is kept.
  storage::FlatIndex<uint64_t> seen_;
};

}  // namespace mirabel::node

#endif  // MIRABEL_NODE_RELIABLE_CHANNEL_H_

#include "node/reliable_channel.h"

#include <algorithm>

#include "common/logging.h"

namespace mirabel::node {

ReliableChannel::ReliableChannel(const Config& config, MessageBus* bus)
    : config_(config), bus_(bus), rng_(config.seed) {}

int64_t ReliableChannel::Backoff(int attempt) {
  int64_t base = config_.retry_timeout_slices;
  for (int i = 1; i < attempt && base < config_.max_backoff_slices; ++i) {
    base *= 2;
  }
  base = std::min(base, config_.max_backoff_slices);
  int64_t jitter_span =
      static_cast<int64_t>(config_.jitter * static_cast<double>(base));
  if (jitter_span > 0) base += rng_.UniformInt(0, jitter_span);
  return std::max<int64_t>(base, 1);
}

Status ReliableChannel::Send(Message msg) {
  if (!config_.enabled) return bus_->Send(std::move(msg));
  msg.id = (config_.self << 32) | next_seq_++;
  msg.requires_ack = true;
  ++stats_.sent;
  // The bus gets a copy; `msg` stays here for retransmission.
  Status st = bus_->Send(msg);
  if (!st.ok()) {
    // Unroutable: nobody to retry towards — dead-letter immediately.
    ++stats_.dead_letters;
    return st;
  }
  Pending pending;
  pending.next_retry = msg.sent_at + Backoff(1);
  next_retry_ = std::min(next_retry_, pending.next_retry);
  pending.msg = std::move(msg);
  in_flight_.emplace(pending.msg.id, std::move(pending));
  return st;
}

bool ReliableChannel::Accept(const Message& msg) {
  if (msg.type == MessageType::kAck) {
    // Stray acks (late, duplicate, or arriving with the channel disabled)
    // are consumed silently either way.
    if (config_.enabled && in_flight_.erase(msg.ack_id) > 0) ++stats_.acked;
    return false;
  }
  if (!config_.enabled) return true;
  if (msg.id != 0 && msg.requires_ack) {
    // Ack every delivery, duplicates included: the previous ack may itself
    // have been lost, and an unacked sender retries forever-ish.
    Message ack;
    ack.type = MessageType::kAck;
    ack.from = config_.self;
    ack.to = msg.from;
    ack.sent_at = bus_->now();
    ack.ack_id = msg.id;
    ++stats_.acks_sent;
    (void)bus_->Send(std::move(ack));
  }
  if (msg.id != 0 && !seen_.Insert(msg.id, 0)) {
    ++stats_.duplicates_dropped;
    return false;
  }
  return true;
}

void ReliableChannel::RetryDue(flexoffer::TimeSlice now) {
  next_retry_ = std::numeric_limits<flexoffer::TimeSlice>::max();
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    Pending& pending = it->second;
    if (pending.next_retry > now) {
      next_retry_ = std::min(next_retry_, pending.next_retry);
      ++it;
      continue;
    }
    if (pending.attempts >= config_.max_attempts) {
      ++stats_.dead_letters;
      MIRABEL_LOG(kWarning) << "node " << config_.self << " dead-letters "
                            << pending.msg.ToString() << " after "
                            << pending.attempts << " attempts";
      it = in_flight_.erase(it);
      continue;
    }
    ++pending.attempts;
    ++stats_.retries;
    pending.msg.sent_at = now;
    pending.next_retry = now + Backoff(pending.attempts);
    next_retry_ = std::min(next_retry_, pending.next_retry);
    (void)bus_->Send(pending.msg);
    ++it;
  }
}

}  // namespace mirabel::node

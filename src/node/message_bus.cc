#include "node/message_bus.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace mirabel::node {

std::string Message::ToString() const {
  const char* kind = "?";
  switch (type) {
    case MessageType::kFlexOffer:
      kind = "FlexOffer";
      break;
    case MessageType::kFlexOfferAccepted:
      kind = "Accepted";
      break;
    case MessageType::kFlexOfferRejected:
      kind = "Rejected";
      break;
    case MessageType::kScheduledFlexOffer:
      kind = "Scheduled";
      break;
    case MessageType::kMeasurement:
      kind = "Measurement";
      break;
    case MessageType::kAck:
      kind = "Ack";
      break;
    case MessageType::kNack:
      kind = "Nack";
      break;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "Message{%s %llu->%llu at=%s offer=%llu id=%llu}", kind,
                static_cast<unsigned long long>(from),
                static_cast<unsigned long long>(to),
                flexoffer::FormatTimeSlice(sent_at).c_str(),
                static_cast<unsigned long long>(
                    type == MessageType::kFlexOffer ? offer.id : offer_id),
                static_cast<unsigned long long>(id));
  return buf;
}

MessageBus::MessageBus() : MessageBus(Config()) {}

MessageBus::MessageBus(const Config& config)
    : config_(config), rng_(config.seed) {}

Status MessageBus::Register(NodeId id, Handler handler) {
  auto [it, inserted] = handlers_.emplace(id, std::move(handler));
  if (!inserted) {
    return Status::AlreadyExists("node " + std::to_string(id) +
                                 " already registered");
  }
  return Status::OK();
}

bool MessageBus::FaultDrops(const Message& msg) {
  const flexoffer::TimeSlice t = msg.sent_at;
  for (const FaultPlan::Blackout& b : config_.faults.blackouts) {
    if (t >= b.from && t < b.to && (msg.to == b.node || msg.from == b.node)) {
      return true;
    }
  }
  for (const FaultPlan::Partition& p : config_.faults.partitions) {
    if (t < p.from || t >= p.to) continue;
    bool from_in = std::find(p.island.begin(), p.island.end(), msg.from) !=
                   p.island.end();
    bool to_in =
        std::find(p.island.begin(), p.island.end(), msg.to) != p.island.end();
    if (from_in != to_in) return true;
  }
  for (const FaultPlan::DropWindow& w : config_.faults.drop_windows) {
    if (t < w.from || t >= w.to) continue;
    if (w.probability >= 1.0 || rng_.Bernoulli(w.probability)) return true;
  }
  return false;
}

int64_t MessageBus::FaultLatency(const Message& msg) const {
  int64_t extra = 0;
  for (const FaultPlan::LatencySpike& s : config_.faults.latency_spikes) {
    if (msg.sent_at >= s.from && msg.sent_at < s.to) extra += s.extra_slices;
  }
  return extra;
}

Status MessageBus::Send(Message msg) {
  if (handlers_.count(msg.to) == 0) {
    return Status::NotFound("unknown recipient node " + std::to_string(msg.to));
  }
  ++sent_;
  if (FaultDrops(msg)) {
    ++dropped_;
    ++dropped_by_fault_;
    return Status::OK();  // silent loss, like the network
  }
  if (config_.drop_probability > 0.0 &&
      rng_.Bernoulli(config_.drop_probability)) {
    ++dropped_;
    return Status::OK();
  }
  const flexoffer::TimeSlice due =
      msg.sent_at + config_.latency_slices + FaultLatency(msg);
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(std::move(msg));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(msg);
  }
  (in_pass_ ? next_order_ : order_).push_back({due, slot});
  min_due_ = std::min(min_due_, due);
  return Status::OK();
}

void MessageBus::AdvanceTo(flexoffer::TimeSlice now) {
  now_ = std::max(now_, now);
  // A pass with nothing due would leave the order as it is: skip it.
  while (min_due_ <= now) DeliveryPass(now);
}

void MessageBus::DeliveryPass(flexoffer::TimeSlice now) {
  next_order_.clear();
  min_due_ = std::numeric_limits<flexoffer::TimeSlice>::max();
  in_pass_ = true;
  // Sends from the handlers append to next_order_, behind the survivors
  // written so far: each reply takes the place of the message it answers.
  for (const Handle& handle : order_) {
    if (handle.due > now) {
      next_order_.push_back(handle);
      min_due_ = std::min(min_due_, handle.due);
      continue;
    }
    // Move the message out first: a send from the handler may reuse the
    // slot or grow slots_.
    Message msg = std::move(slots_[handle.slot]);
    free_slots_.push_back(handle.slot);
    ++delivered_;
    handlers_.find(msg.to)->second(msg);
  }
  in_pass_ = false;
  order_.swap(next_order_);
}

size_t MessageBus::ReportBacklog() const {
  if (!order_.empty()) {
    MIRABEL_LOG(kWarning) << "message bus ends with " << order_.size()
                          << " undelivered message(s); first: "
                          << slots_[order_.front().slot].ToString();
  }
  return order_.size();
}

}  // namespace mirabel::node

#include "node/aggregating_node.h"

#include <unordered_set>
#include <utility>

#include "common/logging.h"

namespace mirabel::node {

using flexoffer::FlexOffer;
using flexoffer::FlexOfferId;
using flexoffer::TimeSlice;

namespace {

edms::ShardedEdmsRuntime::Config RuntimeConfig(
    const AggregatingNode::Config& config) {
  edms::ShardedEdmsRuntime::Config rc;
  rc.num_shards = config.num_shards;
  rc.pool = config.pool;
  rc.engine = config.engine;
  rc.engine.actor = config.id;
  rc.engine.schedule_locally = config.parent == 0;
  rc.max_pending_batches_per_shard = config.max_pending_batches_per_shard;
  return rc;
}

ReliableChannel::Config ChannelConfig(const AggregatingNode::Config& config) {
  ReliableChannel::Config cc = config.reliability;
  cc.self = config.id;
  // Per-node stream: retry jitter must differ across nodes sharing a seed.
  cc.seed = config.reliability.seed * 0x9E3779B97F4A7C15ULL + config.id;
  return cc;
}

}  // namespace

AggregatingNode::AggregatingNode(const Config& config, MessageBus* bus)
    : config_(config),
      bus_(bus),
      runtime_(RuntimeConfig(config)),
      channel_(ChannelConfig(config), bus) {
  Status st =
      bus_->Register(config_.id, [this](Message& msg) { HandleMessage(msg); });
  if (!st.ok()) {
    MIRABEL_LOG(kError) << "node " << config_.id
                        << " registration failed: " << st;
  }
}

void AggregatingNode::HandleMessage(Message& msg) {
  // Transport filter: consume acks, ack what requires it, drop redelivered
  // duplicates before they reach the buffers (an offer redelivered by a
  // sender retry must not enter a batch twice).
  if (!channel_.Accept(msg)) return;
  switch (msg.type) {
    case MessageType::kFlexOffer: {
      if (draining_) {
        // Wind-down: no gate will ever run again, so admitting the offer
        // would strand it. Refuse with a terminal reply instead of
        // dropping — the owner closes its lifecycle instead of waiting
        // out the deadline (satellite: drain-phase reply path).
        if (!runtime_.HasSeenOffer(msg.offer)) {
          ++late_offers_refused_;
          if (config_.engine.negotiate) {
            Message reply;
            reply.type = MessageType::kFlexOfferRejected;
            reply.from = config_.id;
            reply.to = msg.offer.owner;
            reply.sent_at = bus_->now();
            reply.offer_id = msg.offer.id;
            (void)channel_.Send(std::move(reply));
          }
        }
        return;
      }
      // The hot path: buffer, don't submit. The whole tick's intake goes to
      // the runtime as one routed batch in OnTick().
      pending_offers_.push_back(std::move(msg.offer));
      return;
    }
    case MessageType::kScheduledFlexOffer: {
      // A schedule for a macro offer this node forwarded to its parent.
      (void)runtime_.CompleteMacroSchedule(msg.schedule, msg.sent_at);
      break;
    }
    case MessageType::kMeasurement: {
      // Also hot-path: meter readings (and execution metering, when
      // offer_id is set) flush as one routed batch per tick.
      pending_readings_.push_back(
          {msg.from, msg.sent_at, msg.value, msg.offer_id});
      return;
    }
    default:
      break;
  }
  DispatchEvents();
}

void AggregatingNode::FlushOffers(TimeSlice now) {
  if (pending_offers_.empty()) return;
  std::vector<FlexOffer> batch;
  batch.reserve(pending_offers_.size());
  std::unordered_set<FlexOfferId> batch_ids;
  batch_ids.reserve(pending_offers_.size());
  for (FlexOffer& offer : pending_offers_) {
    // Re-sent offers and repeats within the tick are dropped silently, as
    // the per-message path used to do.
    if (!batch_ids.insert(offer.id).second || runtime_.HasSeenOffer(offer)) {
      continue;
    }
    batch.push_back(std::move(offer));
  }
  pending_offers_.clear();
  if (batch.empty()) return;
  auto submitted =
      runtime_.SubmitOffers(std::span<const FlexOffer>(batch), now);
  if (!submitted.ok()) {
    MIRABEL_LOG(kError) << "node " << config_.id
                        << " batch intake failed: " << submitted.status();
  }
}

void AggregatingNode::FlushMeterReadings() {
  if (pending_readings_.empty()) return;
  runtime_.RecordMeterReadings(
      std::span<const edms::ShardedEdmsRuntime::MeterReading>(
          pending_readings_));
  pending_readings_.clear();
}

void AggregatingNode::FlushBuffers(TimeSlice now) {
  channel_.OnTick(now);
  FlushMeterReadings();
  if (!draining_) {
    // First wind-down flush: admit what was buffered before the last tick,
    // then switch to refusing — offers arriving from here on would never
    // see a gate.
    FlushOffers(now);
    draining_ = true;
  } else {
    // Refuse anything buffered between flushes through the drain reply
    // path (the handler refuses inline once draining_ is set, but offers
    // delivered before the flip may still sit in the buffer).
    std::vector<FlexOffer> late;
    late.swap(pending_offers_);
    std::unordered_set<FlexOfferId> refused_ids;
    for (const FlexOffer& offer : late) {
      if (runtime_.HasSeenOffer(offer)) continue;
      if (!refused_ids.insert(offer.id).second) continue;
      ++late_offers_refused_;
      if (config_.engine.negotiate) {
        Message reply;
        reply.type = MessageType::kFlexOfferRejected;
        reply.from = config_.id;
        reply.to = offer.owner;
        reply.sent_at = now;
        reply.offer_id = offer.id;
        (void)channel_.Send(std::move(reply));
      }
    }
  }
  // Deadline degradation sweep: expire stale pipeline offers, forwarded
  // macros whose parent never answered, and executions that never metered —
  // without opening a scheduling gate.
  Status st = runtime_.ExpireDeadlines(now);
  if (!st.ok()) {
    MIRABEL_LOG(kError) << "node " << config_.id
                        << " deadline sweep failed: " << st;
  }
  DispatchEvents();
}

void AggregatingNode::OnTick(TimeSlice now) {
  channel_.OnTick(now);
  FlushMeterReadings();
  FlushOffers(now);
  Status st = runtime_.Advance(now);
  if (!st.ok()) {
    MIRABEL_LOG(kError) << "node " << config_.id << " gate failed: " << st;
  }
  DispatchEvents();
}

void AggregatingNode::DispatchEvents() {
  for (edms::Event& event : runtime_.PollEvents()) {
    if (auto* accepted = std::get_if<edms::OfferAccepted>(&event)) {
      if (!config_.engine.negotiate) continue;
      Message reply;
      reply.type = MessageType::kFlexOfferAccepted;
      reply.from = config_.id;
      reply.to = accepted->owner;
      reply.sent_at = accepted->at;
      reply.offer_id = accepted->offer;
      reply.value = accepted->agreed_price_eur;
      (void)channel_.Send(std::move(reply));
    } else if (auto* rejected = std::get_if<edms::OfferRejected>(&event)) {
      if (rejected->reason == edms::RejectReason::kOverloaded) {
        // Bounded intake shed the offer before an engine saw it. That is a
        // transient condition, not a verdict: NACK with a retry-after so
        // the owner resubmits with backoff once the queues drained.
        Message nack;
        nack.type = MessageType::kNack;
        nack.from = config_.id;
        nack.to = rejected->owner;
        nack.sent_at = rejected->at;
        nack.offer_id = rejected->offer;
        nack.value = static_cast<double>(config_.engine.gate_period);
        ++nacks_sent_;
        (void)channel_.Send(std::move(nack));
        continue;
      }
      if (!config_.engine.negotiate) continue;
      Message reply;
      reply.type = MessageType::kFlexOfferRejected;
      reply.from = config_.id;
      reply.to = rejected->owner;
      reply.sent_at = rejected->at;
      reply.offer_id = rejected->offer;
      (void)channel_.Send(std::move(reply));
    } else if (auto* macro = std::get_if<edms::MacroPublished>(&event)) {
      if (!macro->forwarded) continue;  // scheduled locally this gate
      Message msg;
      msg.type = MessageType::kFlexOffer;
      msg.from = config_.id;
      msg.to = config_.parent;
      msg.sent_at = macro->at;
      msg.offer = std::move(macro->macro);
      (void)channel_.Send(std::move(msg));
    } else if (auto* assigned = std::get_if<edms::ScheduleAssigned>(&event)) {
      Message msg;
      msg.type = MessageType::kScheduledFlexOffer;
      msg.from = config_.id;
      msg.to = assigned->owner;
      msg.sent_at = assigned->at;
      msg.schedule = std::move(assigned->schedule);
      (void)channel_.Send(std::move(msg));
    }
    // OfferExecuted / OfferExpired / MacroExpired close lifecycles without
    // wire traffic: expired owners fall back to their contracts on their
    // own deadline clock.
  }
}

}  // namespace mirabel::node

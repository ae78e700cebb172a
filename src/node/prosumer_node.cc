#include "node/prosumer_node.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace mirabel::node {

using flexoffer::FlexOffer;
using flexoffer::TimeSlice;

namespace {

/// A resubmit entry in this state waits for the next NACK (or expiry) to
/// re-arm it; it is never due on its own.
constexpr TimeSlice kNotDue = std::numeric_limits<TimeSlice>::max();

ReliableChannel::Config ChannelConfig(const ProsumerNode::Config& config) {
  ReliableChannel::Config cc = config.reliability;
  cc.self = config.id;
  // Per-node stream: channel jitter must differ across prosumers even when
  // they share a base seed.
  cc.seed = config.reliability.seed * 0x9E3779B97F4A7C15ULL + config.id;
  return cc;
}

}  // namespace

ProsumerNode::ProsumerNode(const Config& config, MessageBus* bus)
    : config_(config),
      bus_(bus),
      rng_(config.seed),
      retry_rng_(config.seed * 0x2545F4914F6CDD1DULL + config.id),
      channel_(ChannelConfig(config), bus) {
  Status st =
      bus_->Register(config_.id, [this](Message& msg) { HandleMessage(msg); });
  if (!st.ok()) {
    MIRABEL_LOG(kError) << "prosumer " << config_.id
                        << " registration failed: " << st;
  }
}

FlexOffer ProsumerNode::MakeOffer(TimeSlice now) {
  FlexOffer fo;
  // Offer ids must be globally unique: compose node id and local sequence.
  fo.id = config_.id * 1000000ULL + next_offer_seq_++;
  fo.owner = config_.id;
  fo.creation_time = now;
  int dur = static_cast<int>(
      rng_.UniformInt(config_.min_duration, config_.max_duration));
  // The window opens 4-12 hours ahead; quantise time flexibility so similar
  // device classes aggregate well. The lead leaves the BRP's control loop
  // enough gate closures to pick the offer up before the deadline.
  TimeSlice lead = rng_.UniformInt(16, 48);
  int64_t tf = (rng_.UniformInt(0, config_.max_time_flexibility) / 4) * 4;
  fo.earliest_start = now + lead;
  fo.latest_start = fo.earliest_start + tf;
  fo.assignment_before = fo.earliest_start - std::min<TimeSlice>(8, lead - 1);
  fo.profile.reserve(static_cast<size_t>(dur));
  for (int j = 0; j < dur; ++j) {
    double emax = rng_.Uniform(config_.min_slice_energy_kwh,
                               config_.max_slice_energy_kwh);
    double emin = emax * (1.0 - rng_.Uniform(0.0, config_.max_energy_flex));
    fo.profile.push_back({emin, emax});
  }
  fo.unit_price_eur = rng_.Uniform(0.01, 0.05);
  return fo;
}

void ProsumerNode::OnTick(TimeSlice now) {
  // Transport first: retransmit unacked sends that are due.
  channel_.OnTick(now);
  // Below next_due_ nothing but device activity can happen: skipping the
  // resubmits and the store's visits leaves every state and random stream
  // as a full tick would.
  if (now >= next_due_) ResubmitDue(now);
  MaybeEmitOffer(now);
  if (now < next_due_) return;

  // Execute schedules whose profile completed by now, metering the energy.
  store_.VisitScheduledEndingBy(now, [&](const storage::FlexOfferFact& fact) {
    (void)store_.TransitionFlexOffer(fact.id,
                                     storage::FlexOfferState::kExecuted);
    ++stats_.offers_executed;
    Message msg;
    msg.type = MessageType::kMeasurement;
    msg.from = config_.id;
    msg.to = config_.brp;
    msg.sent_at = now;
    msg.offer_id = fact.id;
    msg.value = fact.schedule.TotalEnergy();
    (void)channel_.Send(std::move(msg));
  });

  // Timed-out offers fall back to the open contract: the load runs at its
  // default profile, unmanaged.
  store_.VisitPendingDueBy(now, [&](const storage::FlexOfferFact& fact) {
    if (store_.TransitionFlexOffer(fact.id, storage::FlexOfferState::kExpired)
            .ok()) {
      ++stats_.fallbacks;
      resubmits_.erase(fact.id);
    }
  });

  next_due_ = store_.EarliestDue();
  for (const auto& [id, resubmit] : resubmits_) {
    next_due_ = std::min(next_due_, resubmit.due);
  }
}

void ProsumerNode::ResubmitDue(TimeSlice now) {
  // Entries for offers that meanwhile left the kOffered state (or timed out)
  // are dropped; the deadline fallback owns those.
  for (auto it = resubmits_.begin(); it != resubmits_.end();) {
    if (it->second.due > now) {
      ++it;
      continue;
    }
    Result<const storage::FlexOfferFact*> fact =
        store_.FindFlexOffer(it->first);
    if (!fact.ok() || (*fact)->state != storage::FlexOfferState::kOffered ||
        (*fact)->offer.assignment_before <= now) {
      it = resubmits_.erase(it);
      continue;
    }
    ++it->second.attempts;
    it->second.due = kNotDue;  // wait state until the BRP NACKs again
    ++stats_.offers_resubmitted;
    Message msg;
    msg.type = MessageType::kFlexOffer;
    msg.from = config_.id;
    msg.to = config_.brp;
    msg.sent_at = now;
    msg.offer = (*fact)->offer;
    (void)channel_.Send(std::move(msg));
    ++it;
  }
}

void ProsumerNode::MaybeEmitOffer(TimeSlice now) {
  // Emit a flex-offer with per-slice probability matching the configured
  // daily rate.
  if (!rng_.Bernoulli(config_.offers_per_day / flexoffer::kSlicesPerDay)) {
    return;
  }
  FlexOffer fo = MakeOffer(now);
  if (!store_.PutFlexOffer(fo).ok()) return;
  ++stats_.offers_created;
  next_due_ = std::min(next_due_, fo.assignment_before);
  Message msg;
  msg.type = MessageType::kFlexOffer;
  msg.from = config_.id;
  msg.to = config_.brp;
  msg.sent_at = now;
  msg.offer = std::move(fo);
  (void)channel_.Send(std::move(msg));
}

void ProsumerNode::HandleMessage(const Message& msg) {
  // Transport filter: consume acks, ack what requires it, drop redelivered
  // duplicates before they reach lifecycle handling.
  if (!channel_.Accept(msg)) return;
  switch (msg.type) {
    case MessageType::kFlexOfferAccepted: {
      // A (possibly retried) reply landing after the deadline fallback finds
      // the offer already terminal: the transition fails and the stats must
      // not drift from the stored facts.
      if (store_
              .TransitionFlexOffer(msg.offer_id,
                                   storage::FlexOfferState::kAccepted)
              .ok()) {
        (void)store_.SetAgreedPrice(msg.offer_id, msg.value);
        stats_.earnings_eur += msg.value;
        ++stats_.offers_accepted;
      }
      resubmits_.erase(msg.offer_id);
      break;
    }
    case MessageType::kFlexOfferRejected: {
      if (store_
              .TransitionFlexOffer(msg.offer_id,
                                   storage::FlexOfferState::kRejected)
              .ok()) {
        ++stats_.offers_rejected;
      }
      resubmits_.erase(msg.offer_id);
      break;
    }
    case MessageType::kScheduledFlexOffer: {
      Result<const storage::FlexOfferFact*> fact =
          store_.FindFlexOffer(msg.schedule.offer_id);
      if (!fact.ok()) break;
      if ((*fact)->state == storage::FlexOfferState::kAccepted) {
        // BRP schedules arrive for accepted offers; the store transitions
        // the offer to kScheduled when the schedule attaches cleanly.
        if (store_.AttachSchedule(msg.schedule).ok()) {
          ++stats_.schedules_received;
          next_due_ = std::min(
              next_due_,
              msg.schedule.start + static_cast<TimeSlice>(
                                       msg.schedule.energies_kwh.size()));
        }
      }
      break;
    }
    case MessageType::kNack: {
      // Overloaded BRP shed the offer before an engine saw it. Honor the
      // server-supplied retry-after, plus exponential local backoff with
      // jitter so a thundering herd of shed prosumers spreads out.
      ++stats_.nacks_received;
      Result<const storage::FlexOfferFact*> fact =
          store_.FindFlexOffer(msg.offer_id);
      if (!fact.ok() ||
          (*fact)->state != storage::FlexOfferState::kOffered) {
        break;
      }
      Resubmit& r = resubmits_[msg.offer_id];
      if (r.attempts >= config_.max_offer_resubmits) {
        // Out of retries: leave it to the deadline fallback.
        resubmits_.erase(msg.offer_id);
        break;
      }
      TimeSlice retry_after = std::max<TimeSlice>(
          1, static_cast<TimeSlice>(msg.value));
      TimeSlice backoff = TimeSlice{1} << std::min(r.attempts, 6);
      r.due = bus_->now() + retry_after + backoff +
              retry_rng_.UniformInt(0, backoff);
      next_due_ = std::min(next_due_, r.due);
      break;
    }
    default:
      break;
  }
}

}  // namespace mirabel::node

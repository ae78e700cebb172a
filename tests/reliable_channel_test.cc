// Transport-level reliability: acked retries with backoff, dead-lettering,
// and receiver-side dedupe back to exactly-once handling.
#include "node/reliable_channel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "node/message_bus.h"

namespace mirabel::node {
namespace {

Message Payload(NodeId from, NodeId to, flexoffer::TimeSlice at,
                flexoffer::FlexOfferId offer_id = 7) {
  Message m;
  m.type = MessageType::kMeasurement;
  m.from = from;
  m.to = to;
  m.sent_at = at;
  m.offer_id = offer_id;
  return m;
}

ReliableChannel::Config ChannelConfig(NodeId self) {
  ReliableChannel::Config cfg;
  cfg.self = self;
  cfg.max_attempts = 4;
  cfg.retry_timeout_slices = 2;
  cfg.max_backoff_slices = 8;
  cfg.jitter = 0.0;  // exact retry slices, easier to assert on
  cfg.seed = self;
  return cfg;
}

/// Sender (node 1) and receiver (node 2) wired through their channels; the
/// receiver records what survives the Accept() filter.
struct Harness {
  explicit Harness(const MessageBus::Config& bus_cfg = {})
      : bus(bus_cfg),
        sender(ChannelConfig(1), &bus),
        receiver(ChannelConfig(2), &bus) {
    // Node 1 only consumes acks here; payloads flow 1 -> 2.
    EXPECT_TRUE(
        bus.Register(1, [this](const Message& m) { (void)sender.Accept(m); })
            .ok());
    EXPECT_TRUE(bus.Register(2, [this](const Message& m) {
                     if (!receiver.Accept(m)) return;
                     handled.push_back(m);
                   }).ok());
  }

  MessageBus bus;
  ReliableChannel sender;
  ReliableChannel receiver;
  std::vector<Message> handled;
};

TEST(ReliableChannelTest, AckStopsRetries) {
  Harness h;
  ASSERT_TRUE(h.sender.Send(Payload(1, 2, 0)).ok());
  EXPECT_EQ(h.sender.in_flight(), 1u);
  // Delivery triggers the receiver's ack; the next advance delivers it.
  h.bus.AdvanceTo(0);
  EXPECT_EQ(h.sender.in_flight(), 0u);
  EXPECT_EQ(h.sender.stats().acked, 1);
  EXPECT_EQ(h.receiver.stats().acks_sent, 1);
  // No retry fires afterwards, ever.
  for (flexoffer::TimeSlice t = 1; t < 40; ++t) {
    h.sender.OnTick(t);
    h.bus.AdvanceTo(t);
  }
  EXPECT_EQ(h.sender.stats().retries, 0);
  ASSERT_EQ(h.handled.size(), 1u);
  EXPECT_EQ(h.handled[0].offer_id, 7u);
}

TEST(ReliableChannelTest, RetriesWithBackoffUntilDelivered) {
  // Everything sent in [0, 5) is dropped: the first attempt dies, the
  // retransmit at t=2 dies, the one at t=6 (backoff doubled to 4) lands.
  MessageBus::Config bus_cfg;
  bus_cfg.faults.drop_windows.push_back({0, 5, 1.0});
  Harness h(bus_cfg);
  ASSERT_TRUE(h.sender.Send(Payload(1, 2, 0)).ok());
  for (flexoffer::TimeSlice t = 0; t < 20; ++t) {
    h.sender.OnTick(t);
    h.bus.AdvanceTo(t);
  }
  ASSERT_EQ(h.handled.size(), 1u);
  EXPECT_EQ(h.sender.stats().retries, 2);
  EXPECT_EQ(h.sender.stats().acked, 1);
  EXPECT_EQ(h.sender.stats().dead_letters, 0);
  EXPECT_EQ(h.sender.in_flight(), 0u);
}

TEST(ReliableChannelTest, DeadLettersAfterMaxAttempts) {
  // The receiver is blacked out for the whole run: all 4 attempts die.
  MessageBus::Config bus_cfg;
  bus_cfg.faults.blackouts.push_back({2, 0, 1000});
  Harness h(bus_cfg);
  ASSERT_TRUE(h.sender.Send(Payload(1, 2, 0)).ok());
  for (flexoffer::TimeSlice t = 0; t < 100; ++t) {
    h.sender.OnTick(t);
    h.bus.AdvanceTo(t);
  }
  EXPECT_TRUE(h.handled.empty());
  EXPECT_EQ(h.sender.stats().dead_letters, 1);
  EXPECT_EQ(h.sender.stats().retries, 3);  // attempts 2..4
  EXPECT_EQ(h.sender.in_flight(), 0u);
}

TEST(ReliableChannelTest, RedeliveryHandledExactlyOnce) {
  // The sender loses every ack (its handler drops them instead of feeding
  // Accept()), so it keeps retransmitting — the receiver must handle the
  // payload exactly once and re-ack every redelivery.
  MessageBus bus;
  ReliableChannel sender(ChannelConfig(1), &bus);
  ReliableChannel receiver(ChannelConfig(2), &bus);
  std::vector<Message> handled;
  ASSERT_TRUE(bus.Register(1, [](const Message&) { /* acks vanish */ }).ok());
  ASSERT_TRUE(bus.Register(2, [&receiver, &handled](const Message& m) {
                   if (!receiver.Accept(m)) return;
                   handled.push_back(m);
                 }).ok());
  ASSERT_TRUE(sender.Send(Payload(1, 2, 0)).ok());
  for (flexoffer::TimeSlice t = 0; t < 100; ++t) {
    sender.OnTick(t);
    bus.AdvanceTo(t);
  }
  ASSERT_EQ(handled.size(), 1u);
  EXPECT_EQ(receiver.stats().duplicates_dropped, 3);  // redelivered retries
  EXPECT_EQ(receiver.stats().acks_sent, 4);           // every delivery re-acked
  EXPECT_EQ(sender.stats().dead_letters, 1);          // never saw an ack
}

TEST(ReliableChannelTest, UnroutableSendDeadLettersImmediately) {
  MessageBus bus;
  ReliableChannel ch(ChannelConfig(1), &bus);
  EXPECT_EQ(ch.Send(Payload(1, 99, 0)).code(), StatusCode::kNotFound);
  EXPECT_EQ(ch.stats().dead_letters, 1);
  EXPECT_EQ(ch.in_flight(), 0u);
}

TEST(ReliableChannelTest, DisabledChannelIsPassthrough) {
  MessageBus bus;
  ReliableChannel::Config cfg = ChannelConfig(1);
  cfg.enabled = false;
  ReliableChannel ch(cfg, &bus);
  std::vector<Message> inbox;
  ASSERT_TRUE(
      bus.Register(2, [&inbox](const Message& m) { inbox.push_back(m); }).ok());
  ASSERT_TRUE(ch.Send(Payload(1, 2, 0)).ok());
  bus.AdvanceTo(0);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].id, 0u);  // no transport id stamped
  EXPECT_FALSE(inbox[0].requires_ack);
  EXPECT_EQ(ch.in_flight(), 0u);
  // A disabled receiver forwards payloads but still swallows stray acks.
  Message stray;
  stray.type = MessageType::kAck;
  stray.ack_id = 123;
  EXPECT_FALSE(ch.Accept(stray));
  EXPECT_TRUE(ch.Accept(Payload(2, 1, 0)));
}

TEST(ReliableChannelTest, BackoffDeterministicForFixedSeed) {
  // Two identically-seeded channels against identically-seeded buses
  // produce identical retry traces (jitter on).
  auto trace = []() {
    MessageBus::Config bus_cfg;
    bus_cfg.faults.drop_windows.push_back({0, 9, 1.0});
    Harness h(bus_cfg);
    ReliableChannel::Config jittered = ChannelConfig(1);
    jittered.jitter = 0.5;
    ReliableChannel sender(jittered, &h.bus);
    Message m = Payload(3, 2, 0);
    m.from = 3;
    EXPECT_TRUE(h.bus.Register(3, [&sender](const Message& msg) {
                     (void)sender.Accept(msg);
                   }).ok());
    EXPECT_TRUE(sender.Send(m).ok());
    std::vector<int64_t> sent_slices;
    for (flexoffer::TimeSlice t = 0; t < 60; ++t) {
      int64_t before = sender.stats().retries;
      sender.OnTick(t);
      if (sender.stats().retries > before) sent_slices.push_back(t);
      h.bus.AdvanceTo(t);
    }
    return sent_slices;
  };
  EXPECT_EQ(trace(), trace());
}

/// An ack-required delivery from `sender` with sequence number `seq`, as a
/// sender's channel stamps it.
Message Stamped(NodeId sender, uint64_t seq) {
  Message m = Payload(sender, 2, 0);
  m.id = (static_cast<uint64_t>(sender) << 32) | seq;
  m.requires_ack = true;
  return m;
}

/// A receiver channel alone on its bus: its acks are counted, then fail to
/// route.
struct Receiver {
  MessageBus bus;
  ReliableChannel channel{ChannelConfig(2), &bus};
};

TEST(ReliableChannelTest, DedupesSequenceZeroIds) {
  // Id sender << 32 | 0 is a valid transport id (only 0 itself means
  // untracked): the first delivery is handled, a redelivery is not.
  Receiver r;
  EXPECT_TRUE(r.channel.Accept(Stamped(3, 0)));
  EXPECT_FALSE(r.channel.Accept(Stamped(3, 0)));
  // Another sender's sequence 0 is a different id.
  EXPECT_TRUE(r.channel.Accept(Stamped(4, 0)));
  EXPECT_EQ(r.channel.stats().duplicates_dropped, 1);
  EXPECT_EQ(r.channel.stats().acks_sent, 3);
}

TEST(ReliableChannelTest, DedupesSparsePerSenderSequences) {
  // A sender numbers all its sends from one counter, so each receiver sees
  // a sparse subset of every sender's sequence, interleaved across senders.
  Receiver r;
  const std::vector<uint64_t> seqs = {1, 7, 8, 500, 501, 90'000, 1u << 31};
  for (uint64_t seq : seqs) {
    for (NodeId sender : {3, 4}) {
      EXPECT_TRUE(r.channel.Accept(Stamped(sender, seq)))
          << sender << ":" << seq;
    }
  }
  for (uint64_t seq : seqs) {
    for (NodeId sender : {3, 4}) {
      EXPECT_FALSE(r.channel.Accept(Stamped(sender, seq)))
          << sender << ":" << seq;
    }
  }
  // The gaps were never delivered, so they are new.
  EXPECT_TRUE(r.channel.Accept(Stamped(3, 2)));
  EXPECT_TRUE(r.channel.Accept(Stamped(4, 499)));
  EXPECT_EQ(r.channel.stats().duplicates_dropped,
            static_cast<int64_t>(2 * seqs.size()));
}

TEST(ReliableChannelTest, DedupesRedeliveryAfterLaterIds) {
  // Every id stays remembered however many later ids arrive in between.
  Receiver r;
  constexpr uint64_t kIds = 20'000;
  for (uint64_t seq = 1; seq <= kIds; ++seq) {
    ASSERT_TRUE(r.channel.Accept(Stamped(5, seq))) << seq;
  }
  // Redeliveries in reverse, and one gap filled late.
  for (uint64_t seq = kIds; seq >= 1; --seq) {
    ASSERT_FALSE(r.channel.Accept(Stamped(5, seq))) << seq;
  }
  EXPECT_TRUE(r.channel.Accept(Stamped(5, kIds + 2)));
  EXPECT_TRUE(r.channel.Accept(Stamped(5, kIds + 1)));
  EXPECT_FALSE(r.channel.Accept(Stamped(5, kIds + 2)));
  EXPECT_EQ(r.channel.stats().duplicates_dropped,
            static_cast<int64_t>(kIds + 1));
  // Every delivery is acked, duplicates included.
  EXPECT_EQ(r.channel.stats().acks_sent, static_cast<int64_t>(2 * kIds + 3));
}

TEST(ReliableChannelTest, OutOfOrderAcksKeepTheRetrySchedule) {
  // Three sends at slice 0. Acks for the third and the first arrive, in that
  // order, at slice 1; the second is never acked. Its retransmits follow the
  // backoff RetriesWithBackoffUntilDelivered pins (slices 2 and 6, then the
  // 8-slice cap: 14), and it dead-letters at slice 22 after 4 attempts.
  MessageBus bus;
  ReliableChannel sender(ChannelConfig(1), &bus);
  ASSERT_TRUE(
      bus.Register(1, [&sender](const Message& m) { (void)sender.Accept(m); })
          .ok());
  std::vector<std::pair<flexoffer::TimeSlice, uint64_t>> wire;
  ASSERT_TRUE(bus.Register(2, [&bus, &wire](const Message& m) {
                   wire.emplace_back(bus.now(), m.id);
                 }).ok());
  for (flexoffer::FlexOfferId offer = 1; offer <= 3; ++offer) {
    ASSERT_TRUE(sender.Send(Payload(1, 2, 0, offer)).ok());
  }
  bus.AdvanceTo(0);
  ASSERT_EQ(wire.size(), 3u);
  const uint64_t first = wire[0].second;
  const uint64_t second = wire[1].second;
  const uint64_t third = wire[2].second;
  auto ack = [&bus](uint64_t id, flexoffer::TimeSlice at) {
    Message a;
    a.type = MessageType::kAck;
    a.from = 2;
    a.to = 1;
    a.sent_at = at;
    a.ack_id = id;
    ASSERT_TRUE(bus.Send(a).ok());
  };
  wire.clear();
  for (flexoffer::TimeSlice t = 1; t < 40; ++t) {
    sender.OnTick(t);
    if (t == 1) {
      ack(third, t);
      ack(first, t);
    }
    bus.AdvanceTo(t);
  }
  const std::vector<std::pair<flexoffer::TimeSlice, uint64_t>> want = {
      {2, second}, {6, second}, {14, second}};
  EXPECT_EQ(wire, want);
  EXPECT_EQ(sender.stats().acked, 2);
  EXPECT_EQ(sender.stats().retries, 3);
  EXPECT_EQ(sender.stats().dead_letters, 1);
  EXPECT_EQ(sender.in_flight(), 0u);
}

}  // namespace
}  // namespace mirabel::node

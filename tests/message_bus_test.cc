#include "node/message_bus.h"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace mirabel::node {
namespace {

Message Ping(NodeId from, NodeId to, flexoffer::TimeSlice at) {
  Message m;
  m.type = MessageType::kMeasurement;
  m.from = from;
  m.to = to;
  m.sent_at = at;
  return m;
}

TEST(MessageBusTest, DeliversToRegisteredHandler) {
  MessageBus bus;
  int received = 0;
  ASSERT_TRUE(
      bus.Register(1, [&received](const Message&) { ++received; }).ok());
  ASSERT_TRUE(bus.Send(Ping(2, 1, 0)).ok());
  bus.AdvanceTo(0);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(bus.delivered(), 1);
  EXPECT_EQ(bus.sent(), 1);
}

TEST(MessageBusTest, DuplicateRegistrationRejected) {
  MessageBus bus;
  ASSERT_TRUE(bus.Register(1, [](const Message&) {}).ok());
  EXPECT_EQ(bus.Register(1, [](const Message&) {}).code(),
            StatusCode::kAlreadyExists);
}

TEST(MessageBusTest, UnknownRecipientFailsAtSend) {
  MessageBus bus;
  EXPECT_EQ(bus.Send(Ping(1, 9, 0)).code(), StatusCode::kNotFound);
}

TEST(MessageBusTest, LatencyDelaysDelivery) {
  MessageBus::Config cfg;
  cfg.latency_slices = 3;
  MessageBus bus(cfg);
  int received = 0;
  ASSERT_TRUE(
      bus.Register(1, [&received](const Message&) { ++received; }).ok());
  ASSERT_TRUE(bus.Send(Ping(2, 1, 10)).ok());
  bus.AdvanceTo(12);
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus.pending(), 1u);
  bus.AdvanceTo(13);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(bus.pending(), 0u);
}

TEST(MessageBusTest, PreservesSendOrder) {
  MessageBus bus;
  std::vector<NodeId> order;
  ASSERT_TRUE(bus.Register(1, [&order](const Message& m) {
                   order.push_back(m.from);
                 }).ok());
  for (NodeId from = 10; from < 15; ++from) {
    ASSERT_TRUE(bus.Send(Ping(from, 1, 0)).ok());
  }
  bus.AdvanceTo(0);
  EXPECT_EQ(order, (std::vector<NodeId>{10, 11, 12, 13, 14}));
}

TEST(MessageBusTest, DropsConfiguredFraction) {
  MessageBus::Config cfg;
  cfg.drop_probability = 0.5;
  cfg.seed = 3;
  MessageBus bus(cfg);
  int received = 0;
  ASSERT_TRUE(
      bus.Register(1, [&received](const Message&) { ++received; }).ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(bus.Send(Ping(2, 1, 0)).ok());
  }
  bus.AdvanceTo(0);
  EXPECT_EQ(received + bus.dropped(), 1000);
  EXPECT_GT(bus.dropped(), 400);
  EXPECT_LT(bus.dropped(), 600);
}

TEST(MessageBusTest, HandlersCanSendCascades) {
  MessageBus bus;
  int leaf_received = 0;
  ASSERT_TRUE(bus.Register(2, [&leaf_received](const Message&) {
                   ++leaf_received;
                 }).ok());
  ASSERT_TRUE(bus.Register(1, [&bus](const Message& m) {
                   // Relay to node 2 at the same slice.
                   Message relay = m;
                   relay.from = 1;
                   relay.to = 2;
                   (void)bus.Send(relay);
                 }).ok());
  ASSERT_TRUE(bus.Send(Ping(9, 1, 5)).ok());
  bus.AdvanceTo(5);
  EXPECT_EQ(leaf_received, 1);
  EXPECT_EQ(bus.delivered(), 2);
}

TEST(MessageBusTest, FutureMessagesStayQueued) {
  MessageBus bus;
  int received = 0;
  ASSERT_TRUE(
      bus.Register(1, [&received](const Message&) { ++received; }).ok());
  ASSERT_TRUE(bus.Send(Ping(2, 1, 100)).ok());
  bus.AdvanceTo(50);
  EXPECT_EQ(received, 0);
  bus.AdvanceTo(100);
  EXPECT_EQ(received, 1);
}

TEST(MessageBusTest, SeededDropsAreDeterministic) {
  // Same seed + same send sequence => bit-identical delivered/dropped sets.
  auto delivered_set = [](uint64_t seed) {
    MessageBus::Config cfg;
    cfg.drop_probability = 0.3;
    cfg.seed = seed;
    MessageBus bus(cfg);
    std::vector<uint64_t> delivered;
    EXPECT_TRUE(bus.Register(1, [&delivered](const Message& m) {
                     delivered.push_back(m.offer_id);
                   }).ok());
    for (uint64_t i = 0; i < 200; ++i) {
      Message m = Ping(2, 1, static_cast<flexoffer::TimeSlice>(i / 10));
      m.offer_id = i;
      EXPECT_TRUE(bus.Send(m).ok());
    }
    bus.AdvanceTo(100);
    return delivered;
  };
  std::vector<uint64_t> a = delivered_set(11);
  EXPECT_EQ(a, delivered_set(11));
  EXPECT_NE(a, delivered_set(12));  // and the seed actually matters
}

TEST(MessageBusTest, DropWindowDropsEverythingInside) {
  MessageBus::Config cfg;
  cfg.faults.drop_windows.push_back({10, 20, 1.0});
  MessageBus bus(cfg);
  int received = 0;
  ASSERT_TRUE(
      bus.Register(1, [&received](const Message&) { ++received; }).ok());
  ASSERT_TRUE(bus.Send(Ping(2, 1, 9)).ok());    // before the window
  ASSERT_TRUE(bus.Send(Ping(2, 1, 10)).ok());   // inside (inclusive from)
  ASSERT_TRUE(bus.Send(Ping(2, 1, 19)).ok());   // inside
  ASSERT_TRUE(bus.Send(Ping(2, 1, 20)).ok());   // after (exclusive to)
  bus.AdvanceTo(30);
  EXPECT_EQ(received, 2);
  EXPECT_EQ(bus.dropped(), 2);
  EXPECT_EQ(bus.dropped_by_fault(), 2);
}

TEST(MessageBusTest, BlackoutDropsBothDirections) {
  MessageBus::Config cfg;
  cfg.faults.blackouts.push_back({1, 0, 50});
  MessageBus bus(cfg);
  int at_1 = 0;
  int at_2 = 0;
  ASSERT_TRUE(bus.Register(1, [&at_1](const Message&) { ++at_1; }).ok());
  ASSERT_TRUE(bus.Register(2, [&at_2](const Message&) { ++at_2; }).ok());
  ASSERT_TRUE(bus.Send(Ping(2, 1, 10)).ok());  // towards the dark node
  ASSERT_TRUE(bus.Send(Ping(1, 2, 10)).ok());  // from the dark node
  ASSERT_TRUE(bus.Send(Ping(2, 1, 60)).ok());  // after the blackout lifts
  bus.AdvanceTo(60);
  EXPECT_EQ(at_1, 1);
  EXPECT_EQ(at_2, 0);
  EXPECT_EQ(bus.dropped_by_fault(), 2);
}

TEST(MessageBusTest, PartitionDropsOnlyCrossingTraffic) {
  MessageBus::Config cfg;
  cfg.faults.partitions.push_back({{1, 2}, 0, 100});
  MessageBus bus(cfg);
  std::vector<NodeId> reached;
  for (NodeId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(bus.Register(id, [&reached, id](const Message&) {
                     reached.push_back(id);
                   }).ok());
  }
  ASSERT_TRUE(bus.Send(Ping(1, 2, 10)).ok());  // within the island
  ASSERT_TRUE(bus.Send(Ping(3, 4, 10)).ok());  // within the mainland
  ASSERT_TRUE(bus.Send(Ping(1, 3, 10)).ok());  // crossing: dropped
  ASSERT_TRUE(bus.Send(Ping(4, 2, 10)).ok());  // crossing: dropped
  bus.AdvanceTo(10);
  EXPECT_EQ(reached, (std::vector<NodeId>{2, 4}));
  EXPECT_EQ(bus.dropped_by_fault(), 2);
}

TEST(MessageBusTest, LatencySpikeDelaysWindowedSends) {
  MessageBus::Config cfg;
  cfg.latency_slices = 1;
  cfg.faults.latency_spikes.push_back({10, 20, 5});
  MessageBus bus(cfg);
  int received = 0;
  ASSERT_TRUE(
      bus.Register(1, [&received](const Message&) { ++received; }).ok());
  ASSERT_TRUE(bus.Send(Ping(2, 1, 10)).ok());  // due 10 + 1 + 5 = 16
  bus.AdvanceTo(15);
  EXPECT_EQ(received, 0);
  bus.AdvanceTo(16);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(bus.dropped(), 0);
}

TEST(MessageBusTest, ReportBacklogCountsUndelivered) {
  MessageBus bus;
  ASSERT_TRUE(bus.Register(1, [](const Message&) {}).ok());
  EXPECT_EQ(bus.ReportBacklog(), 0u);
  ASSERT_TRUE(bus.Send(Ping(2, 1, 100)).ok());
  bus.AdvanceTo(50);  // not due yet
  EXPECT_EQ(bus.ReportBacklog(), 1u);  // also logs a warning
  bus.AdvanceTo(100);
  EXPECT_EQ(bus.ReportBacklog(), 0u);
}

/// The bus's delivery order as first written, kept as the reference the bus
/// must match: every pass pops and re-pushes each queued message, delivering
/// the due ones, and passes repeat until one delivers nothing. Messages a
/// handler sends during a pass go to the back, behind the rest of the pass,
/// so each one takes the place of the message that caused it.
class RotatingReference {
 public:
  explicit RotatingReference(const MessageBus::Config& config)
      : config_(config) {}

  void Register(NodeId id, std::function<void(const Message&)> handler) {
    handlers_[id] = std::move(handler);
  }

  void Send(const Message& msg) {
    int64_t extra = 0;
    for (const FaultPlan::LatencySpike& s : config_.faults.latency_spikes) {
      if (msg.sent_at >= s.from && msg.sent_at < s.to) extra += s.extra_slices;
    }
    queue_.push_back({msg.sent_at + config_.latency_slices + extra, msg});
  }

  void AdvanceTo(flexoffer::TimeSlice now) {
    bool progress = true;
    while (progress) {
      progress = false;
      const size_t n = queue_.size();
      for (size_t i = 0; i < n; ++i) {
        std::pair<flexoffer::TimeSlice, Message> item =
            std::move(queue_.front());
        queue_.pop_front();
        if (item.first <= now) {
          handlers_[item.second.to](item.second);
          progress = true;
        } else {
          queue_.push_back(std::move(item));
        }
      }
    }
  }

  size_t pending() const { return queue_.size(); }

 private:
  MessageBus::Config config_;
  std::map<NodeId, std::function<void(const Message&)>> handlers_;
  std::deque<std::pair<flexoffer::TimeSlice, Message>> queue_;
};

/// One delivery: the slice the bus was advanced to, the recipient and the
/// message's tag (its offer_id, unique per send).
struct Delivery {
  flexoffer::TimeSlice at;
  NodeId to;
  uint64_t tag;
  bool operator==(const Delivery&) const = default;
};

/// Drives `bus` with a seeded script over `slices` slices and returns every
/// delivery in order. Four nodes; each slice sends 0-3 messages from outside
/// any handler, then advances the bus 1-3 times with sends in between, and
/// every fifth slice or so is skipped. Every handler sends 0-2 replies (0.5
/// on average, so that cascades die out) until the final drain. All draws
/// come from one stream, so two buses that deliver in the same order see the
/// same script.
template <typename Bus>
std::vector<Delivery> RunScript(Bus& bus, uint64_t seed,
                                flexoffer::TimeSlice slices) {
  constexpr NodeId kNodes = 4;
  Rng rng(seed);
  std::vector<Delivery> deliveries;
  flexoffer::TimeSlice now = 0;
  uint64_t next_tag = 1;
  bool replying = true;
  auto send = [&](NodeId from, NodeId to) {
    Message m = Ping(from, to, now);
    m.offer_id = next_tag++;
    (void)bus.Send(m);
  };
  auto random_node = [&] { return 1 + static_cast<NodeId>(rng.Index(kNodes)); };
  for (NodeId id = 1; id <= kNodes; ++id) {
    (void)bus.Register(id, [&, id](const Message& m) {
      deliveries.push_back({now, id, m.offer_id});
      if (!replying || !rng.Bernoulli(0.5)) return;
      const int64_t replies = rng.UniformInt(0, 2);
      for (int64_t r = 0; r < replies; ++r) send(id, random_node());
    });
  }
  for (now = 0; now < slices; ++now) {
    const int64_t outside = rng.UniformInt(0, 3);
    for (int64_t i = 0; i < outside; ++i) send(random_node(), random_node());
    if (rng.Bernoulli(0.2)) continue;  // no advance at this slice
    const int64_t advances = rng.UniformInt(1, 3);
    for (int64_t a = 0; a < advances; ++a) {
      bus.AdvanceTo(now);
      if (rng.Bernoulli(0.5)) send(random_node(), random_node());
    }
  }
  // Deliver the tail without further replies.
  replying = false;
  now = slices + 64;
  bus.AdvanceTo(now);
  EXPECT_EQ(bus.pending(), 0u);
  return deliveries;
}

TEST(MessageBusTest, DeliveryOrderMatchesRotatingReference) {
  for (int64_t latency = 0; latency <= 3; ++latency) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      MessageBus::Config config;
      config.latency_slices = latency;
      config.faults.latency_spikes.push_back({20, 35, 3});
      MessageBus bus(config);
      RotatingReference reference(config);
      const std::vector<Delivery> got = RunScript(bus, seed, 60);
      const std::vector<Delivery> want = RunScript(reference, seed, 60);
      ASSERT_GT(want.size(), 100u);
      EXPECT_EQ(got, want) << "latency " << latency << ", seed " << seed;
      EXPECT_EQ(bus.delivered(), static_cast<int64_t>(want.size()));
    }
  }
}

TEST(MessageBusTest, ReplyTakesThePlaceOfItsCause) {
  // A sends m1 to B at slice 0; C sends m2 to A at slice 1, before the bus
  // advances; B's handler replies r1 to A during AdvanceTo(1). Both m2 and
  // r1 fall due at slice 2, and r1 comes first: it took m1's place, which
  // was ahead of m2. Delivery is not in send order.
  constexpr NodeId kA = 1, kB = 2, kC = 3;
  MessageBus::Config config;
  config.latency_slices = 1;
  MessageBus bus(config);
  std::vector<uint64_t> at_a;
  ASSERT_TRUE(bus.Register(kA, [&at_a](const Message& m) {
                   at_a.push_back(m.offer_id);
                 }).ok());
  ASSERT_TRUE(bus.Register(kB, [&bus](const Message& m) {
                   Message r1 = Ping(kB, kA, bus.now());
                   r1.offer_id = 100 + m.offer_id;
                   ASSERT_TRUE(bus.Send(r1).ok());
                 }).ok());
  ASSERT_TRUE(bus.Register(kC, [](const Message&) {}).ok());
  Message m1 = Ping(kA, kB, 0);
  m1.offer_id = 1;
  ASSERT_TRUE(bus.Send(m1).ok());
  bus.AdvanceTo(0);
  Message m2 = Ping(kC, kA, 1);
  m2.offer_id = 2;
  ASSERT_TRUE(bus.Send(m2).ok());
  bus.AdvanceTo(1);
  EXPECT_TRUE(at_a.empty());
  bus.AdvanceTo(2);
  EXPECT_EQ(at_a, (std::vector<uint64_t>{101, 2}));
}

}  // namespace
}  // namespace mirabel::node

#include "node/message_bus.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace mirabel::node

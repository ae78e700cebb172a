// Unit tests of the individual node types (the simulation tests cover the
// assembled hierarchy).
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "test_util.h"

#include "edms/baseline_provider.h"
#include "node/aggregating_node.h"
#include "node/prosumer_node.h"

namespace mirabel::node {
namespace {

ProsumerNode::Config ProsumerConfig(NodeId id, NodeId brp) {
  ProsumerNode::Config cfg;
  cfg.id = id;
  cfg.brp = brp;
  cfg.offers_per_day = 96.0;  // ~1 per slice: deterministic-ish activity
  cfg.seed = id;
  // These tests pair the prosumer with a raw inbox handler that never acks;
  // passthrough transport keeps send counts 1:1 with offers. The reliability
  // layer has its own tests (reliable_channel_test, the NACK tests below).
  cfg.reliability.enabled = false;
  return cfg;
}

AggregatingNode::Config BrpConfig(NodeId id) {
  AggregatingNode::Config cfg;
  cfg.id = id;
  cfg.engine.negotiate = true;
  cfg.engine.aggregation.params = aggregation::AggregationParams::P3();
  cfg.engine.gate_period = 8;
  cfg.engine.horizon = 96;
  cfg.engine.scheduler_budget_s = 0.005;
  cfg.engine.baseline = std::make_shared<edms::VectorBaselineProvider>(
      std::vector<double>(96 * 10, 5.0));
  return cfg;
}

TEST(ProsumerNodeTest, EmitsValidOffersToItsBrp) {
  MessageBus bus;
  std::vector<Message> inbox;
  ASSERT_TRUE(bus.Register(100, [&inbox](const Message& m) {
                   inbox.push_back(m);
                 }).ok());
  ProsumerNode prosumer(ProsumerConfig(1000, 100), &bus);
  for (flexoffer::TimeSlice t = 0; t < 96; ++t) {
    prosumer.OnTick(t);
    bus.AdvanceTo(t);
  }
  EXPECT_GT(prosumer.stats().offers_created, 20);
  EXPECT_EQ(static_cast<int64_t>(inbox.size()),
            prosumer.stats().offers_created);
  for (const Message& m : inbox) {
    EXPECT_EQ(m.type, MessageType::kFlexOffer);
    EXPECT_EQ(m.from, 1000u);
    EXPECT_TRUE(m.offer.Validate().ok());
    EXPECT_EQ(m.offer.owner, 1000u);
  }
}

TEST(ProsumerNodeTest, ExpiresUnansweredOffers) {
  MessageBus bus;
  ASSERT_TRUE(bus.Register(100, [](const Message&) {}).ok());  // silent BRP
  ProsumerNode prosumer(ProsumerConfig(1000, 100), &bus);
  for (flexoffer::TimeSlice t = 0; t < 2 * 96; ++t) {
    prosumer.OnTick(t);
    bus.AdvanceTo(t);
  }
  // With a mute BRP every sufficiently old offer must have fallen back.
  EXPECT_GT(prosumer.stats().fallbacks, 0);
  EXPECT_EQ(prosumer.stats().offers_accepted, 0);
  EXPECT_EQ(prosumer.stats().offers_executed, 0);
}

TEST(ProsumerNodeTest, AcceptanceRecordsEarnings) {
  MessageBus bus;
  std::vector<Message> inbox;
  ASSERT_TRUE(bus.Register(100, [&inbox](const Message& m) {
                   inbox.push_back(m);
                 }).ok());
  ProsumerNode prosumer(ProsumerConfig(1000, 100), &bus);
  // Generate a few offers.
  for (flexoffer::TimeSlice t = 0; t < 20 && inbox.empty(); ++t) {
    prosumer.OnTick(t);
    bus.AdvanceTo(t);
  }
  ASSERT_FALSE(inbox.empty());
  Message accept;
  accept.type = MessageType::kFlexOfferAccepted;
  accept.from = 100;
  accept.to = 1000;
  accept.sent_at = 20;
  accept.offer_id = inbox.front().offer.id;
  accept.value = 1.5;
  ASSERT_TRUE(bus.Send(accept).ok());
  bus.AdvanceTo(20);
  EXPECT_EQ(prosumer.stats().offers_accepted, 1);
  EXPECT_DOUBLE_EQ(prosumer.stats().earnings_eur, 1.5);
}

TEST(AggregatingNodeTest, NegotiatesAndAggregatesIncomingOffers) {
  MessageBus bus;
  AggregatingNode brp(BrpConfig(100), &bus);
  std::vector<Message> prosumer_inbox;
  ASSERT_TRUE(bus.Register(1000, [&prosumer_inbox](const Message& m) {
                   prosumer_inbox.push_back(m);
                 }).ok());

  // A well-formed flexible offer arrives. The node buffers it: intake is
  // batched per tick, not per message.
  Message msg;
  msg.type = MessageType::kFlexOffer;
  msg.from = 1000;
  msg.to = 100;
  msg.sent_at = 0;
  msg.offer = testutil::OwnedOffer(42, 1000, /*assign_before=*/24,
                                   /*earliest=*/30, /*latest=*/50, /*dur=*/4);
  ASSERT_TRUE(bus.Send(msg).ok());
  bus.AdvanceTo(0);
  EXPECT_EQ(brp.pending_offers(), 1u);
  EXPECT_EQ(brp.stats().offers_received, 0);

  // The tick submits the batch and fires the gate: negotiation reply and
  // disaggregated schedule go out together.
  brp.OnTick(0);
  bus.AdvanceTo(0);
  EXPECT_EQ(brp.pending_offers(), 0u);
  EXPECT_EQ(brp.stats().offers_received, 1);
  EXPECT_EQ(brp.stats().offers_accepted, 1);
  EXPECT_EQ(brp.stats().submit_batches, 1);
  ASSERT_EQ(prosumer_inbox.size(), 2u);
  EXPECT_EQ(prosumer_inbox[0].type, MessageType::kFlexOfferAccepted);
  EXPECT_GT(prosumer_inbox[0].value, 0.0);
  EXPECT_EQ(prosumer_inbox[1].type, MessageType::kScheduledFlexOffer);
  EXPECT_TRUE(prosumer_inbox[1].schedule.ValidateAgainst(msg.offer).ok());
  EXPECT_EQ(brp.stats().macros_scheduled, 1);

  // A re-sent copy of the same offer is dropped at the next flush.
  ASSERT_TRUE(bus.Send(msg).ok());
  bus.AdvanceTo(1);
  brp.OnTick(1);
  EXPECT_EQ(brp.stats().offers_received, 1);
}

TEST(AggregatingNodeTest, RejectsInflexibleOffer) {
  MessageBus bus;
  AggregatingNode::Config cfg = BrpConfig(100);
  cfg.engine.negotiation.acceptance.min_value_eur = 1.0;
  AggregatingNode brp(cfg, &bus);
  std::vector<Message> prosumer_inbox;
  ASSERT_TRUE(bus.Register(1000, [&prosumer_inbox](const Message& m) {
                   prosumer_inbox.push_back(m);
                 }).ok());

  Message msg;
  msg.type = MessageType::kFlexOffer;
  msg.from = 1000;
  msg.to = 100;
  msg.sent_at = 0;
  // Rigid offer: no time flexibility, no energy flexibility.
  msg.offer = testutil::OwnedOffer(43, 1000, /*assign_before=*/24,
                                   /*earliest=*/30, /*latest=*/30, /*dur=*/4,
                                   /*emin=*/1.0, /*emax=*/1.0);
  ASSERT_TRUE(bus.Send(msg).ok());
  bus.AdvanceTo(0);
  brp.OnTick(0);
  bus.AdvanceTo(0);
  EXPECT_EQ(brp.stats().offers_rejected, 1);
  ASSERT_EQ(prosumer_inbox.size(), 1u);
  EXPECT_EQ(prosumer_inbox[0].type, MessageType::kFlexOfferRejected);
}

TEST(AggregatingNodeTest, ExpiresStaleOffersAtGate) {
  MessageBus bus;
  AggregatingNode brp(BrpConfig(100), &bus);
  ASSERT_TRUE(bus.Register(1000, [](const Message&) {}).ok());

  Message msg;
  msg.type = MessageType::kFlexOffer;
  msg.from = 1000;
  msg.to = 100;
  msg.sent_at = 0;
  msg.offer = testutil::OwnedOffer(44, 1000, /*assign_before=*/4,
                                   /*earliest=*/6, /*latest=*/10);
  ASSERT_TRUE(bus.Send(msg).ok());
  bus.AdvanceTo(0);
  // The node sits out the deadline; the first tick both admits the offer
  // and fires a gate that is already past it.
  brp.OnTick(12);
  ASSERT_EQ(brp.stats().offers_accepted, 1);
  EXPECT_EQ(brp.stats().offers_expired_in_pipeline, 1);
  EXPECT_EQ(brp.stats().macros_scheduled, 0);
}

TEST(AggregatingNodeTest, ShardedNodePartitionsProsumers) {
  MessageBus bus;
  AggregatingNode::Config cfg = BrpConfig(100);
  cfg.num_shards = 2;
  AggregatingNode brp(cfg, &bus);
  std::vector<Message> inbox;
  for (NodeId owner = 1000; owner < 1004; ++owner) {
    ASSERT_TRUE(
        bus.Register(owner, [&inbox](const Message& m) { inbox.push_back(m); })
            .ok());
  }

  // Four prosumers (two per shard under owner % 2) each send one offer.
  for (NodeId owner = 1000; owner < 1004; ++owner) {
    Message msg;
    msg.type = MessageType::kFlexOffer;
    msg.from = owner;
    msg.to = 100;
    msg.sent_at = 0;
    msg.offer =
        testutil::OwnedOffer(owner * 10, owner, /*assign_before=*/24,
                             /*earliest=*/30, /*latest=*/50, /*dur=*/4);
    ASSERT_TRUE(bus.Send(msg).ok());
  }
  bus.AdvanceTo(0);
  brp.OnTick(0);
  bus.AdvanceTo(0);

  // One batch was routed across both shards; merged stats stay additive.
  AggregatingStats stats = brp.stats();
  EXPECT_EQ(stats.offers_received, 4);
  EXPECT_EQ(stats.offers_accepted, 4);
  EXPECT_EQ(stats.submit_batches, 2);  // one sub-batch per shard
  EXPECT_EQ(brp.runtime().shard(0).stats().offers_received, 2);
  EXPECT_EQ(brp.runtime().shard(1).stats().offers_received, 2);
  // Every owner got its accept reply and its disaggregated schedule.
  int accepts = 0;
  int schedules = 0;
  for (const Message& m : inbox) {
    if (m.type == MessageType::kFlexOfferAccepted) ++accepts;
    if (m.type == MessageType::kScheduledFlexOffer) ++schedules;
  }
  EXPECT_EQ(accepts, 4);
  EXPECT_EQ(schedules, 4);
}

TEST(ProsumerNodeTest, HonorsNackWithBackoffResubmit) {
  MessageBus bus;
  std::vector<Message> inbox;
  ASSERT_TRUE(bus.Register(100, [&inbox](const Message& m) {
                   if (m.type == MessageType::kFlexOffer) inbox.push_back(m);
                 }).ok());
  ProsumerNode prosumer(ProsumerConfig(1000, 100), &bus);
  flexoffer::TimeSlice t = 0;
  for (; t < 20 && inbox.empty(); ++t) {
    prosumer.OnTick(t);
    bus.AdvanceTo(t);
  }
  ASSERT_FALSE(inbox.empty());
  const flexoffer::FlexOfferId shed_id = inbox.front().offer.id;

  // The BRP sheds the offer: NACK with retry-after = 2 slices.
  Message nack;
  nack.type = MessageType::kNack;
  nack.from = 100;
  nack.to = 1000;
  nack.sent_at = t;
  nack.offer_id = shed_id;
  nack.value = 2.0;
  ASSERT_TRUE(bus.Send(nack).ok());
  bus.AdvanceTo(t);
  EXPECT_EQ(prosumer.stats().nacks_received, 1);
  EXPECT_EQ(prosumer.stats().offers_resubmitted, 0);  // waiting out backoff

  // Within retry-after + backoff(1) + jitter <= 2 + 1 + 1 slices the offer
  // goes out again — same id, fresh send.
  auto resubmissions = [&inbox, shed_id]() {
    int n = 0;
    for (const Message& m : inbox) {
      if (m.offer.id == shed_id) ++n;
    }
    return n - 1;  // minus the original send
  };
  for (flexoffer::TimeSlice u = t; u < t + 6; ++u) {
    prosumer.OnTick(u);
    bus.AdvanceTo(u);
  }
  EXPECT_EQ(prosumer.stats().offers_resubmitted, 1);
  EXPECT_EQ(resubmissions(), 1);

  // Without a fresh NACK there is no further resubmission (the entry waits),
  // and after max_offer_resubmits NACKs the prosumer gives up and leaves the
  // offer to the deadline fallback.
  for (flexoffer::TimeSlice u = t + 6; u < t + 12; ++u) {
    prosumer.OnTick(u);
    bus.AdvanceTo(u);
  }
  EXPECT_EQ(prosumer.stats().offers_resubmitted, 1);
  for (int round = 0; round < 5; ++round) {
    nack.sent_at = t + 12 + round * 8;
    ASSERT_TRUE(bus.Send(nack).ok());
    for (flexoffer::TimeSlice u = nack.sent_at; u < nack.sent_at + 8; ++u) {
      bus.AdvanceTo(u);
      prosumer.OnTick(u);
    }
  }
  EXPECT_EQ(prosumer.stats().nacks_received, 6);
  // Capped at max_offer_resubmits (3); the deadline fallback may close the
  // offer before all retries are spent, but the cap is never exceeded.
  EXPECT_LE(prosumer.stats().offers_resubmitted, 3);
  EXPECT_GE(prosumer.stats().offers_resubmitted, 1);
}

TEST(ProsumerNodeTest, ArmedResubmitSurvivesAnEarlierTick) {
  // Two NACKed offers wait out different backoffs. The tick that resubmits
  // the first must leave the second armed: it goes out at its own due slice,
  // although nothing else falls due in between.
  MessageBus bus;
  std::vector<Message> inbox;
  ASSERT_TRUE(bus.Register(100, [&inbox](const Message& m) {
                   if (m.type == MessageType::kFlexOffer) inbox.push_back(m);
                 }).ok());
  // 96 offers a day: one offer every slice.
  ProsumerNode prosumer(ProsumerConfig(1000, 100), &bus);
  for (flexoffer::TimeSlice t = 0; t < 2; ++t) {
    prosumer.OnTick(t);
    bus.AdvanceTo(t);
  }
  ASSERT_EQ(inbox.size(), 2u);
  const flexoffer::FlexOffer first = inbox[0].offer;
  const flexoffer::FlexOffer second = inbox[1].offer;
  // No offer's deadline falls before slice 8 (leads are at least 16 slices).
  ASSERT_GE(first.assignment_before, 8);
  ASSERT_GE(second.assignment_before, 8);

  // Due at 1 + retry-after + backoff 1 + jitter 0..1: [3, 4] and [5, 6].
  for (const auto& [offer, retry_after] :
       {std::pair{first.id, 1.0}, std::pair{second.id, 3.0}}) {
    Message nack;
    nack.type = MessageType::kNack;
    nack.from = 100;
    nack.to = 1000;
    nack.sent_at = 1;
    nack.offer_id = offer;
    nack.value = retry_after;
    ASSERT_TRUE(bus.Send(nack).ok());
  }
  bus.AdvanceTo(1);
  ASSERT_EQ(prosumer.stats().nacks_received, 2);
  for (flexoffer::TimeSlice t = 2; t < 8; ++t) {
    prosumer.OnTick(t);
    bus.AdvanceTo(t);
  }
  auto resent_at = [&inbox](flexoffer::FlexOfferId id) {
    std::vector<flexoffer::TimeSlice> at;
    for (size_t i = 2; i < inbox.size(); ++i) {
      if (inbox[i].offer.id == id) at.push_back(inbox[i].sent_at);
    }
    return at;
  };
  const std::vector<flexoffer::TimeSlice> first_at = resent_at(first.id);
  const std::vector<flexoffer::TimeSlice> second_at = resent_at(second.id);
  ASSERT_EQ(first_at.size(), 1u);
  EXPECT_GE(first_at[0], 3);
  EXPECT_LE(first_at[0], 4);
  ASSERT_EQ(second_at.size(), 1u);
  EXPECT_GE(second_at[0], 5);
  EXPECT_LE(second_at[0], 6);
  EXPECT_EQ(prosumer.stats().offers_resubmitted, 2);
}

TEST(AggregatingNodeTest, DrainPhaseRefusesLateOffersWithReply) {
  // Regression: offers arriving during wind-down used to be buffered into a
  // batch no gate would ever run — silently stranding the owner until its
  // deadline. They must be refused with a terminal reply instead.
  MessageBus bus;
  AggregatingNode::Config cfg = BrpConfig(100);
  cfg.reliability.enabled = false;  // raw inbox below never acks
  AggregatingNode brp(cfg, &bus);
  std::vector<Message> inbox;
  ASSERT_TRUE(bus.Register(1000, [&inbox](const Message& m) {
                   inbox.push_back(m);
                 }).ok());

  brp.OnTick(0);
  brp.FlushBuffers(10);  // wind-down begins: no gate will run again

  Message late;
  late.type = MessageType::kFlexOffer;
  late.from = 1000;
  late.to = 100;
  late.sent_at = 11;
  late.offer = testutil::OwnedOffer(77, 1000, /*assign_before=*/40,
                                    /*earliest=*/48, /*latest=*/60, /*dur=*/4);
  ASSERT_TRUE(bus.Send(late).ok());
  bus.AdvanceTo(11);
  EXPECT_EQ(brp.late_offers_refused(), 1);
  EXPECT_EQ(brp.pending_offers(), 0u);  // refused inline, not buffered
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].type, MessageType::kFlexOfferRejected);
  EXPECT_EQ(inbox[0].offer_id, 77u);
  // The refused offer never reached an engine.
  EXPECT_EQ(brp.stats().offers_received, 0);

  // A late copy of an offer the node already admitted is NOT refused (the
  // runtime's own state terminalizes it); it is dropped as the duplicate
  // it is.
  brp.FlushBuffers(12);
  bus.AdvanceTo(12);
  EXPECT_EQ(brp.late_offers_refused(), 1);
}

TEST(AggregatingNodeTest, FlushBuffersExpiresStrandedPipelineOffers) {
  // An offer admitted before wind-down whose deadline passes during the
  // drain must be terminalized by the deadline sweep, without a gate.
  MessageBus bus;
  AggregatingNode::Config cfg = BrpConfig(100);
  cfg.reliability.enabled = false;
  AggregatingNode brp(cfg, &bus);
  ASSERT_TRUE(bus.Register(1000, [](const Message&) {}).ok());

  Message msg;
  msg.type = MessageType::kFlexOffer;
  msg.from = 1000;
  msg.to = 100;
  msg.sent_at = 0;
  msg.offer = testutil::OwnedOffer(88, 1000, /*assign_before=*/6,
                                   /*earliest=*/8, /*latest=*/12, /*dur=*/2);
  ASSERT_TRUE(bus.Send(msg).ok());
  bus.AdvanceTo(0);
  // First wind-down flush admits the buffered offer (negotiation accepts
  // it) but never opens a gate.
  brp.FlushBuffers(1);
  ASSERT_EQ(brp.stats().offers_accepted, 1);
  EXPECT_EQ(brp.stats().offers_expired_in_pipeline, 0);
  // Once the deadline passes, the sweep expires it.
  brp.FlushBuffers(7);
  EXPECT_EQ(brp.stats().offers_expired_in_pipeline, 1);
  EXPECT_EQ(brp.stats().macros_scheduled, 0);
}

TEST(AggregatingNodeTest, MeasurementsLandInStore) {
  MessageBus bus;
  AggregatingNode brp(BrpConfig(100), &bus);
  Message msg;
  msg.type = MessageType::kMeasurement;
  msg.from = 1000;
  msg.to = 100;
  msg.sent_at = 7;
  msg.value = 3.25;
  ASSERT_TRUE(bus.Send(msg).ok());
  bus.AdvanceTo(7);
  brp.OnTick(7);  // meter readings flush as one routed batch per tick
  auto series = brp.store(brp.runtime().ShardOf(1000))
                    .MeasurementSeries(1000, storage::EnergyType::kConsumption,
                                       0, 10);
  EXPECT_DOUBLE_EQ(series[7], 3.25);
}

}  // namespace
}  // namespace mirabel::node

// Tests of the mid-stream observability path: the SnapshotSlot seqlock and
// ShardedEdmsRuntime::Snapshot() under full streaming concurrency.
//
// The CI thread-sanitizer job runs this suite: the seqlock stores its
// payload as atomic words with release stores and acquire loads and no
// fences, so it must be data-race-free by the memory model, not merely
// torn-free in practice, and TSan, which does not model fences, vets the
// whole protocol. The stress test below runs Snapshot() readers
// against >= 4 producer threads and an advancing control loop, asserting
// per-shard coherence invariants on every read.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "edms/runtime_snapshot.h"
#include "edms/sharded_runtime.h"
#include "test_util.h"

namespace mirabel::edms {
namespace {

using flexoffer::FlexOffer;
using flexoffer::FlexOfferId;
using flexoffer::TimeSlice;

TEST(SnapshotSlotTest, DefaultConstructedReadsZeroes) {
  SnapshotSlot slot;
  ShardSnapshot snap = slot.Read();
  EXPECT_EQ(snap.stats.offers_received, 0);
  EXPECT_EQ(snap.intake_depth_batches, 0);
  EXPECT_EQ(snap.strand_tasks_run, 0);
  EXPECT_EQ(snap.last_drain_slice, -1);
}

TEST(SnapshotSlotTest, PublishRoundTripsEveryField) {
  SnapshotSlot slot;
  ShardSnapshot in;
  in.stats.offers_received = 7;
  in.stats.offers_accepted = 5;
  in.stats.payments_eur = 12.25;
  in.intake_depth_batches = 3;
  in.intake_drained_batches = 11;
  in.strand_tasks_run = 42;
  in.strand_task_s_total = 1.5;
  in.last_task_s = 0.25;
  in.last_queue_wait_s = 0.125;
  in.last_drain_slice = 96;
  slot.Publish(in);

  ShardSnapshot out = slot.Read();
  EXPECT_EQ(out.stats.offers_received, 7);
  EXPECT_EQ(out.stats.offers_accepted, 5);
  EXPECT_DOUBLE_EQ(out.stats.payments_eur, 12.25);
  EXPECT_EQ(out.intake_depth_batches, 3);
  EXPECT_EQ(out.intake_drained_batches, 11);
  EXPECT_EQ(out.strand_tasks_run, 42);
  EXPECT_DOUBLE_EQ(out.strand_task_s_total, 1.5);
  EXPECT_DOUBLE_EQ(out.last_task_s, 0.25);
  EXPECT_DOUBLE_EQ(out.last_queue_wait_s, 0.125);
  EXPECT_EQ(out.last_drain_slice, 96);
}

TEST(SnapshotSlotTest, ConcurrentReadersNeverSeeTornSnapshots) {
  // One writer publishes snapshots whose fields are all functions of one
  // counter; readers assert the relationships on every read. A torn read
  // (fields from two different publishes) breaks an equation.
  SnapshotSlot slot;
  std::atomic<bool> stop{false};
  constexpr int64_t kPublishes = 50000;

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        ShardSnapshot snap = slot.Read();
        const int64_t i = snap.stats.offers_received;
        EXPECT_EQ(snap.stats.offers_accepted, 2 * i);
        EXPECT_EQ(snap.intake_depth_batches, 3 * i);
        // i == 0 also matches the slot's default-constructed snapshot,
        // which readers may observe before the first publish below.
        EXPECT_EQ(snap.strand_tasks_run, 4 * i);
        EXPECT_DOUBLE_EQ(snap.strand_task_s_total,
                         static_cast<double>(i) * 0.5);
      }
    });
  }
  for (int64_t i = 0; i <= kPublishes; ++i) {
    ShardSnapshot snap;
    snap.stats.offers_received = i;
    snap.stats.offers_accepted = 2 * i;
    snap.intake_depth_batches = 3 * i;
    snap.strand_tasks_run = 4 * i;
    snap.strand_task_s_total = static_cast<double>(i) * 0.5;
    slot.Publish(snap);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  ShardSnapshot last = slot.Read();
  EXPECT_EQ(last.stats.offers_received, kPublishes);
}

ShardedEdmsRuntime::Config SnapshotRuntimeConfig(size_t num_shards) {
  ShardedEdmsRuntime::Config rc;
  rc.num_shards = num_shards;
  rc.engine.actor = 100;
  rc.engine.negotiate = true;
  rc.engine.aggregation.params = aggregation::AggregationParams::P3();
  rc.engine.gate_period = 8;
  rc.engine.horizon = 96;
  rc.engine.scheduler_budget_s = 0.0;
  rc.engine.scheduler_max_iterations = 40;
  rc.engine.seed = 77;
  rc.engine.baseline = std::make_shared<VectorBaselineProvider>(
      std::vector<double>(960, 5.0));
  return rc;
}

/// Per-shard coherence invariants that must hold on EVERY snapshot taken
/// mid-stream: each shard's slice is one engine state published atomically,
/// so its internal accounting equations hold even while other shards (and
/// the producers) are mid-flight.
void ExpectCoherent(const RuntimeSnapshot& snap) {
  for (const ShardSnapshot& shard : snap.shards) {
    EXPECT_GE(shard.stats.offers_received,
              shard.stats.offers_accepted + shard.stats.offers_rejected);
    EXPECT_GE(shard.intake_depth_batches, 0);
    EXPECT_GE(shard.intake_drained_batches, 0);
    EXPECT_GE(shard.strand_tasks_run, shard.intake_drained_batches > 0 ? 1 : 0);
    EXPECT_GE(shard.strand_task_s_total, 0.0);
  }
}

/// The TSan centerpiece: 4 producer threads stream disjoint offer batches,
/// the control thread advances gates, and 2 reader threads hammer
/// Snapshot() the whole time. TSan vets the seqlock protocol; the asserts
/// vet coherence and per-shard monotonicity.
TEST(RuntimeSnapshotTest, SnapshotIsCoherentUnderConcurrentStreaming) {
  ShardedEdmsRuntime runtime(SnapshotRuntimeConfig(4));
  constexpr int kProducers = 4;
  constexpr uint64_t kOffersPerProducer = 36;

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::vector<int64_t> prev_tasks(runtime.num_shards(), 0);
      std::vector<int64_t> prev_drained(runtime.num_shards(), 0);
      while (!stop.load(std::memory_order_acquire)) {
        RuntimeSnapshot snap = runtime.Snapshot();
        ExpectCoherent(snap);
        ASSERT_EQ(snap.shards.size(), runtime.num_shards());
        for (size_t i = 0; i < snap.shards.size(); ++i) {
          // Cumulative gauges never go backwards between successive reads.
          EXPECT_GE(snap.shards[i].strand_tasks_run, prev_tasks[i]);
          EXPECT_GE(snap.shards[i].intake_drained_batches, prev_drained[i]);
          prev_tasks[i] = snap.shards[i].strand_tasks_run;
          prev_drained[i] = snap.shards[i].intake_drained_batches;
        }
      }
    });
  }

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&runtime, p] {
      // Disjoint owners and ids per producer: all 4 submit concurrently.
      const uint64_t owner_base = 801 + static_cast<uint64_t>(p) * 4;
      std::vector<FlexOffer> offers;
      for (uint64_t k = 0; k < kOffersPerProducer; ++k) {
        const uint64_t owner = owner_base + k % 4;
        offers.push_back(testutil::OwnedOffer(
            owner * 1000 + k, owner, /*assign_before=*/40, /*earliest=*/48,
            /*latest=*/70));
      }
      for (size_t i = 0; i < offers.size(); i += 4) {
        auto batch = std::span<const FlexOffer>(
            offers.data() + i, std::min<size_t>(4, offers.size() - i));
        EXPECT_TRUE(runtime.SubmitOffers(batch, 0).ok());
        std::this_thread::yield();
      }
    });
  }

  // Control loop: gates advance while producers and readers run.
  for (TimeSlice now = 0; now <= 24; now += 8) {
    EXPECT_TRUE(runtime.Advance(now).ok());
    std::this_thread::yield();
  }
  for (std::thread& t : producers) t.join();
  EXPECT_TRUE(runtime.FlushIntake().ok());
  EXPECT_TRUE(runtime.Advance(32).ok());
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  // Quiescent now: the last published snapshots carry the final engine
  // state, so Snapshot() and the exact stats() agree.
  RuntimeSnapshot snap = runtime.Snapshot();
  EngineStats exact = runtime.stats();
  EXPECT_EQ(snap.stats.offers_received, exact.offers_received);
  EXPECT_EQ(snap.stats.offers_accepted, exact.offers_accepted);
  EXPECT_EQ(snap.stats.offers_rejected, exact.offers_rejected);
  EXPECT_EQ(snap.stats.intake_errors, exact.intake_errors);
  EXPECT_EQ(snap.stats.offers_received,
            static_cast<int64_t>(kProducers * kOffersPerProducer));
  EXPECT_EQ(snap.intake_depth_batches, 0);
  EXPECT_GT(snap.intake_drained_batches, 0);
  EXPECT_GT(snap.strand_tasks_run, 0);
}

TEST(RuntimeSnapshotTest, InlineModePublishesSnapshotsToo) {
  // The 1-shard no-pool deployment runs everything on the caller thread;
  // Snapshot() must still reflect the state after each call.
  ShardedEdmsRuntime runtime(SnapshotRuntimeConfig(1));

  std::vector<FlexOffer> offers;
  for (uint64_t k = 0; k < 6; ++k) {
    offers.push_back(testutil::OwnedOffer(900 + k, 901 + k,
                                          /*assign_before=*/24,
                                          /*earliest=*/30, /*latest=*/50));
  }
  ASSERT_TRUE(
      runtime.SubmitOffers(std::span<const FlexOffer>(offers), 0).ok());
  RuntimeSnapshot snap = runtime.Snapshot();
  EXPECT_EQ(snap.stats.offers_received, 6);
  EXPECT_EQ(snap.strand_tasks_run, 1);
  ASSERT_TRUE(runtime.Advance(0).ok());
  snap = runtime.Snapshot();
  EXPECT_EQ(snap.strand_tasks_run, 2);
  EXPECT_EQ(snap.stats.offers_received, runtime.stats().offers_received);
}

}  // namespace
}  // namespace mirabel::edms

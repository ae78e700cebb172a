// Tests of the MPSC IntakeQueue, the intake channel into a pooled
// ShardedEdmsRuntime shard: per-producer FIFO, cross-thread visibility of
// the batch payloads, and loss-free operation under producer contention.
//
// The CI thread-sanitizer job runs this suite.
#include "edms/intake_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "test_util.h"

namespace mirabel::edms {
namespace {

using flexoffer::FlexOffer;
using flexoffer::FlexOfferId;
using flexoffer::TimeSlice;

IntakeBatch MakeBatch(FlexOfferId id, TimeSlice now) {
  IntakeBatch batch;
  batch.offers.push_back(testutil::SampleOffer(id));
  batch.now = now;
  return batch;
}

TEST(IntakeQueueTest, StartsEmpty) {
  IntakeQueue queue;
  IntakeBatch batch;
  EXPECT_FALSE(queue.Pop(&batch));
}

TEST(IntakeQueueTest, PopsInPushOrder) {
  IntakeQueue queue;
  for (FlexOfferId id = 1; id <= 5; ++id) {
    queue.Push(MakeBatch(id, static_cast<TimeSlice>(id * 10)));
  }
  for (FlexOfferId id = 1; id <= 5; ++id) {
    IntakeBatch batch;
    ASSERT_TRUE(queue.Pop(&batch));
    ASSERT_EQ(batch.offers.size(), 1u);
    EXPECT_EQ(batch.offers[0].id, id);
    EXPECT_EQ(batch.now, static_cast<TimeSlice>(id * 10));
  }
  IntakeBatch batch;
  EXPECT_FALSE(queue.Pop(&batch));
}

TEST(IntakeQueueTest, DrainAppendsEverything) {
  IntakeQueue queue;
  for (FlexOfferId id = 1; id <= 3; ++id) queue.Push(MakeBatch(id, 0));
  std::vector<IntakeBatch> out;
  out.push_back(MakeBatch(99, 0));  // pre-existing content is kept
  EXPECT_EQ(queue.Drain(&out), 3u);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].offers[0].id, 99u);
  EXPECT_EQ(out[3].offers[0].id, 3u);
  EXPECT_EQ(queue.Drain(&out), 0u);
}

TEST(IntakeQueueTest, QueueIsReusableAfterDrain) {
  IntakeQueue queue;
  queue.Push(MakeBatch(1, 0));
  std::vector<IntakeBatch> out;
  EXPECT_EQ(queue.Drain(&out), 1u);
  queue.Push(MakeBatch(2, 0));
  EXPECT_EQ(queue.Drain(&out), 1u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].offers[0].id, 2u);
}

TEST(IntakeQueueTest, ConcurrentProducersLoseNothingAndKeepTheirOrder) {
  // 4 producers push disjoint id ranges while the consumer drains
  // concurrently: every batch must arrive exactly once, and each producer's
  // own batches must come out in its push order (MPSC guarantees
  // per-producer FIFO, nothing across producers).
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  IntakeQueue queue;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        FlexOfferId id = static_cast<FlexOfferId>(p) * 1000000u +
                         static_cast<FlexOfferId>(i);
        queue.Push(MakeBatch(id, static_cast<TimeSlice>(i)));
      }
    });
  }

  std::vector<IntakeBatch> drained;
  while (drained.size() <
         static_cast<size_t>(kProducers) * static_cast<size_t>(kPerProducer)) {
    if (queue.Drain(&drained) == 0) std::this_thread::yield();
  }
  for (std::thread& t : producers) t.join();
  // Producers are joined and everything reachable is drained: no stragglers.
  EXPECT_EQ(queue.Drain(&drained), 0u);

  std::set<FlexOfferId> seen;
  std::vector<TimeSlice> last_seq(kProducers, -1);
  for (const IntakeBatch& batch : drained) {
    ASSERT_EQ(batch.offers.size(), 1u);
    FlexOfferId id = batch.offers[0].id;
    EXPECT_TRUE(seen.insert(id).second) << "duplicate batch " << id;
    size_t producer = static_cast<size_t>(id / 1000000u);
    ASSERT_LT(producer, static_cast<size_t>(kProducers));
    EXPECT_GT(batch.now, last_seq[producer]) << "producer order violated";
    last_seq[producer] = batch.now;
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kProducers) *
                             static_cast<size_t>(kPerProducer));
}

}  // namespace
}  // namespace mirabel::edms

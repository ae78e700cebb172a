// Tests of the ShardedEdmsRuntime: N engine shards behind one event stream.
//
// The determinism contract: for a fixed seed and workload, an N-shard run
// must accept, schedule and execute exactly the same offer ids as the
// 1-shard run, with identical values for every partition-invariant stats
// field (per-offer counters and payments). Fields coupled to the scheduling
// partition itself — scheduling_runs (one per shard with work at a gate),
// macros_scheduled (grouping is per shard), imbalance and cost (each shard
// solves its own problem against the shared baseline) — are additive
// bookkeeping of *how* the work was split and legitimately differ.
//
// The CI thread-sanitizer job runs this suite to vet the worker fan-out and
// the lock-free event merge.
#include "edms/sharded_runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "test_util.h"

namespace mirabel::edms {
namespace {

using flexoffer::FlexOffer;
using flexoffer::FlexOfferId;
using flexoffer::ScheduledFlexOffer;
using flexoffer::TimeSlice;

EdmsEngine::Config DeterministicEngineConfig() {
  EdmsEngine::Config cfg;
  cfg.actor = 100;
  cfg.negotiate = true;
  cfg.aggregation.params = aggregation::AggregationParams::P3();
  cfg.gate_period = 8;
  cfg.horizon = 96;
  // Iteration-bounded scheduling: bit-identical runs for a fixed seed.
  cfg.scheduler_budget_s = 0.0;
  cfg.scheduler_max_iterations = 40;
  cfg.seed = 77;
  cfg.baseline = std::make_shared<VectorBaselineProvider>(
      std::vector<double>(960, 5.0));
  return cfg;
}

ShardedEdmsRuntime::Config RuntimeConfig(size_t num_shards) {
  ShardedEdmsRuntime::Config rc;
  rc.num_shards = num_shards;
  rc.engine = DeterministicEngineConfig();
  return rc;
}

/// 24 offers from 8 owners. Every offer shares the same time window, so the
/// per-shard aggregation grouping cannot change which offers fit a gate's
/// horizon — the lifecycle outcome is partition-invariant by construction.
std::vector<FlexOffer> Workload() {
  std::vector<FlexOffer> offers;
  for (uint64_t owner = 501; owner <= 508; ++owner) {
    for (uint64_t k = 0; k < 3; ++k) {
      offers.push_back(testutil::OwnedOffer(
          owner * 100 + k, owner, /*assign_before=*/24, /*earliest=*/30,
          /*latest=*/50, /*dur=*/4, /*emin=*/1.0,
          /*emax=*/2.0 + 0.125 * static_cast<double>(k)));
    }
  }
  return offers;
}

std::string Digest(const Event& event) {
  std::ostringstream os;
  os << EventName(event) << "@" << EventTime(event) << ":";
  if (const auto* e = std::get_if<OfferAccepted>(&event)) {
    os << e->offer << " price=" << e->agreed_price_eur;
  } else if (const auto* e = std::get_if<OfferRejected>(&event)) {
    os << e->offer;
  } else if (const auto* e = std::get_if<MacroPublished>(&event)) {
    os << e->macro.id << " members=" << e->member_count
       << " fwd=" << e->forwarded;
  } else if (const auto* e = std::get_if<ScheduleAssigned>(&event)) {
    os << e->schedule.offer_id << " start=" << e->schedule.start
       << " kwh=" << e->schedule.TotalEnergy();
  } else if (const auto* e = std::get_if<OfferExecuted>(&event)) {
    os << e->offer << " kwh=" << e->energy_kwh;
  } else if (const auto* e = std::get_if<OfferExpired>(&event)) {
    os << e->offer;
  }
  return os.str();
}

struct RunOutcome {
  std::set<FlexOfferId> accepted;
  std::set<FlexOfferId> assigned;
  std::set<FlexOfferId> executed;
  std::vector<std::string> digests;
  EngineStats stats;
};

/// Full lifecycle round trip: batch intake at 0, one gate, execution of
/// every assigned schedule metered at slice 40.
RunOutcome RunWorkload(size_t num_shards) {
  ShardedEdmsRuntime runtime(RuntimeConfig(num_shards));
  std::vector<FlexOffer> offers = Workload();
  auto submitted =
      runtime.SubmitOffers(std::span<const FlexOffer>(offers), 0);
  EXPECT_TRUE(submitted.ok()) << submitted.status();
  EXPECT_TRUE(runtime.Advance(0).ok());

  RunOutcome outcome;
  std::vector<ShardedEdmsRuntime::MeterReading> readings;
  for (const Event& event : runtime.PollEvents()) {
    outcome.digests.push_back(Digest(event));
    if (const auto* e = std::get_if<OfferAccepted>(&event)) {
      outcome.accepted.insert(e->offer);
    } else if (const auto* e = std::get_if<ScheduleAssigned>(&event)) {
      outcome.assigned.insert(e->schedule.offer_id);
      readings.push_back({e->owner, /*slice=*/40, e->schedule.TotalEnergy(),
                          e->schedule.offer_id});
    }
  }
  runtime.RecordMeterReadings(readings);
  for (const Event& event : runtime.PollEvents()) {
    outcome.digests.push_back(Digest(event));
    if (const auto* e = std::get_if<OfferExecuted>(&event)) {
      outcome.executed.insert(e->offer);
    }
  }
  outcome.stats = runtime.stats();
  return outcome;
}

TEST(ShardedRuntimeTest, FourShardsMatchSingleShardOutcomes) {
  RunOutcome one = RunWorkload(1);
  RunOutcome four = RunWorkload(4);

  ASSERT_EQ(one.accepted.size(), 24u);
  EXPECT_EQ(four.accepted, one.accepted);
  EXPECT_EQ(four.assigned, one.assigned);
  EXPECT_EQ(four.executed, one.executed);
  ASSERT_EQ(one.assigned.size(), 24u);
  ASSERT_EQ(one.executed.size(), 24u);

  // Partition-invariant stats fields agree exactly.
  EXPECT_EQ(four.stats.offers_received, one.stats.offers_received);
  EXPECT_EQ(four.stats.offers_accepted, one.stats.offers_accepted);
  EXPECT_EQ(four.stats.offers_rejected, one.stats.offers_rejected);
  EXPECT_EQ(four.stats.offers_expired_in_pipeline,
            one.stats.offers_expired_in_pipeline);
  EXPECT_EQ(four.stats.offers_executed, one.stats.offers_executed);
  EXPECT_EQ(four.stats.micro_schedules_sent,
            one.stats.micro_schedules_sent);
  EXPECT_DOUBLE_EQ(four.stats.payments_eur, one.stats.payments_eur);
  // Partition bookkeeping: the 4-shard run split the batch and the
  // scheduling across shards.
  EXPECT_GE(four.stats.submit_batches, one.stats.submit_batches);
  EXPECT_GE(four.stats.scheduling_runs, one.stats.scheduling_runs);
}

TEST(ShardedRuntimeTest, SameShardCountRunsAreIdentical) {
  // Worker interleaving must not leak into observable behaviour: two
  // 4-shard runs produce the same merged event stream, event for event,
  // and identical merged stats on every field.
  RunOutcome a = RunWorkload(4);
  RunOutcome b = RunWorkload(4);
  ASSERT_FALSE(a.digests.empty());
  EXPECT_EQ(a.digests, b.digests);
  EXPECT_EQ(a.stats.submit_batches, b.stats.submit_batches);
  EXPECT_EQ(a.stats.scheduling_runs, b.stats.scheduling_runs);
  EXPECT_EQ(a.stats.macros_scheduled, b.stats.macros_scheduled);
  EXPECT_DOUBLE_EQ(a.stats.payments_eur, b.stats.payments_eur);
  EXPECT_DOUBLE_EQ(a.stats.imbalance_before_kwh,
                   b.stats.imbalance_before_kwh);
  EXPECT_DOUBLE_EQ(a.stats.imbalance_after_kwh, b.stats.imbalance_after_kwh);
  EXPECT_DOUBLE_EQ(a.stats.schedule_cost_eur, b.stats.schedule_cost_eur);
}

TEST(ShardedRuntimeTest, MergedEventStreamIsOrderedBySlice) {
  ShardedEdmsRuntime runtime(RuntimeConfig(3));
  std::vector<FlexOffer> offers = Workload();
  // Stream the workload over several ticks, polling only at the end: the
  // merged drain must still come out ordered by emission slice.
  size_t next = 0;
  for (TimeSlice now = 0; now < 32; ++now) {
    std::vector<FlexOffer> batch;
    while (next < offers.size() && next < (static_cast<size_t>(now) + 1) * 2) {
      batch.push_back(offers[next++]);
    }
    if (!batch.empty()) {
      ASSERT_TRUE(
          runtime.SubmitOffers(std::span<const FlexOffer>(batch), now).ok());
    }
    ASSERT_TRUE(runtime.Advance(now).ok());
  }
  std::vector<Event> events = runtime.PollEvents();
  ASSERT_FALSE(events.empty());
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(EventTime(events[i - 1]), EventTime(events[i]));
  }
}

TEST(ShardedRuntimeTest, RouterControlsPlacement) {
  ShardedEdmsRuntime::Config rc = RuntimeConfig(2);
  // Everything below owner 505 pins to shard 0, the rest to shard 1.
  rc.router = [](flexoffer::ActorId owner, size_t) -> size_t {
    return owner < 505 ? 0 : 1;
  };
  ShardedEdmsRuntime runtime(rc);
  EXPECT_EQ(runtime.ShardOf(501), 0u);
  EXPECT_EQ(runtime.ShardOf(505), 1u);

  std::vector<FlexOffer> offers = Workload();  // owners 501..508, 3 each
  ASSERT_TRUE(runtime.SubmitOffers(std::span<const FlexOffer>(offers), 0).ok());
  // The engines are read only once the intake drained.
  ASSERT_TRUE(runtime.FlushIntake().ok());
  EXPECT_EQ(runtime.shard(0).stats().offers_received, 12);
  EXPECT_EQ(runtime.shard(1).stats().offers_received, 12);
  EXPECT_TRUE(runtime.HasSeenOffer(offers.front()));
}

/// The schedule that runs `macro` at its earliest start at full energy.
ScheduledFlexOffer FullSchedule(const FlexOffer& macro) {
  ScheduledFlexOffer s;
  s.offer_id = macro.id;
  s.start = macro.earliest_start;
  for (const auto& band : macro.profile) s.energies_kwh.push_back(band.max_kwh);
  return s;
}

TEST(ShardedRuntimeTest, ForwardingModePublishesLaneUniqueMacros) {
  ShardedEdmsRuntime::Config rc = RuntimeConfig(2);
  rc.engine.schedule_locally = false;
  ShardedEdmsRuntime runtime(rc);
  std::vector<FlexOffer> offers = Workload();
  ASSERT_TRUE(runtime.SubmitOffers(std::span<const FlexOffer>(offers), 0).ok());
  ASSERT_TRUE(runtime.Advance(0).ok());

  std::vector<FlexOffer> published;
  for (const Event& event : runtime.PollEvents()) {
    if (const auto* e = std::get_if<MacroPublished>(&event)) {
      EXPECT_TRUE(e->forwarded);
      published.push_back(e->macro);
    }
  }
  ASSERT_GE(published.size(), 2u);
  // Both shards publish under actor 100; the id lanes keep the wire ids
  // collision-free.
  std::set<FlexOfferId> macro_ids;
  for (const FlexOffer& macro : published) {
    EXPECT_TRUE(macro_ids.insert(macro.id).second)
        << "duplicate macro wire id " << macro.id;
  }

  // Returning schedules route to the shard that published each macro.
  int assigned = 0;
  for (const FlexOffer& macro : published) {
    ASSERT_TRUE(runtime.CompleteMacroSchedule(FullSchedule(macro), 1).ok());
  }
  for (const Event& event : runtime.PollEvents()) {
    if (std::get_if<ScheduleAssigned>(&event) != nullptr) ++assigned;
  }
  EXPECT_EQ(assigned, 24);

  ScheduledFlexOffer bogus;
  bogus.offer_id = 424242;
  EXPECT_EQ(runtime.CompleteMacroSchedule(bogus, 1).code(),
            StatusCode::kNotFound);
}

TEST(ShardedRuntimeTest, MacroSchedulesRouteByLaneInOneStrandTask) {
  ShardedEdmsRuntime::Config rc = RuntimeConfig(3);
  rc.engine.schedule_locally = false;
  ShardedEdmsRuntime runtime(rc);
  std::vector<FlexOffer> offers = Workload();  // owners 501..508: all shards
  ASSERT_TRUE(runtime.SubmitOffers(std::span<const FlexOffer>(offers), 0).ok());
  ASSERT_TRUE(runtime.Advance(0).ok());

  std::vector<FlexOffer> published;
  for (const Event& event : runtime.PollEvents()) {
    if (const auto* e = std::get_if<MacroPublished>(&event)) {
      published.push_back(e->macro);
    }
  }
  std::set<size_t> lanes;
  for (const FlexOffer& macro : published) {
    // The wire id's lane names the shard that holds the macro, and the
    // completion is one task on that shard's strand: no probe of the others.
    const size_t lane = MacroLane(macro.id, runtime.num_shards());
    lanes.insert(lane);
    EXPECT_TRUE(runtime.shard(lane).HasPendingMacro(macro.id)) << macro.id;
    const int64_t tasks = runtime.Snapshot().strand_tasks_run;
    ASSERT_TRUE(runtime.CompleteMacroSchedule(FullSchedule(macro), 1).ok());
    EXPECT_EQ(runtime.Snapshot().strand_tasks_run, tasks + 1);
    EXPECT_FALSE(runtime.shard(lane).HasPendingMacro(macro.id));
  }
  EXPECT_EQ(lanes.size(), 3u);
  int assigned = 0;
  for (const Event& event : runtime.PollEvents()) {
    if (std::get_if<ScheduleAssigned>(&event) != nullptr) ++assigned;
  }
  EXPECT_EQ(assigned, 24);

  // A wire id on lane 1 that shard 1 never published, and a completed
  // macro's id: both NotFound, each after one task on the lane's shard.
  ASSERT_FALSE(published.empty());
  ScheduledFlexOffer stray = FullSchedule(published.front());
  stray.offer_id = *MacroWireId(100, /*aggregate_id=*/999, /*lane=*/1, 3);
  const int64_t tasks = runtime.Snapshot().strand_tasks_run;
  EXPECT_EQ(runtime.CompleteMacroSchedule(stray, 1).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(runtime.Snapshot().strand_tasks_run, tasks + 1);
  EXPECT_EQ(
      runtime.CompleteMacroSchedule(FullSchedule(published.front()), 1).code(),
      StatusCode::kNotFound);
}

/// 48 offers from 16 owners whose windows all fit every gate of the test's
/// control loop (earliest 48, latest 70, assignment deadline 40): whichever
/// gate first sees an offer can claim it, so the accepted/assigned id SETS
/// are insensitive to when intake lands between gates — the invariant the
/// streaming-equivalence test leans on.
std::vector<FlexOffer> StreamingWorkload() {
  std::vector<FlexOffer> offers;
  for (uint64_t owner = 701; owner <= 716; ++owner) {
    for (uint64_t k = 0; k < 3; ++k) {
      offers.push_back(testutil::OwnedOffer(
          owner * 100 + k, owner, /*assign_before=*/40, /*earliest=*/48,
          /*latest=*/70, /*dur=*/4, /*emin=*/1.0,
          /*emax=*/2.0 + 0.125 * static_cast<double>(k)));
    }
  }
  return offers;
}

struct IdSets {
  std::set<FlexOfferId> accepted;
  std::set<FlexOfferId> assigned;
  EngineStats stats;
};

void Collect(ShardedEdmsRuntime& runtime, IdSets* out) {
  for (const Event& event : runtime.PollEvents()) {
    if (const auto* e = std::get_if<OfferAccepted>(&event)) {
      out->accepted.insert(e->offer);
    } else if (const auto* e = std::get_if<ScheduleAssigned>(&event)) {
      out->assigned.insert(e->schedule.offer_id);
    }
  }
}

/// Drives StreamingWorkload() through gates 0, 8, ..., 40. Tick-aligned:
/// the control thread submits the whole batch before gate 0. Streaming: a
/// producer thread submits 4-offer batches concurrently with gates 0..24,
/// then the intake is flushed before the later gates.
IdSets RunStreamingWorkload(bool streaming, ShardRouter router = nullptr,
                            std::shared_ptr<WorkerPool> pool = nullptr) {
  ShardedEdmsRuntime::Config rc = RuntimeConfig(4);
  rc.router = std::move(router);
  rc.pool = std::move(pool);
  ShardedEdmsRuntime runtime(rc);
  std::vector<FlexOffer> offers = StreamingWorkload();

  IdSets out;
  std::thread producer;
  if (streaming) {
    producer = std::thread([&runtime, &offers] {
      for (size_t i = 0; i < offers.size(); i += 4) {
        auto batch = std::span<const FlexOffer>(
            offers.data() + i, std::min<size_t>(4, offers.size() - i));
        EXPECT_TRUE(runtime.SubmitOffers(batch, 0).ok());
        std::this_thread::yield();
      }
    });
  } else {
    auto submitted =
        runtime.SubmitOffers(std::span<const FlexOffer>(offers), 0);
    EXPECT_TRUE(submitted.ok()) << submitted.status();
  }

  // Gates overlapping the streamed intake.
  for (TimeSlice now = 0; now <= 24; now += 8) {
    EXPECT_TRUE(runtime.Advance(now).ok());
    Collect(runtime, &out);
  }
  if (producer.joinable()) producer.join();
  // Producers stopped: flush the queues so the remaining gates (still
  // before the assignment deadline of 40) see every offer.
  EXPECT_TRUE(runtime.FlushIntake().ok());
  for (TimeSlice now = 32; now <= 40; now += 8) {
    EXPECT_TRUE(runtime.Advance(now).ok());
    Collect(runtime, &out);
  }
  out.stats = runtime.stats();
  return out;
}

TEST(ShardedRuntimeTest, StreamingIntakeMatchesTickAlignedOutcomes) {
  IdSets aligned = RunStreamingWorkload(/*streaming=*/false);
  IdSets streamed = RunStreamingWorkload(/*streaming=*/true);

  ASSERT_EQ(aligned.accepted.size(), 48u);
  ASSERT_EQ(aligned.assigned.size(), 48u);
  EXPECT_EQ(streamed.accepted, aligned.accepted);
  EXPECT_EQ(streamed.assigned, aligned.assigned);
  // Per-offer counters are submission-timing-invariant too.
  EXPECT_EQ(streamed.stats.offers_received, aligned.stats.offers_received);
  EXPECT_EQ(streamed.stats.offers_accepted, aligned.stats.offers_accepted);
  EXPECT_EQ(streamed.stats.offers_rejected, aligned.stats.offers_rejected);
  EXPECT_EQ(streamed.stats.micro_schedules_sent,
            aligned.stats.micro_schedules_sent);
  EXPECT_DOUBLE_EQ(streamed.stats.payments_eur, aligned.stats.payments_eur);
}

TEST(ShardedRuntimeTest, SkewedRouterStreamingStaysCorrectAndBounded) {
  // Adversarial placement: every owner routes to shard 0 of 4, on a shared
  // 2-worker pool, with intake streaming against shard 0's gates. Work
  // stealing keeps the (single) loaded strand moving on whichever worker is
  // free; the run must complete promptly with the full outcome set.
  WorkerPool::Options pool_options;
  pool_options.num_threads = 2;
  auto pool = std::make_shared<WorkerPool>(pool_options);
  auto pin_to_zero = [](flexoffer::ActorId, size_t) -> size_t { return 0; };
  auto start = std::chrono::steady_clock::now();
  IdSets skewed =
      RunStreamingWorkload(/*streaming=*/true, pin_to_zero, pool);
  double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(skewed.accepted.size(), 48u);
  EXPECT_EQ(skewed.assigned.size(), 48u);
  // Generous wall bound: the CTest timeout is the hard stop; this catches
  // an idle-wait pathology (minutes) without being load-sensitive.
  EXPECT_LT(elapsed_s, 60.0);
}

TEST(ShardedRuntimeTest, StreamingDuplicatesAreDroppedAtDrain) {
  ShardedEdmsRuntime runtime(RuntimeConfig(2));
  std::vector<FlexOffer> offers = Workload();

  ASSERT_TRUE(
      runtime.SubmitOffers(std::span<const FlexOffer>(offers), 0).ok());
  ASSERT_TRUE(runtime.FlushIntake().ok());

  // Resubmit the whole workload plus one fresh offer: the duplicates are
  // dropped at drain time (no sticky error) and only the fresh offer is
  // accepted on top.
  std::vector<FlexOffer> again = offers;
  again.push_back(testutil::OwnedOffer(99901, 509, /*assign_before=*/24,
                                       /*earliest=*/30, /*latest=*/50));
  ASSERT_TRUE(
      runtime.SubmitOffers(std::span<const FlexOffer>(again), 0).ok());
  ASSERT_TRUE(runtime.FlushIntake().ok());

  std::set<FlexOfferId> accepted;
  for (const Event& event : runtime.PollEvents()) {
    if (const auto* e = std::get_if<OfferAccepted>(&event)) {
      EXPECT_TRUE(accepted.insert(e->offer).second)
          << "offer " << e->offer << " accepted twice";
    }
  }
  EXPECT_EQ(accepted.size(), 25u);
  EXPECT_EQ(runtime.stats().offers_accepted, 25);
}

TEST(ShardedRuntimeTest, DestructionJoinsPendingStreamingDrains) {
  // Regression: destroying a pooled runtime right after SubmitOffers()
  // must join each strand's fire-and-forget drain tasks BEFORE the shard's
  // intake queue and engine are destroyed (the ASan job catches the
  // use-after-free if the Shard member order regresses).
  std::vector<FlexOffer> offers = Workload();
  for (int round = 0; round < 20; ++round) {
    ShardedEdmsRuntime runtime(RuntimeConfig(4));
    ASSERT_TRUE(
        runtime.SubmitOffers(std::span<const FlexOffer>(offers), 0).ok());
    // Destroyed here with the drains possibly still queued.
  }
}

/// Holds the single worker of a 1-thread pool hostage so no drain task can
/// run until Release(): streaming pushes then accumulate in the intake
/// queues deterministically, which is how the bounded-intake tests overflow
/// a queue on purpose.
class BlockedWorker {
 public:
  explicit BlockedWorker(const std::shared_ptr<WorkerPool>& pool)
      : strand_(pool->CreateStrand()) {
    auto gate = std::make_shared<std::future<void>>(gate_.get_future());
    running_ = strand_->Post([gate] { gate->wait(); });
  }

  ~BlockedWorker() { Release(); }

  void Release() {
    if (released_) return;
    released_ = true;
    gate_.set_value();
    running_.get();
  }

 private:
  std::promise<void> gate_;
  std::unique_ptr<WorkerPool::Strand> strand_;
  std::future<void> running_;
  bool released_ = false;
};

/// Seven bounded-intake submissions against a 2-shard runtime (owner % 2):
/// six single-offer calls for owner 501 (shard 1), then one mixed call with
/// an owner-501 and an owner-502 offer. With the worker blocked and a
/// 2-batch bound, calls 3.. overflow shard 1 while shard 0 stays open.
std::vector<std::vector<FlexOffer>> BoundedIntakeCalls() {
  std::vector<std::vector<FlexOffer>> calls;
  for (uint64_t k = 0; k < 6; ++k) {
    calls.push_back({testutil::OwnedOffer(50100 + k, 501,
                                          /*assign_before=*/24,
                                          /*earliest=*/30, /*latest=*/50)});
  }
  calls.push_back({testutil::OwnedOffer(50106, 501, 24, 30, 50),
                   testutil::OwnedOffer(50200, 502, 24, 30, 50)});
  return calls;
}

struct BoundedOutcome {
  std::set<FlexOfferId> accepted;
  std::set<FlexOfferId> shed;
  EngineStats stats;
  int64_t depth_while_blocked = 0;
};

BoundedOutcome RunBoundedIntake(size_t max_pending) {
  WorkerPool::Options pool_options;
  pool_options.num_threads = 1;
  auto pool = std::make_shared<WorkerPool>(pool_options);

  ShardedEdmsRuntime::Config rc = RuntimeConfig(2);
  rc.pool = pool;
  rc.max_pending_batches_per_shard = max_pending;
  ShardedEdmsRuntime runtime(rc);

  BoundedOutcome out;
  {
    BlockedWorker blocked(pool);
    for (const std::vector<FlexOffer>& call : BoundedIntakeCalls()) {
      EXPECT_TRUE(
          runtime.SubmitOffers(std::span<const FlexOffer>(call), 0).ok());
      // Mid-stream, from the submitter thread, with the queues backed up:
      // the snapshot path must stay available and see the live depth.
      out.depth_while_blocked = std::max(
          out.depth_while_blocked, runtime.Snapshot().intake_depth_batches);
    }
  }  // releases the worker; drains proceed
  EXPECT_TRUE(runtime.FlushIntake().ok());
  EXPECT_TRUE(runtime.Advance(0).ok());

  for (const Event& event : runtime.PollEvents()) {
    if (const auto* e = std::get_if<OfferAccepted>(&event)) {
      out.accepted.insert(e->offer);
    } else if (const auto* e = std::get_if<OfferRejected>(&event)) {
      if (e->reason == RejectReason::kOverloaded) out.shed.insert(e->offer);
    }
  }
  out.stats = runtime.stats();
  return out;
}

TEST(ShardedRuntimeTest, BoundedIntakeShedsWithOverloadedEvents) {
  BoundedOutcome bounded = RunBoundedIntake(2);
  // The unbounded twin of the same submissions accepts everything.
  BoundedOutcome unbounded = RunBoundedIntake(0);
  ASSERT_EQ(unbounded.accepted.size(), 8u);
  EXPECT_TRUE(unbounded.shed.empty());

  // Calls 1-2 fill shard 1's queue; calls 3-7 shed their shard-1 offers.
  // Shard 0 never overflows, so 50200 (owner 502) still lands.
  EXPECT_EQ(bounded.accepted,
            (std::set<FlexOfferId>{50100, 50101, 50200}));
  EXPECT_EQ(bounded.shed,
            (std::set<FlexOfferId>{50102, 50103, 50104, 50105, 50106}));
  EXPECT_EQ(bounded.stats.offers_shed, 5);
  // Shed offers never reached an engine: they are not in offers_received /
  // offers_rejected.
  EXPECT_EQ(bounded.stats.offers_received, 3);
  EXPECT_EQ(bounded.stats.offers_rejected, 0);

  // No offer was lost or duplicated: accepted and shed partition exactly
  // the id set the unbounded run accepted.
  std::set<FlexOfferId> covered = bounded.accepted;
  covered.insert(bounded.shed.begin(), bounded.shed.end());
  EXPECT_EQ(covered, unbounded.accepted);
  for (FlexOfferId id : bounded.shed) {
    EXPECT_EQ(bounded.accepted.count(id), 0u) << id;
  }

  // The queues stayed bounded while the worker was blocked: at most
  // max_pending batches on shard 1 plus one open batch on shard 0.
  EXPECT_LE(bounded.depth_while_blocked, 3);
  EXPECT_GE(unbounded.depth_while_blocked, 7);
}

TEST(ShardedRuntimeTest, FinalStatsSinkSurvivesShutdown) {
  auto sink = std::make_shared<EngineStats>();
  std::vector<FlexOffer> offers = Workload();
  {
    ShardedEdmsRuntime::Config rc = RuntimeConfig(4);
    rc.final_stats = sink;
    ShardedEdmsRuntime runtime(rc);
    ASSERT_TRUE(
        runtime.SubmitOffers(std::span<const FlexOffer>(offers), 0).ok());
    // Destroyed with drains possibly still queued: the destructor joins
    // them, so nothing is dropped and the sink gets the complete tallies.
  }
  EXPECT_EQ(sink->offers_received, 24);
  EXPECT_EQ(sink->offers_accepted, 24);
  EXPECT_EQ(sink->offers_dropped_at_shutdown, 0);
}

TEST(ShardedRuntimeTest, MeterReadingExecutionFailuresAreCounted) {
  // Pooled (2 shards) and inline (1 shard, no pool) paths both count
  // RecordExecution failures on the metering hot path instead of dropping
  // them silently.
  for (size_t num_shards : {size_t{1}, size_t{2}}) {
    ShardedEdmsRuntime runtime(RuntimeConfig(num_shards));
    std::vector<ShardedEdmsRuntime::MeterReading> readings(2);
    readings[0] = {/*actor=*/501, /*slice=*/1, /*energy_kwh=*/1.5,
                   /*offer_id=*/999999};  // unknown offer: fails
    readings[1] = {/*actor=*/502, /*slice=*/1, /*energy_kwh=*/1.0,
                   /*offer_id=*/0};  // plain measurement: no lifecycle
    runtime.RecordMeterReadings(readings);
    EXPECT_EQ(runtime.stats().metering_failures, 1)
        << num_shards << " shard(s)";
  }
}

TEST(ShardedRuntimeTest, TwoRuntimesShareOneWorkerPool) {
  // Multi-BRP deployment: two 4-shard runtimes on one 2-worker pool. Both
  // must produce their full outcomes (strands of different runtimes
  // interleave on the shared workers), and the pool handle is the same.
  WorkerPool::Options pool_options;
  pool_options.num_threads = 2;
  auto pool = std::make_shared<WorkerPool>(pool_options);

  ShardedEdmsRuntime::Config rc = RuntimeConfig(4);
  rc.pool = pool;
  ShardedEdmsRuntime brp_a(rc);
  rc.engine.actor = 101;
  ShardedEdmsRuntime brp_b(rc);
  ASSERT_EQ(brp_a.pool().get(), pool.get());
  ASSERT_EQ(brp_b.pool().get(), pool.get());

  std::vector<FlexOffer> offers = Workload();
  RunOutcome a_out;
  RunOutcome b_out;
  auto drive = [&offers](ShardedEdmsRuntime& runtime, RunOutcome* out) {
    ASSERT_TRUE(
        runtime.SubmitOffers(std::span<const FlexOffer>(offers), 0).ok());
    ASSERT_TRUE(runtime.Advance(0).ok());
    for (const Event& event : runtime.PollEvents()) {
      if (const auto* e = std::get_if<OfferAccepted>(&event)) {
        out->accepted.insert(e->offer);
      } else if (const auto* e = std::get_if<ScheduleAssigned>(&event)) {
        out->assigned.insert(e->schedule.offer_id);
      }
    }
  };
  // Interleave the two runtimes' fan-outs on the shared workers.
  std::thread driver_b([&] { drive(brp_b, &b_out); });
  drive(brp_a, &a_out);
  driver_b.join();

  EXPECT_EQ(a_out.accepted.size(), 24u);
  EXPECT_EQ(a_out.assigned.size(), 24u);
  EXPECT_EQ(b_out.accepted, a_out.accepted);
  EXPECT_EQ(b_out.assigned, a_out.assigned);
}

}  // namespace
}  // namespace mirabel::edms

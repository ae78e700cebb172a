#ifndef MIRABEL_EDMS_SHARDED_RUNTIME_H_
#define MIRABEL_EDMS_SHARDED_RUNTIME_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "edms/edms_engine.h"
#include "edms/runtime_snapshot.h"
#include "edms/shard_router.h"
#include "edms/worker_pool.h"

namespace mirabel::edms {

/// A partitioned EDMS runtime: N EdmsEngine shards behind one event stream,
/// scheduled on a (shareable) work-stealing WorkerPool.
///
/// The MIRABEL hierarchy absorbs flex-offers from thousands of prosumers per
/// BRP node (paper §2). One single-threaded engine serializes that whole
/// load; the runtime instead partitions prosumers across `num_shards`
/// independent engines (a pluggable ShardRouter maps owner -> shard, owner %
/// N by default) and runs every shard's intake and gate closures as tasks on
/// a per-shard WorkerPool::Strand. Strands keep each engine effectively
/// single-threaded (FIFO, one task at a time) while the pool floats them
/// between workers: an idle worker steals the strand of an overloaded shard
/// instead of idling behind its own, and several runtimes (multi-BRP
/// deployments) share one pool via Config::pool. Each shard streams its
/// events through a lock-free SPSC EventQueue; PollEvents() merges the
/// per-shard streams into one deterministically ordered output (ascending
/// emission slice, ties by shard index, per-shard emission order preserved).
///
/// There are two deployments:
///  - Inline (1 shard, no Config::pool): a zero-overhead engine wrapper.
///    There are no workers; every call runs synchronously on the caller
///    thread, and SubmitOffers() returns the number the engine accepted.
///  - Pooled (more than one shard, or a pool handle): SubmitOffers() routes
///    the batch, pushes the per-shard sub-batches into lock-free MPSC
///    IntakeQueues and returns the number *enqueued*; shard strand tasks
///    drain the queues into the engines, so intake proceeds concurrently
///    with running gates ("intake is never gated on a scheduling pass",
///    paper §3) and from any number of submitter threads. Acceptance and
///    rejection surface through the event stream; duplicate ids are dropped
///    at drain time. Advance(), ExpireDeadlines() and FlushIntake() are the
///    barriers: each drains every shard's queue first, then joins.
///    Intake is bounded when Config::max_pending_batches_per_shard is set:
///    a sub-batch whose shard queue is full is shed with one
///    OfferRejected{kOverloaded} event per offer (reject-with-event beats
///    silent OOM at millions of producers).
///
/// Mid-stream observability: Snapshot() returns coherent merged stats and
/// per-shard gauges (intake queue depth, strand task latency, last drain
/// slice) from ANY thread at ANY time — each shard strand republishes its
/// state through a seqlock slot after every task, so snapshots never require
/// quiescence. stats()/shard()/HasSeenOffer() are the exact, quiescent path:
/// on a pooled runtime they are safe once every submitter stopped and one
/// barrier returned (see the threading table in docs/architecture.md).
///
/// Threading contract: Advance(), ExpireDeadlines(), FlushIntake(),
/// CompleteMacroSchedule(), RecordMeterReadings() and PollEvents() are
/// single-caller (the control thread). SubmitOffers() is additionally safe
/// from concurrent producer threads on a pooled runtime.
///
/// Offer ids must be unique per owner across the runtime (true for every
/// id scheme in the repo: owners mint their own namespaced ids). Duplicate
/// detection is per shard — the router keeps an owner's offers on one
/// shard, so resubmissions are still caught.
class ShardedEdmsRuntime {
 public:
  struct Config {
    /// Number of engine shards; 0 is treated as 1. With 1 shard and no
    /// pool the runtime is the inline deployment (see the class comment).
    size_t num_shards = 1;
    /// Owner -> shard placement; null resolves to OwnerModuloRouter().
    ShardRouter router;
    /// Template configuration applied to every shard. Per shard, the
    /// runtime derives the macro id lane (collision-free macro wire ids),
    /// the seed (offset per shard) and the scheduler budget: time and
    /// iteration caps are divided by num_shards, holding the *total*
    /// scheduling effort per gate closure constant across shard counts
    /// (N shards each solve a 1/N-sized problem with 1/N of the budget).
    EdmsEngine::Config engine;
    /// Worker pool to schedule the shard strands on. Null: a runtime with
    /// more than one shard creates a private pool with `num_shards` workers.
    /// Pass one pool handle to several runtimes to run a whole multi-BRP
    /// deployment on a fixed worker budget.
    std::shared_ptr<WorkerPool> pool;
    /// Pooled runtimes only: caps each shard's intake queue at this many
    /// pending batches (0 = unbounded); overflow is shed (see the class
    /// comment). The inline runtime admits synchronously and applies no
    /// bound. The bound is enforced approximately — producers racing
    /// SubmitOffers() can transiently overshoot by about the producer
    /// count — which is the right trade for a lock-free hot path; the
    /// guarantee is "bounded", not "exact".
    size_t max_pending_batches_per_shard = 0;
    /// Optional shutdown sink: when set, ~ShardedEdmsRuntime writes the
    /// final merged stats here after joining the strands, with
    /// offers_dropped_at_shutdown counting any offers still sitting
    /// undrained in shard intake queues — so offers can't vanish without a
    /// trace when a runtime is torn down mid-stream.
    std::shared_ptr<EngineStats> final_stats;
  };

  explicit ShardedEdmsRuntime(const Config& config);
  ~ShardedEdmsRuntime();

  ShardedEdmsRuntime(const ShardedEdmsRuntime&) = delete;
  ShardedEdmsRuntime& operator=(const ShardedEdmsRuntime&) = delete;

  /// Inline: admits the batch on the caller thread and returns the number
  /// accepted (or the engine's error; a duplicate id rejects the batch).
  ///
  /// Pooled: enqueues the routed sub-batches and returns the number
  /// *enqueued* (shed offers are not counted); outcomes arrive as
  /// OfferAccepted/OfferRejected events, and intake errors surface from
  /// the next barrier. Safe to call from multiple threads concurrently,
  /// including while gates run.
  Result<size_t> SubmitOffers(std::span<const flexoffer::FlexOffer> offers,
                              flexoffer::TimeSlice now);

  /// Single-offer convenience over SubmitOffers().
  Status SubmitOffer(const flexoffer::FlexOffer& offer,
                     flexoffer::TimeSlice now);

  /// Advances every shard's control loop to `now` in parallel and joins;
  /// each shard drains its pending intake first, then aggregates and
  /// schedules (or publishes) its own partition when its gate is due.
  /// Returns the first deferred intake error, if any, before gate errors.
  Status Advance(flexoffer::TimeSlice now);

  /// Runs every shard's deadline-degradation pass
  /// (EdmsEngine::ExpireDeadlines) and joins, WITHOUT firing gates: expires
  /// stale pipeline offers, forwarded macros whose schedule never returned,
  /// and assigned offers with overdue execution confirmations. Wind-down
  /// phases call this so offers reach terminal lifecycle states even though
  /// no further gates open. Pending intake is drained first so a late batch
  /// cannot be admitted after its deadline check.
  Status ExpireDeadlines(flexoffer::TimeSlice now);

  /// Drains every shard's pending intake and joins, WITHOUT advancing
  /// gates; returns the first deferred intake error. A no-op on the inline
  /// runtime. After it returns (with no concurrent submitters) the
  /// accessors are safe and PollEvents() sees every enqueued outcome.
  Status FlushIntake();

  /// Delivers the schedule of a forwarded macro offer to the shard that
  /// published it: the one named by the wire id's lane (MacroLane()), in
  /// one strand task. NotFound when that shard has no such macro pending.
  Status CompleteMacroSchedule(const flexoffer::ScheduledFlexOffer& schedule,
                               flexoffer::TimeSlice now);

  /// One metered reading on the bus hot path; `offer_id` != 0 additionally
  /// closes that offer's lifecycle (execution metering).
  struct MeterReading {
    flexoffer::ActorId actor = 0;
    flexoffer::TimeSlice slice = 0;
    double energy_kwh = 0.0;
    flexoffer::FlexOfferId offer_id = 0;
  };

  /// Batch metering: routes each reading to its actor's shard (the shard
  /// that owns the actor's offers), appends the measurement to that shard's
  /// store and records the execution, in one fan-out. Execution failures
  /// (unknown or re-metered offers) are tolerated — matching the bus
  /// adapter's tolerance of duplicate messages — but counted in
  /// EngineStats::metering_failures so they stay visible.
  void RecordMeterReadings(std::span<const MeterReading> readings);

  /// Drains every shard's event stream and returns one merged, ordered
  /// batch: ascending EventTime(), ties broken by shard index with each
  /// shard's emission order preserved. For a fixed workload the merged
  /// stream is deterministic regardless of worker interleaving. Safe to
  /// call while strand tasks run (it is the SPSC consumer side), but only
  /// from one thread.
  std::vector<Event> PollEvents();

  /// Shard stats summed with EngineStats::Merge(). Exact, but requires
  /// quiescence on a pooled runtime (see the class comment); for mid-stream
  /// reads use Snapshot().
  EngineStats stats() const;

  /// Lock-free mid-stream observability: merged stats plus per-shard gauges
  /// (intake queue depth, strand task latency, last drain slice), coherent
  /// per shard, callable from ANY thread at ANY time — concurrent
  /// producers, running gates, no quiescence needed. Each shard's slice is
  /// what its strand last published (after its most recent task), so the
  /// merged numbers can trail the engines by the tasks currently in flight;
  /// queue depths are read live.
  RuntimeSnapshot Snapshot() const;

  size_t num_shards() const { return shards_.size(); }
  /// The engine of shard `i` (read-only; requires quiescent strands).
  const EdmsEngine& shard(size_t i) const;
  /// The shard offers of `owner` route to.
  size_t ShardOf(flexoffer::ActorId owner) const;
  /// True when the shard `offer` routes to has already admitted its id
  /// (used by bus adapters to drop re-sent offers before batching).
  /// Requires quiescent strands.
  bool HasSeenOffer(const flexoffer::FlexOffer& offer) const;

  /// The pool the shard strands run on (the configured handle, or the
  /// runtime's private pool); null in the inline deployment. Share it with
  /// further runtimes via Config::pool.
  const std::shared_ptr<WorkerPool>& pool() const { return pool_; }

  const Config& config() const { return config_; }

 private:
  struct Shard;

  /// Runs `fn()` as one task of `shard` and returns its result: times it
  /// and republishes the shard's snapshot. Strand context (or the caller
  /// thread of the inline runtime) only.
  template <typename Fn>
  auto RunTask(Shard& shard, Fn&& fn);
  /// Runs `fn()` serialized with shard `i`'s other tasks and returns its
  /// Status: inline without a pool, else posted on the strand and joined.
  template <typename Fn>
  Status OnShard(size_t i, Fn&& fn);
  /// The per-shard fan-out: runs `fn(i)` once for every shard i, in
  /// parallel on the strands, joins them all and returns the first error
  /// in shard order. Without a pool it runs inline on the one shard.
  template <typename Fn>
  Status ForEachShard(Fn&& fn);
  /// Strand context only: drains the shard's intake queue into its engine.
  void DrainIntake(Shard& shard);
  /// Strand context only: the barrier step — drains the shard's intake,
  /// then returns (and clears) its first deferred intake error.
  Status Barrier(Shard& shard);
  /// Posts a fire-and-forget intake drain for shard `i`.
  void ScheduleIntakeDrain(size_t i);
  /// Strand context only: records one deferred intake error (counter +
  /// first-error-wins Status + capped logging).
  void NoteIntakeError(Shard& shard, const Status& status);
  /// Strand context only: folds `elapsed_s` into the shard's task gauges
  /// and republishes its snapshot slot.
  void FinishShardTask(Shard& shard, double elapsed_s);
  /// Sheds one routed sub-batch: counts it and queues the per-offer
  /// OfferRejected{kOverloaded} events for the next PollEvents(). Safe from
  /// any producer thread.
  void ShedBucket(std::vector<flexoffer::FlexOffer> bucket,
                  flexoffer::TimeSlice now);

  Config config_;
  /// Declared before shards_ so the strands (inside shards_) are destroyed
  /// while the pool is still alive.
  std::shared_ptr<WorkerPool> pool_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Offers shed by a bounded intake (runtime-level: shed offers never
  /// reach a shard engine). Added into stats()/Snapshot() merges.
  std::atomic<int64_t> shed_offers_{0};
  /// Pending OfferRejected{kOverloaded} events from producer-side sheds,
  /// merged into the next PollEvents() drain. Mutex-guarded: this is the
  /// overload slow path, not the hot path.
  std::mutex shed_events_mu_;
  std::vector<Event> shed_events_;
};

}  // namespace mirabel::edms

#endif  // MIRABEL_EDMS_SHARDED_RUNTIME_H_

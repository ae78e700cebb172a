#include "edms/sharded_runtime.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "edms/intake_queue.h"

namespace mirabel::edms {

using flexoffer::FlexOffer;
using flexoffer::ScheduledFlexOffer;
using flexoffer::TimeSlice;

/// One engine partition. Every mutating engine call runs as a task on the
/// shard's strand, so each engine stays effectively single-threaded; the
/// strand's internal lock and the futures returned by Post() provide the
/// happens-before edges that make the caller's reads between joined calls
/// race-free. `intake` is the MPSC channel from the submitters into the
/// strand.
///
/// Everything between `intake_error` and `last_drain_slice` is
/// strand-confined (written only by strand tasks — or the caller thread in
/// the inline deployment — and read by joined tasks); cross-thread
/// visibility happens only through `slot`, the seqlock cell the strand
/// republishes after every task (FinishShardTask), which is what makes
/// Snapshot() safe from any thread mid-stream.
struct ShardedEdmsRuntime::Shard {
  std::unique_ptr<EdmsEngine> engine;
  IntakeQueue intake;
  /// First deferred intake error, returned once by the next barrier; every
  /// error is additionally counted in overlay.intake_errors.
  Status intake_error = Status::OK();
  /// Runtime-side counters that belong in the shard's merged stats but not
  /// in the engine (intake_errors, metering_failures).
  EngineStats overlay;
  /// Deferred intake errors already written to the log (capped).
  int logged_intake_errors = 0;
  /// Strand task gauges (see ShardSnapshot for field meanings).
  int64_t drained_batches = 0;
  int64_t tasks_run = 0;
  double task_s_total = 0.0;
  double last_task_s = 0.0;
  double last_queue_wait_s = 0.0;
  int64_t last_drain_slice = -1;
  /// The published mid-stream snapshot (single writer: the strand).
  SnapshotSlot slot;
  /// Declared last on purpose: the strand's destructor joins the shard's
  /// pending tasks (fire-and-forget intake drains included), and those
  /// tasks touch every member above — so the strand must be destroyed
  /// first, the engine and queues after.
  std::unique_ptr<WorkerPool::Strand> strand;
};

namespace {

/// How many deferred intake errors each shard writes to the log before
/// falling back to counting only (overlay.intake_errors keeps the full
/// tally).
constexpr int kMaxLoggedIntakeErrors = 5;

/// Monotonic nanosecond stamp for intake batches (steady_clock, the same
/// clock Stopwatch uses).
int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-shard engine configuration derived from the runtime template.
EdmsEngine::Config ShardEngineConfig(const ShardedEdmsRuntime::Config& config,
                                     size_t shard, size_t num_shards) {
  EdmsEngine::Config ec = config.engine;
  // Collision-free macro wire ids across the shards of one actor.
  ec.macro_id_lane = shard;
  ec.macro_id_lanes = num_shards;
  // Independent stochastic streams per shard.
  ec.seed = config.engine.seed + 1000003ULL * static_cast<uint64_t>(shard);
  // Hold the total per-gate scheduling effort constant across shard
  // counts: each shard gets 1/N of the budget for its 1/N-sized problem.
  if (ec.scheduler_budget_s > 0.0) {
    ec.scheduler_budget_s /= static_cast<double>(num_shards);
  }
  if (ec.scheduler_max_iterations > 0) {
    ec.scheduler_max_iterations =
        (ec.scheduler_max_iterations + static_cast<int>(num_shards) - 1) /
        static_cast<int>(num_shards);
  }
  return ec;
}

/// Waits for every posted task before returning or rethrowing: a task that
/// threw (e.g. bad_alloc on a worker) must not unwind the caller's stack
/// while sibling tasks still hold references into it.
void DrainFutures(std::vector<std::future<void>>& futures) {
  std::exception_ptr first_error;
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (first_error == nullptr) first_error = std::current_exception();
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace

ShardedEdmsRuntime::ShardedEdmsRuntime(const Config& config)
    : config_(config) {
  if (config_.num_shards == 0) config_.num_shards = 1;
  if (!config_.router) config_.router = OwnerModuloRouter();
  // The inline deployment runs every call on the caller thread; strands
  // only exist when there is a partition to fan out over or a pool to
  // share.
  pool_ = config_.pool;
  if (pool_ == nullptr && config_.num_shards > 1) {
    WorkerPool::Options options;
    options.num_threads = config_.num_shards;
    pool_ = std::make_shared<WorkerPool>(options);
  }
  shards_.reserve(config_.num_shards);
  for (size_t i = 0; i < config_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->engine = std::make_unique<EdmsEngine>(
        ShardEngineConfig(config_, i, config_.num_shards));
    if (pool_ != nullptr) shard->strand = pool_->CreateStrand();
    shards_.push_back(std::move(shard));
  }
}

ShardedEdmsRuntime::~ShardedEdmsRuntime() {
  // Join each strand's pending tasks (intake drains included) first:
  // whatever was posted before destruction began still runs against a live
  // shard. Then count what nobody drained — batches can survive the join
  // when a drain task died on an exception or the caller raced the
  // contract — so offers never vanish without a trace.
  int64_t dropped_offers = 0;
  for (auto& shard : shards_) {
    shard->strand.reset();
    IntakeBatch batch;
    while (shard->intake.Pop(&batch)) {
      dropped_offers += static_cast<int64_t>(batch.offers.size());
    }
  }
  if (dropped_offers > 0) {
    MIRABEL_LOG(kWarning) << "ShardedEdmsRuntime shut down with "
                          << dropped_offers
                          << " offers undrained in shard intake queues";
  }
  if (config_.final_stats != nullptr) {
    // The strands are joined, so the quiescent merge is exact.
    EngineStats merged = stats();
    merged.offers_dropped_at_shutdown = dropped_offers;
    *config_.final_stats = merged;
  }
}

template <typename Fn>
auto ShardedEdmsRuntime::RunTask(Shard& shard, Fn&& fn) {
  Stopwatch watch;
  auto result = fn();
  FinishShardTask(shard, watch.ElapsedSeconds());
  return result;
}

template <typename Fn>
Status ShardedEdmsRuntime::OnShard(size_t i, Fn&& fn) {
  Shard& shard = *shards_[i];
  if (pool_ == nullptr) return RunTask(shard, fn);
  Status st = Status::OK();
  shard.strand->Post([&] { st = RunTask(shard, fn); }).get();
  return st;
}

template <typename Fn>
Status ShardedEdmsRuntime::ForEachShard(Fn&& fn) {
  if (pool_ == nullptr) {
    return RunTask(*shards_[0], [&] { return fn(size_t{0}); });
  }
  std::vector<Status> statuses(shards_.size(), Status::OK());
  std::vector<std::future<void>> futures;
  futures.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard* shard = shards_[i].get();
    futures.push_back(shard->strand->Post([this, shard, i, &fn, &statuses] {
      statuses[i] = RunTask(*shard, [&] { return fn(i); });
    }));
  }
  DrainFutures(futures);
  for (Status& st : statuses) {
    if (!st.ok()) return std::move(st);
  }
  return Status::OK();
}

void ShardedEdmsRuntime::DrainIntake(Shard& shard) {
  IntakeBatch batch;
  while (shard.intake.Pop(&batch)) {
    ++shard.drained_batches;
    shard.last_drain_slice = batch.now;
    shard.last_queue_wait_s =
        static_cast<double>(MonotonicNanos() - batch.enqueue_ns) * 1e-9;
    Result<size_t> r = shard.engine->SubmitOffers(
        std::span<const FlexOffer>(batch.offers), batch.now);
    if (r.ok()) continue;
    if (r.status().code() == StatusCode::kAlreadyExists) {
      // The engine rejected the whole batch before any state change. A
      // concurrent producer cannot pre-check ids race-free, so duplicates
      // are dropped here: resubmit per offer and keep the fresh ones (the
      // same tolerance the bus adapter applies to re-sent offers).
      for (const FlexOffer& offer : batch.offers) {
        Status st = shard.engine->SubmitOffer(offer, batch.now);
        if (!st.ok() && st.code() != StatusCode::kAlreadyExists) {
          NoteIntakeError(shard, st);
        }
      }
    } else {
      NoteIntakeError(shard, r.status());
    }
  }
}

Status ShardedEdmsRuntime::Barrier(Shard& shard) {
  DrainIntake(shard);
  return std::exchange(shard.intake_error, Status::OK());
}

void ShardedEdmsRuntime::NoteIntakeError(Shard& shard, const Status& status) {
  ++shard.overlay.intake_errors;
  if (shard.intake_error.ok()) shard.intake_error = status;
  if (shard.logged_intake_errors < kMaxLoggedIntakeErrors) {
    ++shard.logged_intake_errors;
    MIRABEL_LOG(kWarning) << "deferred intake error ("
                          << shard.overlay.intake_errors
                          << " so far on this shard): " << status;
  }
}

void ShardedEdmsRuntime::FinishShardTask(Shard& shard, double elapsed_s) {
  ++shard.tasks_run;
  shard.task_s_total += elapsed_s;
  shard.last_task_s = elapsed_s;
  ShardSnapshot snap;
  snap.stats = shard.engine->stats();
  snap.stats.Merge(shard.overlay);
  snap.intake_depth_batches = shard.intake.ApproxDepth();
  snap.intake_drained_batches = shard.drained_batches;
  snap.strand_tasks_run = shard.tasks_run;
  snap.strand_task_s_total = shard.task_s_total;
  snap.last_task_s = shard.last_task_s;
  snap.last_queue_wait_s = shard.last_queue_wait_s;
  snap.last_drain_slice = shard.last_drain_slice;
  shard.slot.Publish(snap);
}

void ShardedEdmsRuntime::ScheduleIntakeDrain(size_t i) {
  Shard* shard = shards_[i].get();
  // Fire-and-forget: outcomes flow through the event stream and deferred
  // errors through intake_error, so the future is dropped deliberately —
  // which is also why the task must not leak exceptions into it.
  (void)shard->strand->Post([this, shard] {
    Stopwatch watch;
    try {
      DrainIntake(*shard);
    } catch (const std::exception& e) {
      NoteIntakeError(
          *shard,
          Status::Internal(std::string("intake drain threw: ") + e.what()));
    } catch (...) {
      NoteIntakeError(*shard, Status::Internal("intake drain threw"));
    }
    FinishShardTask(*shard, watch.ElapsedSeconds());
  });
}

void ShardedEdmsRuntime::ShedBucket(std::vector<FlexOffer> bucket,
                                    TimeSlice now) {
  shed_offers_.fetch_add(static_cast<int64_t>(bucket.size()),
                         std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(shed_events_mu_);
  shed_events_.reserve(shed_events_.size() + bucket.size());
  for (const FlexOffer& offer : bucket) {
    shed_events_.emplace_back(std::in_place_type<OfferRejected>, offer.id,
                              offer.owner, now, RejectReason::kOverloaded);
  }
}

Result<size_t> ShardedEdmsRuntime::SubmitOffers(
    std::span<const FlexOffer> offers, TimeSlice now) {
  if (pool_ == nullptr) {
    return RunTask(*shards_[0], [&] {
      return shards_[0]->engine->SubmitOffers(offers, now);
    });
  }
  // Enqueue and return. The drain tasks run concurrently with whatever the
  // strands are doing (e.g. a gate on another shard), and this path is safe
  // from any number of producer threads.
  const size_t n = shards_.size();
  std::vector<std::vector<FlexOffer>> buckets(n);
  for (const FlexOffer& offer : offers) {
    buckets[ShardOf(offer.owner)].push_back(offer);
  }
  const auto max_pending =
      static_cast<int64_t>(config_.max_pending_batches_per_shard);
  const int64_t enqueue_ns = MonotonicNanos();
  size_t enqueued = 0;
  for (size_t i = 0; i < n; ++i) {
    if (buckets[i].empty()) continue;
    if (max_pending > 0 && shards_[i]->intake.ApproxDepth() >= max_pending) {
      ShedBucket(std::move(buckets[i]), now);
      continue;
    }
    enqueued += buckets[i].size();
    shards_[i]->intake.Push({std::move(buckets[i]), now, enqueue_ns});
    ScheduleIntakeDrain(i);
  }
  return enqueued;
}

Status ShardedEdmsRuntime::SubmitOffer(const FlexOffer& offer, TimeSlice now) {
  return SubmitOffers(std::span<const FlexOffer>(&offer, 1), now).status();
}

Status ShardedEdmsRuntime::Advance(TimeSlice now) {
  return ForEachShard([this, now](size_t i) {
    // A due gate sees every batch enqueued before this task ran; deferred
    // intake errors outrank gate errors (they happened first).
    MIRABEL_RETURN_IF_ERROR(Barrier(*shards_[i]));
    return shards_[i]->engine->Advance(now);
  });
}

Status ShardedEdmsRuntime::ExpireDeadlines(TimeSlice now) {
  return ForEachShard([this, now](size_t i) {
    Status st = Barrier(*shards_[i]);
    shards_[i]->engine->ExpireDeadlines(now);
    return st;
  });
}

Status ShardedEdmsRuntime::FlushIntake() {
  if (pool_ == nullptr) return Status::OK();
  return ForEachShard([this](size_t i) { return Barrier(*shards_[i]); });
}

Status ShardedEdmsRuntime::CompleteMacroSchedule(
    const ScheduledFlexOffer& schedule, TimeSlice now) {
  // Shard i publishes on lane i of num_shards lanes, so the lane names the
  // one shard that can hold the macro.
  const size_t i = MacroLane(schedule.offer_id, shards_.size());
  return OnShard(i, [&] {
    return shards_[i]->engine->CompleteMacroSchedule(schedule, now);
  });
}

void ShardedEdmsRuntime::RecordMeterReadings(
    std::span<const MeterReading> readings) {
  // The inline runtime meters the caller's span as is; a pooled one routes
  // each reading to its actor's shard first.
  std::vector<std::vector<MeterReading>> buckets;
  if (pool_ != nullptr) {
    buckets.resize(shards_.size());
    for (const MeterReading& reading : readings) {
      buckets[ShardOf(reading.actor)].push_back(reading);
    }
  }
  (void)ForEachShard([&](size_t i) {
    Shard& shard = *shards_[i];
    EdmsEngine& engine = *shard.engine;
    std::span<const MeterReading> mine = readings;
    if (!buckets.empty()) mine = buckets[i];
    for (const MeterReading& r : mine) {
      engine.RecordMeasurement(r.actor, r.slice, r.energy_kwh);
      // Execution failures (e.g. re-metered offers) are tolerated —
      // duplicate-heavy bus traffic is normal — but counted, so they are
      // visible instead of invisible.
      if (r.offer_id != 0 &&
          !engine.RecordExecution(r.offer_id, r.slice, r.energy_kwh).ok()) {
        ++shard.overlay.metering_failures;
      }
    }
    return Status::OK();
  });
}

std::vector<Event> ShardedEdmsRuntime::PollEvents() {
  // Concatenate the per-shard drains in shard order, then stable-sort by
  // emission slice: within one slice, events keep shard order and each
  // shard's emission order — a deterministic merge for deterministic
  // shard streams, whatever the worker interleaving was. Shed events
  // (OfferRejected{kOverloaded}, produced on the submitter threads) are
  // appended after the shard streams and merged by the same sort.
  std::vector<Event> out;
  for (auto& shard : shards_) {
    std::vector<Event> drained = shard->engine->PollEvents();
    out.insert(out.end(), std::make_move_iterator(drained.begin()),
               std::make_move_iterator(drained.end()));
  }
  bool had_shed = false;
  {
    std::lock_guard<std::mutex> lock(shed_events_mu_);
    if (!shed_events_.empty()) {
      had_shed = true;
      out.insert(out.end(), std::make_move_iterator(shed_events_.begin()),
                 std::make_move_iterator(shed_events_.end()));
      shed_events_.clear();
    }
  }
  if (shards_.size() > 1 || had_shed) {
    std::stable_sort(out.begin(), out.end(),
                     [](const Event& a, const Event& b) {
                       return EventTime(a) < EventTime(b);
                     });
  }
  return out;
}

EngineStats ShardedEdmsRuntime::stats() const {
  EngineStats merged;
  for (const auto& shard : shards_) {
    merged.Merge(shard->engine->stats());
    merged.Merge(shard->overlay);
  }
  merged.offers_shed += shed_offers_.load(std::memory_order_relaxed);
  return merged;
}

RuntimeSnapshot ShardedEdmsRuntime::Snapshot() const {
  RuntimeSnapshot out;
  out.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardSnapshot snap = shard->slot.Read();
    // The queue depth moves with every producer push, not only with strand
    // tasks: read it live so backlog is visible even while the strand is
    // stuck inside one long gate.
    snap.intake_depth_batches = shard->intake.ApproxDepth();
    out.stats.Merge(snap.stats);
    out.intake_depth_batches += snap.intake_depth_batches;
    out.intake_drained_batches += snap.intake_drained_batches;
    out.strand_tasks_run += snap.strand_tasks_run;
    out.strand_task_s_total += snap.strand_task_s_total;
    out.max_last_task_s = std::max(out.max_last_task_s, snap.last_task_s);
    out.shards.push_back(snap);
  }
  out.stats.offers_shed += shed_offers_.load(std::memory_order_relaxed);
  return out;
}

const EdmsEngine& ShardedEdmsRuntime::shard(size_t i) const {
  return *shards_[i]->engine;
}

size_t ShardedEdmsRuntime::ShardOf(flexoffer::ActorId owner) const {
  size_t i = config_.router(owner, shards_.size());
  return i < shards_.size() ? i : i % shards_.size();
}

bool ShardedEdmsRuntime::HasSeenOffer(const FlexOffer& offer) const {
  return shards_[ShardOf(offer.owner)]
      ->engine->lifecycle()
      .SlotOf(offer.id)
      .has_value();
}

}  // namespace mirabel::edms

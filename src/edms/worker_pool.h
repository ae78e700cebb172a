#ifndef MIRABEL_EDMS_WORKER_POOL_H_
#define MIRABEL_EDMS_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mirabel::edms {

/// Fixed-size work-stealing worker pool shared by one or more
/// ShardedEdmsRuntime instances.
///
/// The pool replaces the runtime's former thread-per-shard fork-join
/// workers: every shard posts its tasks through a Strand — a serial executor
/// that guarantees FIFO, one-at-a-time execution of its own tasks while
/// letting *which worker runs them* float. A runnable strand is enqueued on
/// its home worker's run queue; a worker first drains its own queue, then
/// (with stealing enabled) steals runnable strands from the longest sibling
/// queue. Because a strand is enqueued at most once at any moment, stealing
/// migrates whole shards between workers — it never reorders or overlaps one
/// shard's tasks — so unevenly loaded shards are rebalanced instead of
/// idling behind a busy home worker, and multiple runtimes (multi-BRP
/// deployments) can share one pool handle without oversubscribing the
/// machine.
///
/// Scheduling granularity is deliberately coarse (batch intakes and gate
/// closures, micro- to milliseconds each), so the run queues are per-worker
/// deques under one pool mutex rather than lock-free Chase-Lev deques: at
/// this task size the mutex is uncontended and the simple scheduler is easy
/// to prove correct (and TSan-clean). The lock-free structures live where
/// the per-item rates are high — EventQueue (events out) and IntakeQueue
/// (offers in).
///
/// Thread-safety contract:
///  - Strand::Post() may be called from any thread, concurrently (MPSC).
///  - Tasks of one strand never run concurrently with each other; tasks of
///    different strands may.
///  - The pool must outlive its strands; strands must not receive posts
///    while they (or the pool) are being destroyed. ShardedEdmsRuntime owns
///    this ordering.
class WorkerPool {
 public:
  struct Options {
    /// Worker threads; 0 resolves to std::thread::hardware_concurrency()
    /// (at least 1).
    size_t num_threads = 0;
    /// Allow idle workers to steal runnable strands from siblings. Disabled,
    /// every strand is pinned to its home worker and the pool reproduces the
    /// pre-pool thread-per-shard behaviour.
    bool enable_stealing = true;
  };

  /// A serial executor on the pool: tasks run FIFO, one at a time, on
  /// whichever worker claims the strand. Created via CreateStrand().
  class Strand {
   public:
    /// Destruction blocks until every posted task has run (the pool must
    /// still be alive; do not post concurrently with destruction).
    ~Strand();

    Strand(const Strand&) = delete;
    Strand& operator=(const Strand&) = delete;

    /// Enqueues `fn` after every previously posted task of this strand.
    /// Thread-safe. The returned future joins the task (and carries any
    /// exception it threw).
    std::future<void> Post(std::function<void()> fn);

   private:
    friend class WorkerPool;
    Strand(WorkerPool* pool, size_t home) : pool_(pool), home_(home) {}

    WorkerPool* pool_;
    /// Worker whose run queue this strand is enqueued on when runnable.
    size_t home_;
    std::mutex mu_;
    /// Signalled when the strand goes idle (queue drained, not running).
    std::condition_variable idle_cv_;
    std::deque<std::packaged_task<void()>> tasks_;
    /// True while the strand sits in a run queue or is being run. Invariant:
    /// at most one queue entry / runner exists per strand at any moment.
    bool scheduled_ = false;
  };

  /// Default options: hardware_concurrency workers, stealing enabled.
  WorkerPool();
  explicit WorkerPool(const Options& options);

  /// Drains every queued strand, then joins the workers. Strands must be
  /// destroyed (or at least quiescent) before the pool.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Creates a strand homed on the next worker, round-robin. Thread-safe.
  std::unique_ptr<Strand> CreateStrand();

  size_t num_threads() const { return workers_.size(); }
  bool stealing_enabled() const { return options_.enable_stealing; }

  /// Number of strand executions claimed by a non-home worker since
  /// construction (0 when stealing is disabled). Monotonic; for tests and
  /// bench reports.
  uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }

 private:
  void WorkerLoop(size_t index);
  /// Puts a runnable strand on its home queue and wakes the workers.
  void Enqueue(Strand* strand);
  /// Runs `strand` to exhaustion, then marks it idle.
  static void RunStrand(Strand* strand);

  Options options_;
  std::mutex mu_;
  std::condition_variable cv_;
  /// Per-worker run queues of runnable strands, guarded by mu_.
  std::vector<std::deque<Strand*>> queues_;
  bool stop_ = false;
  std::atomic<uint64_t> steals_{0};
  std::atomic<size_t> next_home_{0};
  std::vector<std::thread> workers_;
};

}  // namespace mirabel::edms

#endif  // MIRABEL_EDMS_WORKER_POOL_H_

#ifndef MIRABEL_EDMS_RUNTIME_SNAPSHOT_H_
#define MIRABEL_EDMS_RUNTIME_SNAPSHOT_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "edms/edms_engine.h"

namespace mirabel::edms {

/// Mid-stream observability of one ShardedEdmsRuntime shard: the shard's
/// EngineStats (engine counters plus the runtime's overlay counters such as
/// intake_errors / metering_failures) and the strand's operational gauges.
/// Published by the shard strand after every drain/gate/meter task through a
/// SnapshotSlot, readable from any thread at any time — no quiescence
/// required (contrast ShardedEdmsRuntime::stats()).
struct ShardSnapshot {
  EngineStats stats;
  /// Batches sitting in the shard's intake queue. In a RuntimeSnapshot this
  /// gauge is read live at snapshot time; in the published slot it is the
  /// depth the strand saw when it finished its last task.
  int64_t intake_depth_batches = 0;
  /// Cumulative batches the strand has drained into the engine.
  int64_t intake_drained_batches = 0;
  /// Cumulative strand tasks executed (drains, gates, meter batches, ...).
  int64_t strand_tasks_run = 0;
  /// Cumulative wall-clock seconds spent inside strand tasks
  /// (strand_task_s_total / strand_tasks_run = mean task latency).
  double strand_task_s_total = 0.0;
  /// Duration of the most recent strand task (seconds).
  double last_task_s = 0.0;
  /// Enqueue→drain queue wait of the most recently drained batch (seconds);
  /// the leading indicator of intake backlog.
  double last_queue_wait_s = 0.0;
  /// Submission slice (`now`) of the most recently drained batch; -1 until
  /// the first streamed batch lands.
  int64_t last_drain_slice = -1;
};

static_assert(std::is_trivially_copyable_v<ShardSnapshot>,
              "ShardSnapshot must be bit-copyable for the seqlock slot");
static_assert(sizeof(ShardSnapshot) % sizeof(uint64_t) == 0,
              "ShardSnapshot must be a whole number of 64-bit words");

/// The merged view Snapshot() returns: every additive field summed across
/// shards (gauges that are not additive are aggregated as noted), plus the
/// per-shard detail for dashboards that want the distribution.
struct RuntimeSnapshot {
  /// Sum of the shard stats plus runtime-level counters (offers_shed).
  EngineStats stats;
  /// Live sum of the per-shard intake queue depths at snapshot time.
  int64_t intake_depth_batches = 0;
  int64_t intake_drained_batches = 0;
  int64_t strand_tasks_run = 0;
  double strand_task_s_total = 0.0;
  /// Max over shards of the most recent task duration — the straggler shard.
  double max_last_task_s = 0.0;
  std::vector<ShardSnapshot> shards;
};

/// A single-writer seqlock cell holding one ShardSnapshot.
///
/// The shard strand (the only writer, serialized by construction) publishes
/// a full snapshot after every task; any number of reader threads may read
/// concurrently and always obtain a torn-free copy. The payload is stored as
/// atomic words and the ordering sits on those atomics, with no fences
/// (Boehm, "Can seqlocks get along with programming language memory
/// models?", MSPC 2012), so the protocol is data-race-free by the letter of
/// the memory model, not just benign-race-in-practice, and ThreadSanitizer,
/// which does not model fences, checks all of it:
///
///   writer: seq -> odd (relaxed), store words (release),
///           seq -> even (release)
///   reader: read seq (acquire, retry while odd), load words (acquire),
///           re-read seq (relaxed) — retry unless unchanged.
///
/// A reader that loads any word of a publish in flight synchronizes with
/// that word's release store, which comes after the odd seq in the writer's
/// order, so its re-read of seq sees the odd value or a later one and the
/// read retries. The acquire loads also keep that re-read from moving above
/// the word loads.
///
/// Readers never block the writer; a reader racing a publish simply retries
/// (publishes are rare — one per strand task — and writes are ~15 word
/// stores, so retries are vanishingly short).
class SnapshotSlot {
 public:
  SnapshotSlot() { Publish(ShardSnapshot{}); }

  SnapshotSlot(const SnapshotSlot&) = delete;
  SnapshotSlot& operator=(const SnapshotSlot&) = delete;

  /// Single-writer side: publishes `snap` as one atomic unit.
  void Publish(const ShardSnapshot& snap) {
    const uint64_t s = seq_.load(std::memory_order_relaxed);
    seq_.store(s + 1, std::memory_order_relaxed);  // odd: write in progress
    const Words words = std::bit_cast<Words>(snap);
    for (size_t i = 0; i < kWords; ++i) {
      words_[i].store(words[i], std::memory_order_release);
    }
    seq_.store(s + 2, std::memory_order_release);  // even: stable again
  }

  /// Any-thread side: returns a coherent copy of the last published value.
  ShardSnapshot Read() const {
    Words words;
    for (;;) {
      const uint64_t s1 = seq_.load(std::memory_order_acquire);
      if ((s1 & 1) != 0) continue;  // publish in flight
      for (size_t i = 0; i < kWords; ++i) {
        words[i] = words_[i].load(std::memory_order_acquire);
      }
      if (seq_.load(std::memory_order_relaxed) == s1) {
        return std::bit_cast<ShardSnapshot>(words);
      }
    }
  }

 private:
  static constexpr size_t kWords = sizeof(ShardSnapshot) / sizeof(uint64_t);
  using Words = std::array<uint64_t, kWords>;

  std::atomic<uint64_t> seq_{0};
  std::array<std::atomic<uint64_t>, kWords> words_{};
};

}  // namespace mirabel::edms

#endif  // MIRABEL_EDMS_RUNTIME_SNAPSHOT_H_

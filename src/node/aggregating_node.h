#ifndef MIRABEL_NODE_AGGREGATING_NODE_H_
#define MIRABEL_NODE_AGGREGATING_NODE_H_

#include <cstdint>
#include <vector>

#include "edms/sharded_runtime.h"
#include "node/message_bus.h"
#include "node/reliable_channel.h"

namespace mirabel::node {

/// Statistics of one aggregating node's trading activity (merged across the
/// node's engine shards).
using AggregatingStats = edms::EngineStats;

/// A level-2 (BRP) or level-3 (TSO) LEDMS node: a thin messaging adapter
/// around a ShardedEdmsRuntime, which owns the whole flex-offer life cycle —
/// intake and negotiation, aggregation, scheduling, disaggregation (paper
/// §3, §8) — partitioned across `num_shards` engine shards.
///
/// The node's job is translation only, and it is batch-first: incoming
/// flex-offers are buffered and submitted as ONE batch per tick (not one
/// engine call per bus message), so a node absorbing thousands of prosumer
/// messages per slice pays one routed submit per tick instead of a
/// per-message round trip; the tick's Advance() drains it before the gate.
/// Engine events become bus messages (accept/reject replies, macro forwards
/// to the parent node, member schedules to their owners). All orchestration
/// lives in the runtime's shards.
class AggregatingNode {
 public:
  struct Config {
    NodeId id = 0;
    /// Parent node (TSO) to forward macro offers to; 0 = schedule locally.
    NodeId parent = 0;
    /// Engine shards of this node's runtime; prosumers are partitioned by
    /// owner id (edms::OwnerModuloRouter). 1 (with no pool) = the inline
    /// single-engine deployment.
    size_t num_shards = 1;
    /// Optional shared worker pool for the node's runtime: a multi-BRP
    /// deployment passes every node one handle, so the whole hierarchy
    /// schedules its shard work (with stealing) on one fixed set of worker
    /// threads instead of one thread per shard per node. Null: the runtime
    /// sizes a private pool (num_shards workers).
    std::shared_ptr<edms::WorkerPool> pool;
    /// Template engine config for every shard. `engine.actor` and
    /// `engine.schedule_locally` are derived from `id`/`parent` by the
    /// constructor.
    edms::EdmsEngine::Config engine;
    /// Intake bound of a pooled runtime (see ShardedEdmsRuntime::Config).
    /// The runtime sheds overflow as OfferRejected{kOverloaded}; this node
    /// turns those into kNack bus replies carrying a retry-after of one
    /// gate period — by then a full scheduling pass has drained the queues
    /// — so prosumers retry with backoff instead of losing the offer.
    size_t max_pending_batches_per_shard = 0;
    /// Transport reliability (retry/ack/dedupe); `self` and `seed` are
    /// derived from `id` and the reliability seed by the constructor.
    ReliableChannel::Config reliability;
  };

  /// Registers the node on `bus` (which must outlive it).
  AggregatingNode(const Config& config, MessageBus* bus);

  /// Advances the control loop: flushes the tick's buffered meter readings
  /// and offer batch, then fires due gates on every shard.
  void OnTick(flexoffer::TimeSlice now);

  /// Flushes the buffered meter readings and relays pending events WITHOUT
  /// advancing the control loop. Wind-down phases use this to absorb
  /// end-of-run execution meterings without opening new scheduling gates.
  /// Offers still buffered are REFUSED with a kFlexOfferRejected reply
  /// (counted in late_offers_refused()) instead of being admitted to a
  /// pipeline that will never run another gate, and the runtime's deadline
  /// sweep (ExpireDeadlines) terminalizes anything the gates left behind —
  /// so every offer the node ever saw reaches a terminal state.
  void FlushBuffers(flexoffer::TimeSlice now);

  /// Merged stats of all engine shards.
  AggregatingStats stats() const { return runtime_.stats(); }
  /// Per-shard state views. The shard index is explicit on purpose: on a
  /// partitioned node each store/pipeline holds only its shard's slice of
  /// the state (route an owner with runtime().ShardOf(owner)).
  const storage::DataStore& store(size_t shard) const {
    return runtime_.shard(shard).store();
  }
  const aggregation::AggregationPipeline& pipeline(size_t shard) const {
    return runtime_.shard(shard).pipeline();
  }
  const edms::ShardedEdmsRuntime& runtime() const { return runtime_; }
  /// Offers buffered since the last tick.
  size_t pending_offers() const { return pending_offers_.size(); }
  /// Transport-level reliability counters (retries, dead letters, dupes).
  const ReliableChannel& channel() const { return channel_; }
  /// Offers refused (with a rejection reply) because they arrived during
  /// wind-down, after the last scheduling gate.
  int64_t late_offers_refused() const { return late_offers_refused_; }
  /// Overload NACKs sent for shed offers.
  int64_t nacks_sent() const { return nacks_sent_; }
  NodeId id() const { return config_.id; }

 private:
  /// Takes the payload of a buffered offer out of `msg`.
  void HandleMessage(Message& msg);
  /// Submits the buffered offers as one routed batch (dropping re-sent and
  /// batch-internal duplicate ids, as the per-message path used to).
  void FlushOffers(flexoffer::TimeSlice now);
  /// Records the buffered meter readings as one routed batch.
  void FlushMeterReadings();
  /// Drains the runtime's merged event stream and relays it on the bus.
  void DispatchEvents();

  Config config_;
  MessageBus* bus_;
  edms::ShardedEdmsRuntime runtime_;
  ReliableChannel channel_;
  std::vector<flexoffer::FlexOffer> pending_offers_;
  std::vector<edms::ShardedEdmsRuntime::MeterReading> pending_readings_;
  /// True once FlushBuffers() ran: the control loop is winding down and
  /// late offers are refused instead of buffered.
  bool draining_ = false;
  int64_t late_offers_refused_ = 0;
  int64_t nacks_sent_ = 0;
};

}  // namespace mirabel::node

#endif  // MIRABEL_NODE_AGGREGATING_NODE_H_

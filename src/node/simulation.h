#ifndef MIRABEL_NODE_SIMULATION_H_
#define MIRABEL_NODE_SIMULATION_H_

#include <memory>
#include <string>
#include <vector>

#include "edms/scheduler_registry.h"
#include "node/aggregating_node.h"
#include "node/prosumer_node.h"

namespace mirabel::node {

/// Configuration of a whole-EDMS simulation: a 3-level hierarchy (paper
/// Fig. 2) of one TSO, several BRPs and many prosumers, run tick-by-tick on
/// the slice clock.
struct SimulationConfig {
  int num_brps = 3;
  int prosumers_per_brp = 20;
  int days = 2;
  /// When false, BRPs schedule locally and no TSO level exists (2-level
  /// deployment); when true, BRPs forward macro offers to the TSO (3-level).
  bool use_tso = false;
  /// Bus configuration, including `bus.faults` — the chaos plan. Drops,
  /// blackouts, partitions and latency spikes apply at the bus; `Stall`
  /// windows are honored here by skipping the stalled node's OnTick (its
  /// mailbox still accepts deliveries, it just stops processing).
  MessageBus::Config bus;
  uint64_t seed = 2024;
  /// Transport reliability template for every node (acked retries with
  /// backoff, receiver dedupe); per-node `self`/`seed` are derived. Disable
  /// for the pre-reliability fire-and-forget wire.
  ReliableChannel::Config reliability;

  /// Per-prosumer offer rate (offers per day).
  double offers_per_day = 3.0;
  /// Engine shards per aggregating node (BRPs and the TSO): prosumers are
  /// partitioned by owner id across each node's ShardedEdmsRuntime. 1 = the
  /// single-engine deployment.
  size_t shards_per_node = 1;
  /// BRP control-loop cadence and horizon (slices).
  int gate_period = 16;
  int horizon = 96;
  /// Scheduler of every aggregating node; empty = the system default
  /// (resolve names via edms::SchedulerRegistry::Default() at the CLI edge).
  edms::SchedulerFactory scheduler_factory;
  double scheduler_budget_s = 0.05;
  /// Iteration cap per scheduling run; set > 0 together with
  /// scheduler_budget_s <= 0 for bit-reproducible runs (chaos tests rerun
  /// scenarios and diff the reports).
  int scheduler_max_iterations = 0;
  /// Intake bound of the aggregating nodes' pooled runtimes (used when
  /// shards_per_node > 1); overflow is shed as kNack replies that prosumers
  /// honor with backoff. 0 = unbounded (default).
  size_t max_pending_batches_per_shard = 0;
};

/// Aggregated outcome of a simulation run.
struct SimulationReport {
  int64_t offers_created = 0;
  int64_t offers_accepted = 0;
  int64_t offers_rejected = 0;
  int64_t schedules_received = 0;
  int64_t offers_executed = 0;
  int64_t fallbacks = 0;
  double prosumer_earnings_eur = 0.0;

  int64_t scheduling_runs = 0;
  int64_t macros_scheduled = 0;
  double imbalance_before_kwh = 0.0;
  double imbalance_after_kwh = 0.0;
  double schedule_cost_eur = 0.0;

  int64_t messages_sent = 0;
  int64_t messages_delivered = 0;
  int64_t messages_dropped = 0;
  /// Subset of messages_dropped caused by the fault plan.
  int64_t messages_dropped_by_fault = 0;
  /// Bus backlog after the final drain (> 0 is logged as a warning).
  int64_t messages_undelivered_at_end = 0;

  // -- Transport reliability (summed over every node's ReliableChannel) ----
  int64_t transport_retries = 0;
  int64_t transport_dead_letters = 0;
  int64_t transport_duplicates_dropped = 0;
  int64_t transport_acks_sent = 0;

  // -- Degradation counters ------------------------------------------------
  /// Overload NACKs received by prosumers / resubmissions they made.
  int64_t nacks_received = 0;
  int64_t offers_resubmitted = 0;
  /// Offers refused with a reply during wind-down (never silently dropped).
  int64_t late_offers_refused = 0;
  /// Forwarded macros expired because the parent never returned a schedule.
  int64_t macros_expired_unscheduled = 0;
  /// Assigned offers closed as expired because execution never metered.
  /// In a 3-level run this also counts every macro schedule the TSO
  /// assigns: nothing meters a TSO-level offer, so each one ends as an
  /// execution timeout although no execution was lost.
  int64_t executions_timed_out = 0;

  /// Relative imbalance reduction achieved by flex-offer scheduling (the
  /// effect sketched in the paper's Fig. 1), in [0, 1].
  double ImbalanceReduction() const {
    return imbalance_before_kwh > 0.0
               ? 1.0 - imbalance_after_kwh / imbalance_before_kwh
               : 0.0;
  }

  std::string ToString() const;
};

/// Builds and runs the hierarchy. The baseline imbalance curves of the BRPs
/// are synthesised from the datagen demand/wind generators, so the whole run
/// is deterministic in `seed`.
class EdmsSimulation {
 public:
  explicit EdmsSimulation(const SimulationConfig& config);

  /// Runs the configured number of days and returns the combined report.
  SimulationReport Run();

  /// Access to the nodes after Run(), for tests and examples.
  const std::vector<std::unique_ptr<ProsumerNode>>& prosumers() const {
    return prosumers_;
  }
  const std::vector<std::unique_ptr<AggregatingNode>>& brps() const {
    return brps_;
  }
  const AggregatingNode* tso() const { return tso_.get(); }
  const MessageBus& bus() const { return bus_; }

 private:
  SimulationConfig config_;
  MessageBus bus_;
  /// One pool for every aggregating node's shards (multi-BRP sharing);
  /// declared before the nodes so it outlives their runtimes. Null when
  /// shards_per_node == 1 (inline engines need no workers).
  std::shared_ptr<edms::WorkerPool> pool_;
  std::vector<std::unique_ptr<ProsumerNode>> prosumers_;
  std::vector<std::unique_ptr<AggregatingNode>> brps_;
  std::unique_ptr<AggregatingNode> tso_;
};

}  // namespace mirabel::node

#endif  // MIRABEL_NODE_SIMULATION_H_

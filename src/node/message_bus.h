#ifndef MIRABEL_NODE_MESSAGE_BUS_H_
#define MIRABEL_NODE_MESSAGE_BUS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "node/fault_plan.h"
#include "node/message.h"

namespace mirabel::node {

/// In-process substitute for MIRABEL's wide-area messaging (the paper's
/// Communication component). Delivery is tied to the simulated slice clock:
/// a message sent at slice t is delivered when the simulation advances to
/// t + latency_slices. Latency, random loss and a full FaultPlan (drop
/// windows, node blackouts, partitions, latency spikes) are injectable so
/// tests can exercise the degradation path (paper §1: "even in critical
/// scenarios (e.g., nodes unreachable, failed execution deadlines) the
/// overall system would gracefully behave as in the traditional setting").
/// Everything is seeded: the same config + the same send sequence yields
/// bit-identical dropped/delivered sets.
class MessageBus {
 public:
  struct Config {
    /// Slices between send and delivery.
    int64_t latency_slices = 0;
    /// Probability that a message is silently dropped.
    double drop_probability = 0.0;
    uint64_t seed = 99;
    /// Windowed chaos faults, evaluated at Send() time (see FaultPlan; the
    /// plan's node stalls are driven by the simulation, not the bus).
    FaultPlan faults;
  };

  MessageBus();
  explicit MessageBus(const Config& config);

  /// Receives each delivered message. The bus owns the message and hands it
  /// over: a handler may move its payload out.
  using Handler = std::function<void(Message&)>;

  /// Registers the handler of node `id`; AlreadyExists on duplicates.
  Status Register(NodeId id, Handler handler);

  /// Queues `msg` for delivery at msg.sent_at + latency (+ any active
  /// latency spike). Unknown recipients return NotFound at send time (the
  /// sender can react immediately).
  Status Send(Message msg);

  /// Delivers every queued message due at or before `now`. Handlers may
  /// Send() further messages; those are delivered too when due.
  ///
  /// The order is not send order. The bus keeps its messages in one
  /// sequence. A message sent outside a delivery joins its end. A delivery
  /// pass walks the sequence once and delivers each due message; the
  /// messages its handler sends take its place, in the order sent, so a
  /// reply can be delivered ahead of a message sent before it. Messages not
  /// yet due keep their relative order. Passes repeat while anything due is
  /// left.
  void AdvanceTo(flexoffer::TimeSlice now);

  /// The latest slice AdvanceTo() reached — the bus-side clock. Handlers use
  /// this to timestamp replies sent from inside a delivery.
  flexoffer::TimeSlice now() const { return now_; }

  int64_t sent() const { return sent_; }
  int64_t delivered() const { return delivered_; }
  int64_t dropped() const { return dropped_; }
  /// Drops attributable to the FaultPlan (blackouts, partitions, drop
  /// windows), a subset of dropped().
  int64_t dropped_by_fault() const { return dropped_by_fault_; }
  size_t pending() const { return order_.size(); }

  /// End-of-run backlog check: logs a warning when messages are still
  /// undelivered and returns their count — the bus-level mirror of
  /// EngineStats::offers_dropped_at_shutdown, so messages cannot vanish
  /// silently when a run is torn down.
  size_t ReportBacklog() const;

 private:
  /// True when the fault plan says `msg` must be dropped at send time.
  bool FaultDrops(const Message& msg);
  /// Extra delivery latency from active latency spikes.
  int64_t FaultLatency(const Message& msg) const;

  /// A queued message: its due slice and its slot in `slots_`.
  struct Handle {
    flexoffer::TimeSlice due = 0;
    uint32_t slot = 0;
  };

  /// One delivery pass over `order_` (see AdvanceTo).
  void DeliveryPass(flexoffer::TimeSlice now);

  Config config_;
  Rng rng_;
  std::unordered_map<NodeId, Handler> handlers_;
  /// Queued messages, each stored once; a delivery frees its slot for
  /// reuse.
  std::vector<Message> slots_;
  std::vector<uint32_t> free_slots_;
  /// The delivery sequence. A pass writes the survivors and the handlers'
  /// sends to `next_order_` and swaps the two.
  std::vector<Handle> order_;
  std::vector<Handle> next_order_;
  /// True during a pass: sends go to `next_order_`.
  bool in_pass_ = false;
  /// The least due slice queued; max() when nothing is.
  flexoffer::TimeSlice min_due_ =
      std::numeric_limits<flexoffer::TimeSlice>::max();
  flexoffer::TimeSlice now_ = 0;
  int64_t sent_ = 0;
  int64_t delivered_ = 0;
  int64_t dropped_ = 0;
  int64_t dropped_by_fault_ = 0;
};

}  // namespace mirabel::node

#endif  // MIRABEL_NODE_MESSAGE_BUS_H_

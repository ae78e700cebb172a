#ifndef MIRABEL_NODE_PROSUMER_NODE_H_
#define MIRABEL_NODE_PROSUMER_NODE_H_

#include <cstdint>
#include <limits>
#include <map>

#include "common/rng.h"
#include "node/message_bus.h"
#include "node/reliable_channel.h"
#include "storage/data_store.h"

namespace mirabel::node {

/// Statistics of one prosumer's flex-offer lifecycle.
struct ProsumerStats {
  int64_t offers_created = 0;
  int64_t offers_accepted = 0;
  int64_t offers_rejected = 0;
  int64_t schedules_received = 0;
  int64_t offers_executed = 0;
  /// Offers whose assignment deadline passed unscheduled; the prosumer fell
  /// back to the open contract (paper §1).
  int64_t fallbacks = 0;
  /// Overload NACKs received from the BRP (offer shed before an engine).
  int64_t nacks_received = 0;
  /// NACKed offers resubmitted after honoring the retry-after + backoff.
  int64_t offers_resubmitted = 0;
  /// Flexibility payments received (EUR).
  double earnings_eur = 0.0;
};

/// A level-1 LEDMS node (paper §2 step 1-4): generates flex-offers from its
/// devices, sends them to its BRP over an acked ReliableChannel, executes
/// the schedules it receives, honors overload NACKs with backoff, and falls
/// back to the open contract when an offer times out.
class ProsumerNode {
 public:
  struct Config {
    NodeId id = 0;
    /// The BRP this prosumer contracts with.
    NodeId brp = 0;
    /// Expected flex-offers per day (Bernoulli per slice).
    double offers_per_day = 3.0;
    /// Minimum payment demanded for handing over control (EUR).
    double reservation_price_eur = 0.0;
    /// Offer shape: durations (slices), time flexibility, per-slice energy.
    int min_duration = 2;
    int max_duration = 12;
    int max_time_flexibility = 32;
    double min_slice_energy_kwh = 0.25;
    double max_slice_energy_kwh = 2.0;
    double max_energy_flex = 0.5;
    uint64_t seed = 1;
    /// Transport reliability (retry/ack/dedupe); `self` and `seed` are
    /// derived from `id`/`seed` by the constructor.
    ReliableChannel::Config reliability;
    /// NACKed offers are resubmitted at most this many times before the
    /// deadline fallback closes them.
    int max_offer_resubmits = 3;
  };

  /// Registers the node on `bus` (which must outlive it).
  ProsumerNode(const Config& config, MessageBus* bus);

  /// Advances the node to slice `now`: retries unacked sends, resubmits
  /// NACKed offers that are due, possibly emits a new flex-offer, executes
  /// schedules that completed, and expires timed-out offers. Calls may skip
  /// slices. A tick with no retry, resubmit, metering or fallback due only
  /// draws its device activity.
  void OnTick(flexoffer::TimeSlice now);

  const ProsumerStats& stats() const { return stats_; }
  const storage::DataStore& store() const { return store_; }
  /// Transport-level reliability counters (retries, dead letters, dupes).
  const ReliableChannel& channel() const { return channel_; }
  NodeId id() const { return config_.id; }

 private:
  void HandleMessage(const Message& msg);
  flexoffer::FlexOffer MakeOffer(flexoffer::TimeSlice now);
  /// Resubmits the NACKed offers whose retry-after + backoff elapsed.
  void ResubmitDue(flexoffer::TimeSlice now);
  /// Device activity: one Bernoulli draw, and on success a new offer stored
  /// and sent.
  void MaybeEmitOffer(flexoffer::TimeSlice now);

  /// One NACKed offer waiting out its retry-after + backoff.
  struct Resubmit {
    flexoffer::TimeSlice due = 0;
    int attempts = 0;
  };

  Config config_;
  MessageBus* bus_;
  storage::DataStore store_;
  Rng rng_;
  /// Separate stream for retry jitter so backoff does not perturb the
  /// node's offer-generation sequence (workloads stay comparable across
  /// fault plans).
  Rng retry_rng_;
  ReliableChannel channel_;
  ProsumerStats stats_;
  /// Ordered by offer id: deterministic resubmission order.
  std::map<flexoffer::FlexOfferId, Resubmit> resubmits_;
  flexoffer::FlexOfferId next_offer_seq_ = 1;
  /// A lower bound on the first slice at which a resubmit, a metering or a
  /// fallback can fall due. Lowered when the node stores an offer (its
  /// deadline), attaches a schedule (its end) or arms a resubmit (its due
  /// slice); recomputed after every tick that reaches the store's visits.
  flexoffer::TimeSlice next_due_ =
      std::numeric_limits<flexoffer::TimeSlice>::min();
};

}  // namespace mirabel::node

#endif  // MIRABEL_NODE_PROSUMER_NODE_H_

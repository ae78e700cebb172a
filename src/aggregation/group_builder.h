#ifndef MIRABEL_AGGREGATION_GROUP_BUILDER_H_
#define MIRABEL_AGGREGATION_GROUP_BUILDER_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "aggregation/aggregation_params.h"
#include "common/result.h"
#include "common/status.h"
#include "flexoffer/flex_offer.h"

namespace mirabel::aggregation {

/// Identifier of a similarity group maintained by the GroupBuilder.
using GroupId = uint64_t;

/// Kind of change reported by the incremental pipeline stages.
enum class UpdateKind { kCreated = 0, kChanged = 1, kDeleted = 2 };

/// Incremental change of one similarity group: the offers that entered and
/// the offer ids that left since the last Flush().
struct GroupUpdate {
  UpdateKind kind = UpdateKind::kCreated;
  GroupId group = 0;
  std::vector<flexoffer::FlexOffer> added;
  std::vector<flexoffer::FlexOfferId> removed;
};

/// First stage of the aggregation pipeline (paper §4): accumulates flex-offer
/// updates (inserts of accepted offers, removals of expiring ones) and, when
/// invoked via Flush(), partitions offers into groups of *similar* offers —
/// offers whose Start-After-Time / Time-Flexibility / duration deviate by no
/// more than the configured tolerances — and emits group updates.
class GroupBuilder {
 public:
  explicit GroupBuilder(const AggregationParams& params);

  /// Queues an offer insertion. Returns AlreadyExists for duplicate ids
  /// (considering both applied and pending state).
  Status Insert(const flexoffer::FlexOffer& offer);

  /// Queues an offer removal (e.g. the offer expired or was executed).
  /// Returns NotFound for unknown ids.
  Status Remove(flexoffer::FlexOfferId id);

  /// Applies all queued updates and returns the per-group deltas. Groups that
  /// become empty are reported kDeleted; new groups kCreated.
  std::vector<GroupUpdate> Flush();

  size_t num_groups() const { return groups_.size(); }
  size_t num_offers() const { return offer_to_group_.size(); }
  const AggregationParams& params() const { return params_; }

  /// Full current membership of a group (applied state only). Returns
  /// NotFound for unknown or deleted groups.
  Result<std::vector<flexoffer::FlexOffer>> GroupMembers(GroupId id) const;

 private:
  struct Group {
    GroupKey key;
    std::unordered_map<flexoffer::FlexOfferId, flexoffer::FlexOffer> offers;
  };

  AggregationParams params_;
  GroupId next_group_id_ = 1;

  std::map<GroupKey, GroupId> key_to_group_;
  std::unordered_map<GroupId, Group> groups_;
  std::unordered_map<flexoffer::FlexOfferId, GroupId> offer_to_group_;

  // Accumulated, not yet applied (paper: updates "are accumulated within the
  // group-builder until their further processing is invoked").
  std::vector<flexoffer::FlexOffer> pending_inserts_;
  std::vector<flexoffer::FlexOfferId> pending_removes_;
  std::unordered_map<flexoffer::FlexOfferId, size_t> pending_ids_;
};

}  // namespace mirabel::aggregation

#endif  // MIRABEL_AGGREGATION_GROUP_BUILDER_H_

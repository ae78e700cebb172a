#include "aggregation/group_builder.h"

#include <algorithm>

namespace mirabel::aggregation {

using flexoffer::FlexOffer;
using flexoffer::FlexOfferId;

GroupBuilder::GroupBuilder(const AggregationParams& params)
    : params_(params) {}

Status GroupBuilder::Insert(const FlexOffer& offer) {
  if (offer.id == 0) {
    return Status::InvalidArgument("flex-offer id 0 is reserved");
  }
  if (offer_to_group_.count(offer.id) != 0 ||
      pending_ids_.count(offer.id) != 0) {
    return Status::AlreadyExists("flex-offer " + std::to_string(offer.id));
  }
  pending_ids_.emplace(offer.id, pending_inserts_.size());
  pending_inserts_.push_back(offer);
  return Status::OK();
}

Status GroupBuilder::Remove(FlexOfferId id) {
  auto pending_it = pending_ids_.find(id);
  if (pending_it != pending_ids_.end()) {
    // Insert and remove within the same batch cancel out. Mark the pending
    // insert as dead by clearing its id (id 0 is never used by callers).
    pending_inserts_[pending_it->second].id = 0;
    pending_ids_.erase(pending_it);
    return Status::OK();
  }
  if (offer_to_group_.count(id) == 0) {
    return Status::NotFound("flex-offer " + std::to_string(id));
  }
  pending_removes_.push_back(id);
  return Status::OK();
}

Result<std::vector<FlexOffer>> GroupBuilder::GroupMembers(GroupId id) const {
  auto it = groups_.find(id);
  if (it == groups_.end()) {
    return Status::NotFound("group " + std::to_string(id));
  }
  std::vector<FlexOffer> out;
  out.reserve(it->second.offers.size());
  for (const auto& [oid, offer] : it->second.offers) out.push_back(offer);
  std::sort(out.begin(), out.end(),
            [](const FlexOffer& a, const FlexOffer& b) { return a.id < b.id; });
  return out;
}

std::vector<GroupUpdate> GroupBuilder::Flush() {
  struct Delta {
    bool created = false;
    std::vector<FlexOffer> added;
    std::vector<FlexOfferId> removed;
  };
  std::map<GroupId, Delta> deltas;

  // Apply removals first so that re-inserted offers land cleanly.
  for (FlexOfferId id : pending_removes_) {
    auto it = offer_to_group_.find(id);
    if (it == offer_to_group_.end()) continue;  // removed twice in one batch
    GroupId gid = it->second;
    Group& group = groups_[gid];
    group.offers.erase(id);
    offer_to_group_.erase(it);
    deltas[gid].removed.push_back(id);
  }

  for (const FlexOffer& offer : pending_inserts_) {
    if (offer.id == 0) continue;  // cancelled within the batch
    GroupKey key = MakeGroupKey(offer, params_);
    auto [key_it, inserted] = key_to_group_.try_emplace(key, next_group_id_);
    GroupId gid = key_it->second;
    if (inserted) {
      ++next_group_id_;
      groups_[gid].key = key;
      deltas[gid].created = true;
    }
    groups_[gid].offers.emplace(offer.id, offer);
    offer_to_group_[offer.id] = gid;
    deltas[gid].added.push_back(offer);
  }

  pending_inserts_.clear();
  pending_removes_.clear();
  pending_ids_.clear();

  std::vector<GroupUpdate> updates;
  updates.reserve(deltas.size());
  for (auto& [gid, delta] : deltas) {
    GroupUpdate u;
    u.group = gid;
    u.added = std::move(delta.added);
    u.removed = std::move(delta.removed);
    Group& group = groups_[gid];
    if (group.offers.empty()) {
      u.kind = UpdateKind::kDeleted;
      key_to_group_.erase(group.key);
      groups_.erase(gid);
      // A group created and emptied in the same batch is a no-op.
      if (delta.created) continue;
    } else if (delta.created) {
      u.kind = UpdateKind::kCreated;
    } else {
      u.kind = UpdateKind::kChanged;
    }
    updates.push_back(std::move(u));
  }
  return updates;
}

}  // namespace mirabel::aggregation

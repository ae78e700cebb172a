#include "aggregation/pipeline.h"

namespace mirabel::aggregation {

using flexoffer::FlexOffer;
using flexoffer::FlexOfferId;
using flexoffer::ScheduledFlexOffer;

AggregationPipeline::AggregationPipeline(const PipelineConfig& config)
    : group_builder_(config.params) {
  if (config.bin_packer.has_value()) {
    bin_packer_.emplace(*config.bin_packer);
  }
}

Status AggregationPipeline::Insert(const FlexOffer& offer) {
  MIRABEL_RETURN_IF_ERROR(offer.Validate());
  return group_builder_.Insert(offer);
}

Status AggregationPipeline::Insert(std::span<const FlexOffer> offers) {
  for (const FlexOffer& offer : offers) {
    MIRABEL_RETURN_IF_ERROR(Insert(offer));
  }
  return Status::OK();
}

Status AggregationPipeline::Remove(FlexOfferId id) {
  return group_builder_.Remove(id);
}

std::vector<AggregateUpdate> AggregationPipeline::Flush() {
  std::vector<GroupUpdate> group_updates = group_builder_.Flush();

  if (bin_packer_.has_value()) {
    std::vector<SubGroupUpdate> sub_updates =
        bin_packer_->Process(group_updates);
    return aggregator_.Process(sub_updates);
  }

  // Bin-packer disabled: the aggregator consumes group updates directly
  // (one aggregate per similarity group).
  std::vector<AggregateUpdate> out;
  for (const GroupUpdate& gu : group_updates) {
    Result<AggregateUpdate> r = Status::Internal("unhandled update kind");
    switch (gu.kind) {
      case UpdateKind::kDeleted:
        r = aggregator_.Delete(gu.group);
        break;
      case UpdateKind::kCreated:
        r = aggregator_.Upsert(gu.group, gu.added);
        break;
      case UpdateKind::kChanged:
        if (gu.removed.empty()) {
          r = aggregator_.AddIncremental(gu.group, gu.added);
        } else {
          // Shrinking change: rebuild from the authoritative membership.
          Result<std::vector<FlexOffer>> members =
              group_builder_.GroupMembers(gu.group);
          if (!members.ok()) {
            r = members.status();
          } else {
            r = aggregator_.Upsert(gu.group, *members);
          }
        }
        break;
    }
    if (r.ok()) out.push_back(std::move(r).value());
  }
  return out;
}

Result<std::vector<ScheduledFlexOffer>>
AggregationPipeline::DisaggregateSchedule(
    const ScheduledFlexOffer& macro_schedule) const {
  MIRABEL_ASSIGN_OR_RETURN(const AggregatedFlexOffer* agg,
                           aggregator_.Find(macro_schedule.offer_id));
  return Disaggregate(*agg, macro_schedule);
}

AggregationStats AggregationPipeline::Stats() const {
  AggregationStats stats;
  stats.aggregate_count = aggregator_.num_aggregates();
  int64_t total_loss = 0;
  size_t total_members = 0;
  for (const auto& [id, agg] : aggregator_.aggregates()) {
    total_loss += agg.TotalTimeFlexibilityLoss();
    total_members += agg.members.size();
  }
  stats.offer_count = total_members;
  stats.compression_ratio =
      stats.aggregate_count > 0
          ? static_cast<double>(total_members) / stats.aggregate_count
          : 0.0;
  stats.avg_time_flexibility_loss =
      total_members > 0 ? static_cast<double>(total_loss) / total_members : 0.0;
  return stats;
}

}  // namespace mirabel::aggregation

#ifndef MIRABEL_AGGREGATION_PIPELINE_H_
#define MIRABEL_AGGREGATION_PIPELINE_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "aggregation/bin_packer.h"
#include "aggregation/group_builder.h"
#include "aggregation/n_to_one_aggregator.h"

namespace mirabel::aggregation {

/// Configuration of the aggregation component.
struct PipelineConfig {
  AggregationParams params;
  /// When set, the optional bin-packer stage is enabled (paper §4: "this
  /// bin-packer is an optional feature and can be turned off").
  std::optional<BinPackerBounds> bin_packer;
};

/// Summary statistics over the current set of offers/aggregates, matching the
/// metrics of the paper's aggregation experiment (Fig. 5).
struct AggregationStats {
  size_t offer_count = 0;
  size_t aggregate_count = 0;
  /// offers per aggregate; > 1 means compression (Fig. 5(a)).
  double compression_ratio = 0.0;
  /// Mean (member time flexibility - aggregate time flexibility), slices
  /// (Fig. 5(c) "Loss of Time Flexibility per 1 Flex-offer").
  double avg_time_flexibility_loss = 0.0;
};

/// The aggregation component (paper §4): chains group-builder, optional
/// bin-packer and n-to-1 aggregator. "Accepts a set of flex-offer updates ...
/// and produces a set of aggregated flex-offer updates."
///
/// Usage:
///   AggregationPipeline pipe({AggregationParams::P2(), std::nullopt});
///   for (const FlexOffer& fo : offers) pipe.Insert(fo);
///   std::vector<AggregateUpdate> ups = pipe.Flush();
///   ... schedule macro offers ...
///   auto micro = pipe.DisaggregateSchedule(macro_schedule);
class AggregationPipeline {
 public:
  explicit AggregationPipeline(const PipelineConfig& config);

  /// Queues the insertion of an accepted flex-offer.
  Status Insert(const flexoffer::FlexOffer& offer);

  /// Batch intake: queues all of `offers`. Stops at the first invalid or
  /// duplicate offer and returns its error; earlier offers stay queued.
  Status Insert(std::span<const flexoffer::FlexOffer> offers);

  /// Queues the removal of an offer (expired / executed / withdrawn).
  Status Remove(flexoffer::FlexOfferId id);

  /// Processes all queued updates through the stages and returns the
  /// resulting aggregated flex-offer updates.
  std::vector<AggregateUpdate> Flush();

  /// Live aggregates keyed by AggregateId.
  const std::unordered_map<AggregateId, AggregatedFlexOffer>& aggregates()
      const {
    return aggregator_.aggregates();
  }

  /// Disaggregates a schedule whose offer_id names an aggregate produced by
  /// this pipeline into per-member schedules (paper §4 disaggregation).
  Result<std::vector<flexoffer::ScheduledFlexOffer>> DisaggregateSchedule(
      const flexoffer::ScheduledFlexOffer& macro_schedule) const;

  /// Current compression / flexibility-loss statistics.
  AggregationStats Stats() const;

  size_t num_groups() const { return group_builder_.num_groups(); }
  size_t num_offers() const { return group_builder_.num_offers(); }

 private:
  GroupBuilder group_builder_;
  std::optional<BinPacker> bin_packer_;
  NToOneAggregator aggregator_;
};

}  // namespace mirabel::aggregation

#endif  // MIRABEL_AGGREGATION_PIPELINE_H_

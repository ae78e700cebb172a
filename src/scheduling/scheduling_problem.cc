#include "scheduling/scheduling_problem.h"

#include <string>

namespace mirabel::scheduling {

Status SchedulingProblem::Validate() const {
  if (horizon_length <= 0) {
    return Status::InvalidArgument("horizon_length must be positive");
  }
  size_t h = static_cast<size_t>(horizon_length);
  if (baseline_imbalance_kwh.size() != h ||
      imbalance_penalty_eur.size() != h ||
      market.buy_price_eur.size() != h || market.sell_price_eur.size() != h) {
    return Status::InvalidArgument(
        "per-slice vectors must match horizon_length");
  }
  for (size_t i = 0; i < offers.size(); ++i) {
    MIRABEL_RETURN_IF_ERROR(offers[i].Validate());
    if (offers[i].earliest_start < horizon_start ||
        offers[i].LatestEnd() > horizon_start + horizon_length) {
      return Status::OutOfRange("offer " + std::to_string(i) +
                                " does not fit inside the horizon");
    }
  }
  return Status::OK();
}

}  // namespace mirabel::scheduling

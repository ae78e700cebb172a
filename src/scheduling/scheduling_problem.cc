#include "scheduling/scheduling_problem.h"

#include <cmath>
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
  // A NaN residual matches neither market branch of the cost model and
  // would price at zero, so every per-slice input must be finite.
  for (size_t s = 0; s < h; ++s) {
    if (!std::isfinite(baseline_imbalance_kwh[s]) ||
        !std::isfinite(imbalance_penalty_eur[s]) ||
        !std::isfinite(market.buy_price_eur[s]) ||
        !std::isfinite(market.sell_price_eur[s])) {
      return Status::InvalidArgument("slice " + std::to_string(s) +
                                     " has a non-finite input");
    }
  }
  // +inf stays a valid cap (the default: unbounded market access); the
  // negated comparisons also reject NaN.
  if (!(market.max_buy_kwh >= 0.0) || !(market.max_sell_kwh >= 0.0)) {
    return Status::InvalidArgument("market caps must be non-negative");
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

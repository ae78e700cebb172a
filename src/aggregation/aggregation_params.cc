#include "aggregation/aggregation_params.h"

#include <cstdio>

namespace mirabel::aggregation {

namespace {

int64_t Bucket(int64_t value, int64_t tolerance) {
  if (tolerance < 0) return 0;  // attribute ignored
  int64_t width = tolerance + 1;
  int64_t b = value / width;
  if (value % width < 0) --b;  // floor division for negatives
  return b;
}

}  // namespace

std::string AggregationParams::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "AggregationParams{sat_tol=%lld tf_tol=%lld dur_tol=%lld}",
                static_cast<long long>(start_after_tolerance),
                static_cast<long long>(time_flexibility_tolerance),
                static_cast<long long>(duration_tolerance));
  return buf;
}

GroupKey MakeGroupKey(const flexoffer::FlexOffer& offer,
                      const AggregationParams& params) {
  GroupKey key;
  key.start_after_bucket =
      Bucket(offer.earliest_start, params.start_after_tolerance);
  key.time_flexibility_bucket =
      Bucket(offer.TimeFlexibility(), params.time_flexibility_tolerance);
  key.duration_bucket = Bucket(offer.Duration(), params.duration_tolerance);
  return key;
}

}  // namespace mirabel::aggregation

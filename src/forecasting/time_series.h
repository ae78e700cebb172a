#ifndef MIRABEL_FORECASTING_TIME_SERIES_H_
#define MIRABEL_FORECASTING_TIME_SERIES_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace mirabel::forecasting {

/// An equidistant univariate energy time series (demand or supply
/// measurements) with a known number of observations per day.
///
/// The forecasting component treats all series as equidistant; the
/// observation interval is implied by `periods_per_day` (48 = half-hourly,
/// 96 = 15-minute slices).
class TimeSeries {
 public:
  TimeSeries() = default;
  /// Wraps `values` observed at `periods_per_day` points per day.
  TimeSeries(std::vector<double> values, int periods_per_day);

  const std::vector<double>& values() const { return values_; }
  int periods_per_day() const { return periods_per_day_; }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double at(size_t i) const { return values_[i]; }

  /// Appends a new measurement (online arrival).
  void Append(double value) { values_.push_back(value); }

  /// Returns the sub-series [from, from + count). OutOfRange on overflow.
  Result<TimeSeries> Slice(size_t from, size_t count) const;

  /// Splits into (head of `head_count` observations, remaining tail);
  /// used for train/holdout evaluation. OutOfRange if head_count > size().
  Result<std::pair<TimeSeries, TimeSeries>> Split(size_t head_count) const;

 private:
  std::vector<double> values_;
  int periods_per_day_ = 48;
};

}  // namespace mirabel::forecasting

#endif  // MIRABEL_FORECASTING_TIME_SERIES_H_

#include "forecasting/time_series.h"

namespace mirabel::forecasting {

TimeSeries::TimeSeries(std::vector<double> values, int periods_per_day)
    : values_(std::move(values)), periods_per_day_(periods_per_day) {}

Result<TimeSeries> TimeSeries::Slice(size_t from, size_t count) const {
  if (from + count > values_.size()) {
    return Status::OutOfRange("slice exceeds series length");
  }
  return TimeSeries(
      std::vector<double>(
          values_.begin() + static_cast<ptrdiff_t>(from),
          values_.begin() + static_cast<ptrdiff_t>(from + count)),
      periods_per_day_);
}

Result<std::pair<TimeSeries, TimeSeries>> TimeSeries::Split(
    size_t head_count) const {
  if (head_count > values_.size()) {
    return Status::OutOfRange("split point exceeds series length");
  }
  MIRABEL_ASSIGN_OR_RETURN(TimeSeries head, Slice(0, head_count));
  MIRABEL_ASSIGN_OR_RETURN(TimeSeries tail,
                           Slice(head_count, values_.size() - head_count));
  return std::make_pair(std::move(head), std::move(tail));
}

}  // namespace mirabel::forecasting

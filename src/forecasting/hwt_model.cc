#include "forecasting/hwt_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/math_util.h"

namespace mirabel::forecasting {

namespace {

/// Upper bound of phi; every other parameter lies in [0, 1].
constexpr double kMaxPhi = 0.99;

Status Diverged() {
  return Status::Internal("smoothing diverged (non-finite SSE)");
}

}  // namespace

HwtModel::HwtModel(std::vector<int> seasonal_periods)
    : seasonal_periods_(std::move(seasonal_periods)) {
  std::sort(seasonal_periods_.begin(), seasonal_periods_.end());
}

std::vector<ParamBound> HwtModel::Bounds() const {
  std::vector<ParamBound> bounds(NumParams(), ParamBound{0.0, 1.0});
  bounds.back() = ParamBound{0.0, kMaxPhi};  // phi
  return bounds;
}

std::vector<double> HwtModel::DefaultParams() const {
  std::vector<double> p(NumParams(), 0.15);
  p.front() = 0.1;   // alpha
  p.back() = 0.7;    // phi
  return p;
}

double HwtModel::SeasonalAt(int ahead) const {
  double acc = 0.0;
  for (size_t i = 0; i < seasons_.size(); ++i) {
    int m = seasonal_periods_[i];
    // Index that was in effect m steps before time t_ + ahead.
    int64_t pos = (t_ + ahead) % m;
    acc += seasons_[i][static_cast<size_t>(pos)];
  }
  return acc;
}

void HwtModel::ComputeSeed(std::span<const double> window) {
  seed_window_.assign(window.begin(), window.end());
  const size_t n = window.size();
  const size_t max_period = n / 2;
  seed_level_ = 0.0;
  for (size_t j = 0; j < max_period; ++j) seed_level_ += window[j];
  seed_level_ /= static_cast<double>(max_period);

  // The detrend scratch lives in a member buffer, so a new window of the
  // same length is seeded within existing capacity.
  std::vector<double>& residual = seed_detrend_buf_;
  residual.assign(window.begin(), window.end());
  for (double& r : residual) r -= seed_level_;
  seed_seasons_.resize(seasonal_periods_.size());
  for (size_t i = 0; i < seasonal_periods_.size(); ++i) {
    const size_t m = static_cast<size_t>(seasonal_periods_[i]);
    std::vector<double>& idx = seed_seasons_[i];
    idx.assign(m, 0.0);
    // p runs as j mod m, so each idx[p] sums its observations in series
    // order.
    for (size_t j = 0, p = 0; j < n; ++j) {
      idx[p] += residual[j];
      if (++p == m) p = 0;
    }
    // n >= 2m: position p has n / m observations, plus one when the last,
    // partial cycle reaches it.
    for (size_t p = 0; p < m; ++p) {
      idx[p] /= static_cast<double>(n / m + (p < n % m ? 1 : 0));
    }
    // Zero-mean the indices so they do not absorb the level.
    double mean = Mean(idx);
    for (double& v : idx) v -= mean;
    // Remove this season's contribution before fitting the next one.
    for (size_t j = 0, p = 0; j < n; ++j) {
      residual[j] -= idx[p];
      if (++p == m) p = 0;
    }
  }
}

Result<double> HwtModel::FitWithParams(const TimeSeries& series,
                                       const std::vector<double>& params) {
  if (params.size() != NumParams()) {
    return Status::InvalidArgument("expected " + std::to_string(NumParams()) +
                                   " parameters");
  }
  if (seasonal_periods_.empty()) {
    return Status::FailedPrecondition("no seasonal periods configured");
  }
  if (seasonal_periods_.front() <= 0) {
    return Status::InvalidArgument("seasonal periods must be positive");
  }
  const size_t max_period = static_cast<size_t>(seasonal_periods_.back());
  if (series.size() < 2 * max_period) {
    return Status::InvalidArgument(
        "series shorter than two of the longest seasonal cycles");
  }
  for (size_t i = 0; i < params.size(); ++i) {
    const double hi = i + 1 == params.size() ? kMaxPhi : 1.0;
    if (!(params[i] >= 0.0 && params[i] <= hi)) {
      return Status::OutOfRange("parameter " + std::to_string(i) +
                                " outside its bounds");
    }
  }

  const std::vector<double>& y = series.values();
  const size_t window = 2 * max_period;
  const size_t window_bytes = window * sizeof(double);
  if (seed_window_.size() != window ||
      std::memcmp(seed_window_.data(), y.data(), window_bytes) != 0) {
    ComputeSeed(std::span<const double>(y).first(window));
  }

  // ---- Smoothing recursions over the series, on scratch state -------------
  fit_seasons_.resize(seed_seasons_.size());
  fit_rings_.clear();
  for (size_t i = 0; i < seed_seasons_.size(); ++i) {
    fit_seasons_[i].assign(seed_seasons_[i].begin(), seed_seasons_[i].end());
    fit_rings_.push_back(SeasonRing{fit_seasons_[i], 0, params[1 + i]});
  }
  fit_residuals_.resize(y.size() - max_period);
  const std::span<SeasonRing> rings(fit_rings_);
  const std::span<double> residuals(fit_residuals_);
  const double alpha = params.front();
  const double phi = params.back();
  double level = seed_level_;
  double last_error = 0.0;
  double sse = 0.0;
  for (size_t j = 0; j < y.size(); ++j) {
    // The same expression, in the same order, as Update().
    double seasonal = 0.0;
    for (const SeasonRing& r : rings) seasonal += r.index[r.pos];
    const double e = y[j] - ((level + seasonal) + phi * last_error);
    // Exact: alpha * e is non-finite for every alpha in [0, 1] (0 * inf is
    // NaN), so the level, every later error and the SSE stay non-finite.
    if (!std::isfinite(e)) return Diverged();
    if (j >= max_period) {
      sse += e * e;
      residuals[j - max_period] = e;
    }
    level += alpha * e;
    for (SeasonRing& r : rings) {
      r.index[r.pos] += r.gamma * e;
      if (++r.pos == r.index.size()) r.pos = 0;
    }
    last_error = e;
  }
  if (!std::isfinite(sse)) return Diverged();

  // ---- Commit --------------------------------------------------------------
  params_ = params;
  level_ = level;
  last_error_ = last_error;
  t_ = static_cast<int64_t>(y.size());
  seasons_.swap(fit_seasons_);
  residuals_.swap(fit_residuals_);
  // The replaced state is the next fit's scratch. Shaping it here, once,
  // lets every later fit of this shape run within capacity.
  if (fit_seasons_.size() != seasons_.size()) fit_seasons_ = seasons_;
  fit_residuals_.reserve(residuals_.size());
  fitted_ = true;
  return sse;
}

Status HwtModel::Update(double value) {
  if (!fitted_) {
    return Status::FailedPrecondition("model has not been fitted");
  }
  const double alpha = params_[0];
  const double phi = params_.back();
  double forecast = level_ + SeasonalAt(0) + phi * last_error_;
  double e = value - forecast;
  level_ += alpha * e;
  for (size_t i = 0; i < seasons_.size(); ++i) {
    double gamma = params_[1 + i];
    int m = seasonal_periods_[i];
    seasons_[i][static_cast<size_t>(t_ % m)] += gamma * e;
  }
  last_error_ = e;
  ++t_;
  return Status::OK();
}

Result<std::vector<double>> HwtModel::Forecast(int horizon) const {
  if (!fitted_) {
    return Status::FailedPrecondition("model has not been fitted");
  }
  if (horizon <= 0) {
    return Status::InvalidArgument("horizon must be positive");
  }
  const double phi = params_.back();
  std::vector<double> out;
  out.reserve(static_cast<size_t>(horizon));
  double ar = last_error_;
  for (int h = 0; h < horizon; ++h) {
    ar *= phi;
    out.push_back(level_ + SeasonalAt(h) + ar);
  }
  return out;
}

}  // namespace mirabel::forecasting

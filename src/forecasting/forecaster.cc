#include "forecasting/forecaster.h"
#include <limits>

#include <cmath>

#include "common/math_util.h"

namespace mirabel::forecasting {

Forecaster::Forecaster(const ForecasterConfig& config)
    : config_(config), model_(config.seasonal_periods) {}

Status Forecaster::Train(const TimeSeries& history) {
  std::unique_ptr<ParameterEstimator> estimator =
      MakeEstimator(config_.estimator);
  if (estimator == nullptr) {
    return Status::InvalidArgument("unknown estimator: " + config_.estimator);
  }

  Objective objective = [this, &history](const std::vector<double>& params) {
    Result<double> sse = model_.FitWithParams(history, params);
    return sse.ok() ? *sse : std::numeric_limits<double>::infinity();
  };

  EstimationResult est = estimator->Estimate(objective, model_.Bounds(),
                                             config_.initial_estimation);
  if (est.best_params.empty()) {
    return Status::Internal("parameter estimation produced no candidate");
  }
  MIRABEL_RETURN_IF_ERROR(
      model_.FitWithParams(history, est.best_params).status());

  // Commit only now. A fit changes the model only on success, and every
  // failure above means no fit succeeded, so the model is unchanged and the
  // history, window and counters must keep matching it.
  history_ = history;
  window_errors_.clear();
  observations_since_estimation_ = 0;
  trained_ = true;
  return Status::OK();
}

Status Forecaster::AddMeasurement(double value) {
  if (!trained_) {
    return Status::FailedPrecondition("call Train() first");
  }
  // One-step-ahead forecast before consuming the value, for the rolling
  // accuracy estimate.
  MIRABEL_ASSIGN_OR_RETURN(std::vector<double> f, model_.Forecast(1));
  double denom = (std::fabs(value) + std::fabs(f[0])) / 2.0;
  double term = denom > 1e-12 ? std::fabs(f[0] - value) / denom : 0.0;
  window_errors_.push_back(term);
  while (window_errors_.size() >
         static_cast<size_t>(config_.evaluation_window)) {
    window_errors_.pop_front();
  }

  MIRABEL_RETURN_IF_ERROR(model_.Update(value));
  history_.Append(value);
  ++observations_since_estimation_;

  bool adapt = false;
  switch (config_.evaluation) {
    case EvaluationStrategy::kTimeBased:
      adapt = observations_since_estimation_ >= config_.reestimation_interval;
      break;
    case EvaluationStrategy::kThresholdBased:
      adapt = window_errors_.size() ==
                  static_cast<size_t>(config_.evaluation_window) &&
              RollingSmape() > config_.smape_threshold;
      break;
  }
  if (adapt) return Reestimate();
  return Status::OK();
}

Status Forecaster::Reestimate() {
  std::vector<double> start = model_.params();
  Objective objective = [this](const std::vector<double>& params) {
    Result<double> sse = model_.FitWithParams(history_, params);
    return sse.ok() ? *sse : std::numeric_limits<double>::infinity();
  };
  NelderMeadEstimator estimator(start);
  EstimationResult est = estimator.Estimate(objective, model_.Bounds(),
                                            config_.adaptation_estimation);
  const std::vector<double>& chosen =
      est.best_params.empty() ? start : est.best_params;
  MIRABEL_RETURN_IF_ERROR(model_.FitWithParams(history_, chosen).status());
  observations_since_estimation_ = 0;
  window_errors_.clear();
  ++reestimation_count_;
  return Status::OK();
}

Result<std::vector<double>> Forecaster::Forecast(int horizon) const {
  if (!trained_) {
    return Status::FailedPrecondition("call Train() first");
  }
  return model_.Forecast(horizon);
}

double Forecaster::RollingSmape() const {
  if (window_errors_.empty()) return 0.0;
  double acc = 0.0;
  for (double e : window_errors_) acc += e;
  return acc / static_cast<double>(window_errors_.size());
}

}  // namespace mirabel::forecasting

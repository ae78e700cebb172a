#ifndef MIRABEL_FORECASTING_FORECASTER_H_
#define MIRABEL_FORECASTING_FORECASTER_H_

#include <deque>
#include <memory>
#include <string>

#include "forecasting/estimator.h"
#include "forecasting/hwt_model.h"
#include "forecasting/time_series.h"

namespace mirabel::forecasting {

/// When to re-estimate model parameters (paper §5: "we offer different model
/// evaluation strategies (e.g., time- or threshold-based)").
enum class EvaluationStrategy {
  /// Re-estimate every `reestimation_interval` observations.
  kTimeBased,
  /// Re-estimate when the rolling SMAPE exceeds `smape_threshold`.
  kThresholdBased,
};

/// Configuration of a maintained forecaster.
struct ForecasterConfig {
  /// Seasonal cycle lengths of the HWT model, in observations.
  std::vector<int> seasonal_periods = {48, 336};
  /// Estimator used for initial (from-scratch) parameter estimation.
  std::string estimator = "RandomRestartNelderMead";
  /// Budget of the initial estimation.
  EstimatorOptions initial_estimation{0.5, 0, 1};
  /// Budget of re-estimations during maintenance (warm-started, so cheaper).
  EstimatorOptions adaptation_estimation{0.1, 0, 2};

  EvaluationStrategy evaluation = EvaluationStrategy::kThresholdBased;
  /// kTimeBased: observations between re-estimations.
  int reestimation_interval = 336;
  /// kThresholdBased: rolling-SMAPE trigger.
  double smape_threshold = 0.08;
  /// Rolling window (observations) for the SMAPE estimate.
  int evaluation_window = 48;
};

/// The forecasting component's per-series facade: transparent model creation
/// and usage plus transparent model update and maintenance (paper §5's two
/// main components).
///
/// Train() estimates HWT parameters from scratch with the configured global
/// estimator. AddMeasurement() performs the cheap per-value model update and,
/// according to the evaluation strategy, triggers parameter re-estimation,
/// warm-started from the current parameters.
class Forecaster {
 public:
  explicit Forecaster(const ForecasterConfig& config);

  /// Estimates parameters on `history` and fits the model. InvalidArgument
  /// for an unknown estimator; Internal when no candidate parameter vector
  /// fits (e.g. the history is shorter than two longest cycles). On failure
  /// the forecaster is unchanged: a trained one keeps forecasting from, and
  /// maintaining, the model and history of its last successful Train().
  Status Train(const TimeSeries& history);

  /// Appends a measurement: O(1) model update plus, when the evaluation
  /// strategy fires, a budgeted re-estimation. FailedPrecondition before
  /// Train().
  Status AddMeasurement(double value);

  /// Forecasts the next `horizon` observations.
  Result<std::vector<double>> Forecast(int horizon) const;

  /// Rolling SMAPE over the last `evaluation_window` one-step forecasts
  /// (0 until enough measurements arrived).
  double RollingSmape() const;

  /// Number of parameter re-estimations triggered by maintenance.
  int reestimation_count() const { return reestimation_count_; }

 private:
  /// Re-estimates parameters warm-started from the current params.
  Status Reestimate();

  ForecasterConfig config_;
  HwtModel model_;
  TimeSeries history_;

  std::deque<double> window_errors_;  // |f - a| / ((|a|+|f|)/2) terms
  int observations_since_estimation_ = 0;
  int reestimation_count_ = 0;
  bool trained_ = false;
};

}  // namespace mirabel::forecasting

#endif  // MIRABEL_FORECASTING_FORECASTER_H_

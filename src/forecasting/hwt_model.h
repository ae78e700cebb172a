#ifndef MIRABEL_FORECASTING_HWT_MODEL_H_
#define MIRABEL_FORECASTING_HWT_MODEL_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "forecasting/time_series.h"

namespace mirabel::forecasting {

/// Box constraint of one model parameter.
struct ParamBound {
  double lo = 0.0;
  double hi = 1.0;
};

/// Taylor's multi-seasonal Holt-Winters exponential smoothing model (HWT)
/// with an AR(1) residual adjustment — "a energy specific adaptation of the
/// general purpose Holt-Winters exponential smoothing forecast model"
/// (paper §5, [12, 13]).
///
/// The model is additive with a smoothed level, one seasonal index array per
/// configured cycle (e.g. daily 48, weekly 336 and, for multi-year series,
/// annual), and a first-order autocorrelation adjustment of the residual:
///
///   one-step forecast: f_t = l_{t-1} + sum_i s_i[t - m_i] + phi * e_{t-1}
///   error:             e_t = y_t - f_t
///   level:             l_t = l_{t-1} + alpha * e_t
///   season i:          s_i[t] = s_i[t - m_i] + gamma_i * e_t
///
/// Parameters are (alpha, gamma_1..gamma_k, phi), all in [0, 1] except phi in
/// [0, 0.99]. FitWithParams() runs the recursions over a training series and
/// returns the in-sample one-step SSE, which the parameter estimators
/// (estimator.h) minimise.
class HwtModel {
 public:
  /// `seasonal_periods` lists the cycle lengths in observations, shortest
  /// first (e.g. {48, 336} for half-hourly data with daily + weekly cycles).
  /// The paper's "triple seasonality" adds the annual cycle; with the 8-week
  /// series of the experiments only two cycles are identifiable, which
  /// matches Taylor's double-seasonal variant.
  explicit HwtModel(std::vector<int> seasonal_periods);

  /// Number of free parameters: 1 (alpha) + #seasons (gammas) + 1 (phi).
  size_t NumParams() const { return 2 + seasonal_periods_.size(); }

  /// Box bounds for each parameter, in estimator order.
  std::vector<ParamBound> Bounds() const;

  /// A reasonable default parameter vector (alpha=0.1, gammas=0.15, phi=0.7).
  std::vector<double> DefaultParams() const;

  /// Runs the smoothing recursions over `series` with `params` and returns
  /// the in-sample sum of squared one-step errors after the warm-up (the
  /// first max(seasonal_periods) observations).
  ///
  /// Contract:
  ///  - Input: InvalidArgument for a wrong parameter count, a non-positive
  ///    seasonal period or a series shorter than 2 * max(seasonal_periods);
  ///    FailedPrecondition when no period is configured; OutOfRange for a
  ///    parameter outside Bounds()[i] (NaN and infinities included).
  ///  - Strong guarantee: the fit runs on scratch buffers and replaces the
  ///    fitted state, params() and residuals() only on success. On any
  ///    error the model reads exactly as before the call; a model whose
  ///    first fit fails stays unfitted.
  ///  - Seed reuse: the start state (the level and the zero-mean seasonal
  ///    indices) depends only on the window y[0, 2 * max period). The model
  ///    keeps the last seed with a copy of its window and reuses it when the
  ///    next fit's window is byte-for-byte the same (bytes, not ==, so
  ///    signed zeros and NaN payloads cannot alias).
  ///  - Divergence: Internal "smoothing diverged (non-finite SSE)" when the
  ///    SSE is not finite. The recursion stops at the first non-finite
  ///    one-step error: alpha * e is then non-finite for every alpha in
  ///    [0, 1] (0 * inf = NaN), so the level, every later error and the SSE
  ///    would stay non-finite to the end.
  ///
  /// Results are bit-identical to the recursion above evaluated as
  /// f = (l + ((0 + s_1) + ... + s_k)) + phi * e_prev with every season
  /// indexed by t mod m_i.
  Result<double> FitWithParams(const TimeSeries& series,
                               const std::vector<double>& params);

  /// Online maintenance (paper §5: "for each new time series value, we update
  /// our forecast models ... low additional costs"): advances the recursions
  /// by one observation. FailedPrecondition before the first fit.
  Status Update(double value);

  /// h-step-ahead forecasts from the current state:
  ///   f_{t+h} = l_t + sum_i s_i[t + h - m_i] + phi^h * e_t.
  /// FailedPrecondition before the first fit; InvalidArgument for h <= 0.
  Result<std::vector<double>> Forecast(int horizon) const;

  /// True once FitWithParams succeeded.
  bool fitted() const { return fitted_; }

  /// Post-warmup in-sample one-step errors of the last successful fit, in
  /// series order (the same errors whose squares form the returned SSE).
  /// Empty before the first fit. This is the empirical forecast-error pool
  /// the uncertainty layer bootstraps scenario perturbations from
  /// (scheduling::ScenarioEnsemble::FromResidualPool).
  const std::vector<double>& residuals() const { return residuals_; }

  const std::vector<double>& params() const { return params_; }

 private:
  /// One season's ring during a fit: the season's scratch indices, the
  /// position that is "now" (t mod m, advanced by compare-and-reset) and
  /// its smoothing weight.
  struct SeasonRing {
    std::span<double> index;
    size_t pos = 0;
    double gamma = 0.0;
  };

  /// Sum of the seasonal indices that apply `ahead` steps after now.
  double SeasonalAt(int ahead) const;

  /// Computes the seed from `window` = y[0, 2 * max period) and keeps it
  /// together with a copy of the window.
  void ComputeSeed(std::span<const double> window);

  std::vector<int> seasonal_periods_;
  std::vector<double> params_;  // alpha, gamma_i..., phi

  bool fitted_ = false;
  double level_ = 0.0;
  double last_error_ = 0.0;
  /// Ring buffers of seasonal indices; index [t mod m_i] is "now".
  std::vector<std::vector<double>> seasons_;
  /// Observations consumed so far (positions the ring buffers).
  int64_t t_ = 0;

  /// Post-warmup one-step errors of the last fit (see residuals()).
  std::vector<double> residuals_;

  /// The last seed: a copy of the window it was computed from, its level
  /// and its zero-mean seasonal indices.
  std::vector<double> seed_window_;
  double seed_level_ = 0.0;
  std::vector<std::vector<double>> seed_seasons_;

  /// Fit-time scratch, hoisted into members so refitting (the estimator
  /// calls FitWithParams once per candidate parameter vector) runs within
  /// existing capacity. A fit runs on fit_seasons_ and fit_residuals_ and
  /// swaps them with seasons_ and residuals_ only on success; fit_rings_
  /// views fit_seasons_ and is rebuilt by every fit.
  std::vector<std::vector<double>> fit_seasons_;
  std::vector<double> fit_residuals_;
  std::vector<SeasonRing> fit_rings_;
  std::vector<double> seed_detrend_buf_;
};

}  // namespace mirabel::forecasting

#endif  // MIRABEL_FORECASTING_HWT_MODEL_H_

#ifndef MIRABEL_COMMON_MATH_UTIL_H_
#define MIRABEL_COMMON_MATH_UTIL_H_

#include <cstddef>
#include <vector>

#include "common/result.h"

namespace mirabel {

/// Logistic sigmoid 1 / (1 + exp(-x)). Used by the negotiation component to
/// normalise flexibility parameters into [0, 1] potentials (paper §7).
double Sigmoid(double x);

/// Scaled sigmoid: Sigmoid((x - midpoint) / scale). Requires scale > 0.
double ScaledSigmoid(double x, double midpoint, double scale);

/// Clamps `x` into [lo, hi].
double Clamp(double x, double lo, double hi);

/// Arithmetic mean; returns 0 for an empty vector.
double Mean(const std::vector<double>& v);

/// Population standard deviation; returns 0 for fewer than 2 elements.
double StdDev(const std::vector<double>& v);

/// Symmetric Mean Absolute Percentage Error as used in the paper's Fig. 4:
///   SMAPE = (1/n) * sum |f_i - a_i| / ((|a_i| + |f_i|) / 2)
/// Terms where both actual and forecast are 0 contribute 0.
/// Returns InvalidArgument when sizes differ or inputs are empty.
Result<double> Smape(const std::vector<double>& actual,
                     const std::vector<double>& forecast);

/// Ordinary least squares fit of y = slope * x + intercept.
/// Used e.g. to reproduce the "y = 0.36*x - 0.68" line of Fig. 5(d).
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination (R^2) of the fit.
  double r_squared = 0.0;
};

/// Fits a least-squares line through (x_i, y_i). Requires >= 2 points and a
/// non-constant x; returns InvalidArgument otherwise.
Result<LinearFit> FitLine(const std::vector<double>& x,
                          const std::vector<double>& y);

}  // namespace mirabel

#endif  // MIRABEL_COMMON_MATH_UTIL_H_
